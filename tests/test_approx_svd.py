"""Approximate-SVD factor producers.

Each routine must return an orthonormal n x k factor Z whose projection
residual ||A - A Z Z^T||_F^2 meets the (1 + eps) bound under its contract;
the exact SVD tail is the oracle throughout.
"""

import numpy as np
import pytest
import scipy.sparse

from optcur import linalg
from optcur.approx_svd import deterministic_svd, randomized_svd, sparse_svd
from optcur.sketch import make_sse

from conftest import lowrank_noise


def proj_residual_sq(a, z):
    a = np.asarray(a.toarray() if scipy.sparse.issparse(a) else a)
    return np.sum((a - (a @ z) @ z.T) ** 2)


def opt_sq(a, k):
    a = np.asarray(a.toarray() if scipy.sparse.issparse(a) else a)
    s = np.linalg.svd(a, compute_uv=False)
    return float(np.sum(s[k:] ** 2))


# ---------------------------------------------------------------------------
# deterministic


def test_deterministic_diagonal_picks_dominant_axis():
    a = np.diag([1.0, 5.0, 2.0])
    z = deterministic_svd(a, 1)
    assert np.allclose(np.abs(z.ravel()), [0.0, 1.0, 0.0], atol=1e-12)


def test_deterministic_exact_rank_k(rng):
    a = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 15))
    # k = rank is rejected; k just below rank leaves the smallest direction
    z = deterministic_svd(a, 3)
    s = np.linalg.svd(a, compute_uv=False)
    assert proj_residual_sq(a, z) == pytest.approx(s[3] ** 2, rel=1e-9)


def test_deterministic_bound_vs_oracle(rng):
    a = lowrank_noise(50, 40, 6, 0.3, rng)
    z = deterministic_svd(a, 3)
    assert proj_residual_sq(a, z) <= (1.0 + 1e-12) * opt_sq(a, 3)


def test_deterministic_rejects_k_at_rank(rng):
    a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
    with pytest.raises(ValueError):
        deterministic_svd(a, 3)
    with pytest.raises(ValueError):
        deterministic_svd(a, 0)


# ---------------------------------------------------------------------------
# randomized


def test_randomized_exact_rank_k_every_seed(rng):
    a = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 25))
    fro = np.sum(a * a)
    for seed in range(10):
        z = randomized_svd(a, 2, 0.5, np.random.default_rng(seed))
        assert proj_residual_sq(a, z) <= 1e-18 * fro


def test_randomized_mean_bound_monte_carlo():
    # mean residual over 500 seeds <= (1 + eps) opt + 3 standard errors
    rng0 = np.random.default_rng(31)
    a = lowrank_noise(80, 60, 4, 0.5, rng0)
    k, eps = 4, 0.5
    opt = opt_sq(a, k)
    vals = np.array([
        proj_residual_sq(a, randomized_svd(a, k, eps,
                                           np.random.default_rng(s)))
        for s in range(500)
    ])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert vals.mean() <= (1.0 + eps) * opt + 3.0 * se


def test_randomized_orthonormal_every_seed(rng):
    a = lowrank_noise(20, 15, 3, 0.2, rng)
    for seed in range(20):
        z = randomized_svd(a, 3, 0.5, np.random.default_rng(seed))
        assert z.shape == (15, 3)
        assert np.allclose(z.T @ z, np.eye(3), atol=1e-9)


def test_randomized_rejects_bad_args(rng):
    a = rng.standard_normal((10, 8))
    with pytest.raises(ValueError):
        randomized_svd(a, 0, 0.5, rng)  # k must be >= 1
    with pytest.raises(ValueError):
        randomized_svd(a, 8, 0.5, rng)
    with pytest.raises(ValueError):
        randomized_svd(a, 3, 0.0, rng)


# ---------------------------------------------------------------------------
# sparse


def test_sparse_exact_rank_k(rng):
    left = scipy.sparse.random(60, 3, density=0.4, random_state=1).toarray()
    right = scipy.sparse.random(3, 50, density=0.4, random_state=2).toarray()
    a = scipy.sparse.csr_matrix(left @ right)
    z = sparse_svd(a, 2, 0.5, np.random.default_rng(0))
    # k = 2 below the true rank 3; check bound, then exact capture at k = rank
    s = np.linalg.svd(a.toarray(), compute_uv=False)
    assert proj_residual_sq(a, z) <= (1.0 + 0.5) * np.sum(s[2:] ** 2) + 1e-9


def test_sparse_bound_monte_carlo():
    # 1000 x 800 at 1% fill, k=5, eps=0.5: bound holds in >= 85/100 seeds
    base = scipy.sparse.random(1000, 800, density=0.01, random_state=41,
                               format="csr")
    rng0 = np.random.default_rng(43)
    lr = rng0.standard_normal((1000, 5)) @ rng0.standard_normal((5, 800))
    mask = scipy.sparse.random(1000, 800, density=0.01, random_state=44,
                               format="csr")
    mask.data[:] = 1.0
    a = (base + mask.multiply(lr)).tocsr()
    k, eps = 5, 0.5
    opt = opt_sq(a, k)
    hits = 0
    for seed in range(100):
        z = sparse_svd(a, k, eps, np.random.default_rng(seed))
        hits += proj_residual_sq(a, z) <= (1.0 + eps) * opt
    assert hits >= 85


def test_sparse_width_and_orthonormality():
    a = scipy.sparse.random(40, 30, density=0.3, random_state=5, format="csr")
    z = sparse_svd(a, 4, 0.5, np.random.default_rng(1))
    assert z.shape == (30, 4)
    assert np.allclose(z.T @ z, np.eye(4), atol=1e-9)


# ---------------------------------------------------------------------------
# shared contract


@pytest.mark.parametrize("mode", ["deterministic", "randomized", "sparse"])
def test_residual_never_beats_svd(mode, rng):
    a = lowrank_noise(30, 24, 4, 0.4, rng)
    k = 3
    if mode == "deterministic":
        z = deterministic_svd(a, k)
    elif mode == "randomized":
        z = randomized_svd(a, k, 0.5, np.random.default_rng(7))
    else:
        z = sparse_svd(scipy.sparse.csr_matrix(a), k, 0.5,
                       np.random.default_rng(7))
    assert proj_residual_sq(a, z) >= opt_sq(a, k) - 1e-9


def test_sparse_sketch_branch_matches_dense_sketch():
    # the CountSketch product W A stays sparse; its top-k directions are
    # those of the dense W A
    a = scipy.sparse.random(2000, 500, density=0.01, random_state=9,
                            format="csr")
    k = 3
    z = sparse_svd(a, k, 1.0, np.random.default_rng(5))
    w = make_sse(2000, 40 * (k * k + k), np.random.default_rng(5))
    vt = np.linalg.svd((w.as_csr() @ a).toarray())[2]
    assert np.allclose(z @ z.T, vt[:k].T @ vt[:k], atol=1e-10)
