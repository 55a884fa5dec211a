"""Rank-k approximation within a column subspace, exact and sketched, plus
the closed-form rank-constrained intersection matrix."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from optcur import linalg
from optcur.subspace import (best_subspace_svd, approx_subspace_svd,
                             rank_constrained_u)

from conftest import lowrank_noise, random_orthonormal


def project(sf, a):
    """Y Delta Delta^T Y^T A, the rank-<=k approximation in span(V)."""
    b = sf.Y @ sf.Delta
    return b @ linalg._matmul(b.T, a)


def subspace_residual_sq(a, sf):
    return np.sum((linalg.as_array(a) - project(sf, a)) ** 2)


# ---------------------------------------------------------------------------
# best_subspace_svd


def test_factor_invariants(rng):
    a = lowrank_noise(20, 15, 3, 0.3, rng)
    v = a[:, :6]
    sf = best_subspace_svd(a, v, 2)
    assert np.allclose(sf.Y.T @ sf.Y, np.eye(6), atol=1e-10)
    assert np.allclose(sf.Delta.T @ sf.Delta, np.eye(2), atol=1e-10)
    assert np.allclose(sf.Y @ (sf.Y.T @ v), v, atol=1e-10)


def test_full_space_recovers_truncated_svd(rng):
    # V = A square full rank: the subspace-restricted optimum is A_k itself
    a = rng.standard_normal((12, 12))
    k = 3
    sf = best_subspace_svd(a, a, k)
    s = np.linalg.svd(a, compute_uv=False)
    assert subspace_residual_sq(a, sf) == pytest.approx(np.sum(s[k:] ** 2),
                                                        rel=1e-9)


def test_orthonormal_v_projection_stays_in_span(rng):
    a = lowrank_noise(15, 12, 4, 0.2, rng)
    v = random_orthonormal(15, 3, rng)
    sf = best_subspace_svd(a, v, 2)
    proj = project(sf, a)
    assert np.allclose(proj - v @ (v.T @ proj), 0.0, atol=1e-9)
    # and it is the best rank-2 approximation of the in-span part V V^T A
    s = np.linalg.svd(v.T @ a, compute_uv=False)
    in_span = v @ (v.T @ a)
    assert np.sum((in_span - proj) ** 2) == pytest.approx(np.sum(s[2:] ** 2),
                                                          rel=1e-9)


def test_projection_identity(rng):
    # Y Delta (Y Delta)^+ = Y Delta Delta^T Y^T for orthonormal factors
    a = lowrank_noise(20, 16, 3, 0.4, rng)
    sf = best_subspace_svd(a, a[:, :5], 2)
    b = sf.Y @ sf.Delta
    assert np.allclose(b @ np.asarray(linalg.pinv(b)),
                       b @ b.T, atol=1e-9)


def test_beats_random_rank_k_candidates():
    rng0 = np.random.default_rng(83)
    a = lowrank_noise(30, 20, 4, 0.5, rng0)
    v = a[:, :8]
    k = 3
    sf = best_subspace_svd(a, v, k)
    best = subspace_residual_sq(a, sf)
    q = linalg.orthonormal_basis(v)
    for _ in range(1000):
        # random rank-k candidate inside span(V)
        left = q @ rng0.standard_normal((q.shape[1], k))
        coeff = np.asarray(linalg.pinv(left)) @ a
        cand = np.sum((a - left @ coeff) ** 2)
        assert best <= cand + 1e-8 * best


def test_rank_deficient_v(rng):
    # duplicated columns: Y still spans range(V) and the projection stays
    # inside it
    a = lowrank_noise(15, 12, 3, 0.3, rng)
    v = np.hstack([a[:, :3], a[:, :2]])
    sf = best_subspace_svd(a, v, 2)
    proj = project(sf, a)
    q = linalg.orthonormal_basis(v)
    assert np.allclose(proj - q @ (q.T @ proj), 0.0, atol=1e-8)


def test_best_subspace_argument_errors(rng):
    a = rng.standard_normal((10, 8))
    with pytest.raises(ValueError):
        best_subspace_svd(a, a[:, :3], 3)  # k >= c
    with pytest.raises(ValueError):
        best_subspace_svd(a, a[:, :3], 0)


# ---------------------------------------------------------------------------
# approx_subspace_svd


def test_approx_exact_rank_k_inside_span(rng):
    a = rng.standard_normal((25, 3)) @ rng.standard_normal((3, 5000))
    v = a[:, :5]
    for seed in range(5):
        sf = approx_subspace_svd(a, v, 3, 1.0, np.random.default_rng(seed))
        assert sf.sketched  # width 40 c^2 = 1000 < n
        assert subspace_residual_sq(a, sf) <= 1e-9 * np.sum(a * a)


def test_approx_bound_monte_carlo():
    # 60 x 60, c=8, k=3, eps=0.5: (1 + eps) bound in >= 85/100 seeds, given
    # a subspace containing a good rank-k approximation
    rng0 = np.random.default_rng(89)
    a = lowrank_noise(60, 10300, 3, 0.05, rng0)  # n just above the sketch width
    k, eps = 3, 0.5
    v = np.hstack([np.asarray(linalg.truncate(linalg.svd(a), k))[:, :5],
                   a[:, :3]])
    s = np.linalg.svd(a, compute_uv=False)
    bound = (1.0 + eps) * np.sum(s[k:] ** 2)
    hits = 0
    for seed in range(100):
        sf = approx_subspace_svd(a, v, k, eps, np.random.default_rng(seed))
        assert sf.sketched
        assert np.allclose(sf.Delta.T @ sf.Delta, np.eye(k), atol=1e-9)
        hits += subspace_residual_sq(a, sf) <= bound
    assert hits >= 85


def test_approx_exact_path_when_sketch_cannot_compress(rng):
    # prescribed width >= n: falls back to the exact coefficients
    a = lowrank_noise(20, 15, 3, 0.3, rng)
    sf_a = approx_subspace_svd(a, a[:, :5], 2, 0.5, rng)
    sf_b = best_subspace_svd(a, a[:, :5], 2)
    assert not sf_a.sketched
    assert subspace_residual_sq(a, sf_a) == pytest.approx(
        subspace_residual_sq(a, sf_b), rel=1e-12)


# ---------------------------------------------------------------------------
# rank_constrained_u


def test_u_exact_for_invertible_square(rng):
    a = rng.standard_normal((5, 5))
    u = rank_constrained_u(a, a, a, 5)
    assert np.allclose(a @ u @ a, a, atol=1e-8)


def test_u_rank_bounded(rng):
    a = lowrank_noise(12, 10, 4, 0.5, rng)
    c = a[:, :5]
    r = a[:4]
    u = rank_constrained_u(a, c, r, 2)
    assert np.linalg.matrix_rank(u, tol=1e-10) <= 2


def test_u_beats_random_rank_k():
    rng0 = np.random.default_rng(97)
    a = lowrank_noise(12, 10, 3, 0.5, rng0)
    c, r, k = a[:, :5], a[:4], 2
    u = rank_constrained_u(a, c, r, k)
    err = np.sum((a - c @ u @ r) ** 2)
    for _ in range(1000):
        rand_u = rng0.standard_normal((5, k)) @ rng0.standard_normal((k, 4))
        assert err <= np.sum((a - c @ rand_u @ r) ** 2) + 1e-9


def test_u_rejects_large_k(rng):
    a = rng.standard_normal((6, 6))
    with pytest.raises(ValueError):
        rank_constrained_u(a, a[:, :3], a[:2], 3)


@pytest.mark.parametrize("n", [40, 2000])
def test_core_map_is_minimum_norm_on_deficient_v(rng, n):
    # duplicate and zero columns: M is the minimum-norm map with
    # V M = Y Delta, for the exact and (at n = 2000) the sketched solver
    a = lowrank_noise(25, n, 4, 0.3, rng)
    v = np.hstack([a[:, :3], a[:, 1:2], np.zeros((25, 1)), a[:, :1]])
    for sf in (best_subspace_svd(a, v, 2),
               approx_subspace_svd(a, v, 2, 1.0, np.random.default_rng(1))):
        target = sf.Y @ sf.Delta
        assert np.allclose(v @ sf.M, target, atol=1e-10)
        assert np.allclose(sf.M, np.linalg.pinv(v) @ target, atol=1e-10)
    assert sf.sketched == (n == 2000)


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_delta_from_operator_matches_explicit_coefficients(kind):
    # c = 420 > 400: Delta comes from ARPACK on A^T Y, never forming Y^T A
    rng0 = np.random.default_rng(101)
    a = lowrank_noise(600, 500, 5, 0.1, rng0)
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    v = a[:, :420]
    sf = best_subspace_svd(x, v, 3)
    u = np.linalg.svd(sf.Y.T @ a)[0][:, :3]
    assert np.allclose(sf.Delta @ sf.Delta.T, u @ u.T, atol=1e-10)
    assert np.allclose(v @ sf.M, sf.Y @ sf.Delta, atol=1e-10)


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize("shape", ["tall", "square", "wide", "zero_v"])
def test_delta_from_the_triangle_matches_the_coefficients(shape, kind):
    # A^T Y, held densely, reaches _top_k as its QR triangle, which has the
    # same right singular vectors
    rng = np.random.default_rng(103)
    n, c = {"tall": (60, 10), "square": (20, 20), "wide": (10, 30),
            "zero_v": (40, 6)}[shape]
    a = lowrank_noise(80, n, 4, 0.3, rng)
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    v = rng.standard_normal((80, c)) * (shape != "zero_v")
    sf = best_subspace_svd(x, v, 3)
    at_y = linalg._matmul(sf.Y.T, x).T
    ref = linalg._top_k(at_y, sf.Delta.shape[1], vectors=True)[1]
    assert at_y.shape == (n, 1 if shape == "zero_v" else c)
    assert np.abs(sf.Delta @ sf.Delta.T - ref @ ref.T).max() <= 1e-12


def test_operator_path_forms_no_y():
    # rho = 450 > 400: ARPACK applies Q from the reflectors, so Y is formed
    # only when read, and then with the bits of _basis
    rng0 = np.random.default_rng(107)
    a = lowrank_noise(2000, 600, 5, 0.1, rng0)
    v = np.asfortranarray(a[:, :450])
    best_subspace_svd(a, v, 3)  # warm-up: the first call allocates more
    tracemalloc.start()
    try:
        sf = best_subspace_svd(a, v, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "Y" not in sf.__dict__
    assert peak <= 1.6 * v.nbytes  # H and R; a formed Y would add v.nbytes
    assert np.array_equal(sf.Y, linalg._basis(v)[0])
    assert np.abs(sf.Z2 - sf.Y @ sf.Delta).max() <= 1e-13


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_operator_path_on_a_rank_deficient_set(kind):
    # 440 columns, 430 distinct and nonzero: rho = 430 > 400, so ARPACK
    # applies Q [U_B x; 0] and its transpose, never forming Y
    rng0 = np.random.default_rng(109)
    a = lowrank_noise(700, 500, 5, 0.1, rng0)
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    v = np.hstack([a[:, :430], a[:, 3:12], np.zeros((700, 1))])
    v = v[:, rng0.permutation(440)]
    sf = best_subspace_svd(x, v, 3)
    assert "Y" not in sf.__dict__ and sf.Y.shape == (700, 430)
    u = np.linalg.svd(sf.Y.T @ a)[0][:, :3]
    assert np.abs(sf.Delta @ sf.Delta.T - u @ u.T).max() <= 1e-10
    assert np.abs(v @ sf.M - sf.Z2).max() <= 1e-10
    assert np.abs(sf.M - np.linalg.pinv(v) @ sf.Z2).max() <= 1e-10
    assert np.abs(sf.Z2 - sf.Y @ sf.Delta).max() <= 1e-13
