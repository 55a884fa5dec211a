"""Column/row selection primitives: leverage-style sampling with replacement
and the deterministic dual-set barrier greedy (plus its sketched variant).
"""

import numpy as np
import pytest
import scipy.stats

from optcur import sketch, subset_select
from optcur.subset_select import (rand_sampling, bss_sampling,
                                  bss_sampling_sparse)

from conftest import random_orthonormal


# ---------------------------------------------------------------------------
# rand_sampling


def test_rand_sampling_single_nonzero_row():
    x = np.zeros((6, 2))
    x[3] = [1.0, 2.0]
    pair = rand_sampling(x, 4, np.random.default_rng(0))
    assert np.all(pair.indices == 3)
    assert np.allclose(pair.scales, 1.0 / np.sqrt(4))


def test_rand_sampling_probability_formula(rng):
    x = rng.standard_normal((10, 3))
    pair = rand_sampling(x, 5, rng)
    lev = np.sum(x * x, axis=1)
    probs = lev / lev.sum()
    assert np.allclose(pair.scales, 1.0 / np.sqrt(probs[pair.indices] * 5),
                       rtol=1e-12)


def test_rand_sampling_reproducible(rng):
    x = rng.standard_normal((20, 2))
    p1 = rand_sampling(x, 8, np.random.default_rng(5))
    p2 = rand_sampling(x, 8, np.random.default_rng(5))
    assert np.array_equal(p1.indices, p2.indices)
    assert np.array_equal(p1.scales, p2.scales)


def test_rand_sampling_frequencies_chi2(rng):
    # 10^5 draws accumulated over repeated calls (r is capped at n per call)
    x = rng.standard_normal((200, 2))
    gen = np.random.default_rng(7)
    counts = np.zeros(200, dtype=int)
    for _ in range(500):
        pair = rand_sampling(x, 200, gen)
        counts += np.bincount(pair.indices, minlength=200)
    lev = np.sum(x * x, axis=1)
    probs = lev / lev.sum()
    _, pvalue = scipy.stats.chisquare(counts, probs * counts.sum())
    assert pvalue > 1e-4


def test_rand_sampling_leverage_singular_value_floor():
    # orthonormal V (200 x 3), r = ceil(16 k ln 20k): sigma_k^2 of the
    # sampled, rescaled factor >= 1/2 in >= 85/100 seeds
    k = 3
    v = random_orthonormal(200, k, np.random.default_rng(11))
    r = int(np.ceil(16.0 * k * np.log(20.0 * k)))
    hits = 0
    for seed in range(100):
        pair = rand_sampling(v, r, np.random.default_rng(seed))
        s = np.linalg.svd(pair.pick_rows(v), compute_uv=False)
        hits += s[k - 1] ** 2 >= 0.5
    assert hits >= 85


def test_rand_sampling_frobenius_inflation():
    # ||Y Omega D||_F^2 <= 10 ||Y||_F^2 in >= 85/100 seeds
    rng0 = np.random.default_rng(13)
    x = rng0.standard_normal((150, 3))
    y = rng0.standard_normal((40, 150))
    fro = np.sum(y * y)
    hits = 0
    for seed in range(100):
        pair = rand_sampling(x, 20, np.random.default_rng(seed))
        yod = y[:, pair.indices] * pair.scales
        hits += np.sum(yod * yod) <= 10.0 * fro
    assert hits >= 85


def test_rand_sampling_argument_errors(rng):
    with pytest.raises(ValueError):
        rand_sampling(np.zeros((5, 2)), 3, rng)  # all-zero
    x = rng.standard_normal((5, 2))
    with pytest.raises(ValueError):
        rand_sampling(x, 0, rng)
    with pytest.raises(ValueError):
        rand_sampling(x, 6, rng)
    with pytest.raises(ValueError):
        rand_sampling(x.T, 2, rng)  # n <= k


# ---------------------------------------------------------------------------
# bss_sampling


def bss_contract(v, a, sel, r):
    k = v.shape[1]
    s_vals = np.linalg.svd(sel.pick_rows(v), compute_uv=False)
    spectral_ok = s_vals[k - 1] >= 1.0 - np.sqrt(k / r) - 1e-9
    ats = sel.pick_rows(a)
    frob_ok = np.sum(ats * ats) <= np.sum(a * a) + 1e-9
    return spectral_ok, frob_ok


def test_bss_tiny_example():
    # V = (1/2) * ones(4, 1), A = I_4, r = 4
    v = np.full((4, 1), 0.5)
    a = np.eye(4)
    sel = bss_sampling(v, a, 4)
    s1 = np.linalg.svd(sel.pick_rows(v), compute_uv=False)[0]
    assert s1 >= 0.5 - 1e-12
    ats = sel.pick_rows(a)
    assert np.sum(ats * ats) <= 4.0 + 1e-12


def test_bss_nonzero_count_bounded(rng):
    v = random_orthonormal(25, 3, rng)
    a = rng.standard_normal((25, 7))
    sel = bss_sampling(v, a, 8)
    assert np.unique(sel.indices).size <= 8
    assert np.all(sel.scales >= 0)
    assert len(sel.indices) == len(sel.scales) == 8


def test_bss_contract_random_instances():
    # deterministic contract on 30 random (V, A, r) draws
    for trial in range(30):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(10, 120))
        k = int(rng.integers(1, 6))
        r = int(rng.integers(k + 1, 4 * k + 1))
        v = random_orthonormal(n, k, rng)
        a = rng.standard_normal((n, int(rng.integers(1, 12))))
        sel = bss_sampling(v, a, r)
        spectral_ok, frob_ok = bss_contract(v, a, sel, r)
        assert spectral_ok and frob_ok, "failed on trial %d" % trial


def test_bss_identity_rows_cover_support(rng):
    # V = k rows of the identity: sigma_k > 0 forces weight on the support
    n, k = 10, 3
    v = np.zeros((n, k))
    support = [1, 4, 7]
    v[support, range(k)] = 1.0
    sel = bss_sampling(v, rng.standard_normal((n, 2)), 2 * k)
    assert set(support) <= set(sel.indices.tolist())


def test_bss_deterministic(rng):
    v = random_orthonormal(20, 2, rng)
    a = rng.standard_normal((20, 3))
    s1 = bss_sampling(v, a, 6)
    s2 = bss_sampling(v, a, 6)
    assert np.array_equal(s1.indices, s2.indices)
    assert s1.scales.tobytes() == s2.scales.tobytes()


def test_bss_argument_errors(rng):
    v = random_orthonormal(10, 2, rng)
    a = rng.standard_normal((10, 3))
    with pytest.raises(ValueError):
        bss_sampling(v, a, 2)  # r <= k
    with pytest.raises(ValueError):
        bss_sampling(v, a[:8], 4)  # cardinality mismatch
    with pytest.raises(ValueError):
        bss_sampling(rng.standard_normal((10, 2)), a, 4)  # not orthonormal


# ---------------------------------------------------------------------------
# bss_sampling_sparse


def test_bss_sparse_spectral_every_seed():
    rng0 = np.random.default_rng(55)
    v = random_orthonormal(30, 3, rng0)
    a = rng0.standard_normal((30, 500))
    for seed in range(20):
        sel = bss_sampling_sparse(v, a, 8, 0.5, np.random.default_rng(seed))
        s = np.linalg.svd(sel.pick_rows(v), compute_uv=False)
        assert s[2] >= 1.0 - np.sqrt(3.0 / 8.0) - 1e-9


def test_bss_sparse_frobenius_inflation():
    # ||A^T S||^2 <= 3 ||A||^2 in >= 95/100 seeds at eps = 0.5
    rng0 = np.random.default_rng(57)
    v = random_orthonormal(30, 3, rng0)
    a = rng0.standard_normal((30, 500))
    fro = np.sum(a * a)
    hits = 0
    for seed in range(100):
        sel = bss_sampling_sparse(v, a, 8, 0.5, np.random.default_rng(seed))
        ats = sel.pick_rows(a)
        hits += np.sum(ats * ats) <= 3.0 * fro
    assert hits >= 95


def test_bss_sparse_rejects_bad_eps(rng):
    v = random_orthonormal(10, 2, rng)
    a = rng.standard_normal((10, 20))
    with pytest.raises(ValueError):
        bss_sampling_sparse(v, a, 4, 1.0, rng)


@pytest.mark.parametrize("shape", [(7, 100_000), (365, 2000), (1, 70_000)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_blocked_norms_keep_the_whole_array_bits(shape, order):
    # rows wider than a block, and a remainder of one row, must not switch a
    # block to another summation order than np.sum over the whole array
    a = np.asarray(np.random.default_rng(59).standard_normal(shape),
                   order=order)
    assert np.array_equal(subset_select._sq_norms(a), np.sum(a * a, axis=1))
    w = sketch._compressed(sketch.make_sse(shape[1], 10 ** 9,
                                           np.random.default_rng(61)))
    x = (w @ a.T).T
    assert np.array_equal(subset_select._sq_norms(a, w), np.sum(x * x, axis=1))
