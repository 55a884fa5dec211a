"""Adaptive sampling: randomized, sketched, and derandomized variants.

Randomized bounds are expectation statements checked Monte-Carlo with an
exact projection oracle; derandomized bounds are guarantees asserted on
every instance.
"""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from optcur import adaptive, linalg, subspace

from conftest import lowrank_noise, random_orthonormal


def span_restricted_residual_sq(a, cols, k):
    """||A - Pi^F_{C,k}(A)||^2 via the exact subspace oracle."""
    if cols.shape[1] <= k:
        q = linalg.orthonormal_basis(cols)
        return np.sum(a * a) - np.sum((q.T @ a) ** 2)
    sf = subspace.best_subspace_svd(a, cols, k)
    core = sf.Delta.T @ (sf.Y.T @ a)
    return np.sum(a * a) - np.sum(core * core)


def row_projection_residual_sq(a, v, rows):
    """||A - V V^+ A R^+ R||^2 computed directly."""
    p = v @ (np.asarray(linalg.pinv(v)) @ a)
    rr = np.asarray(linalg.pinv(rows)) @ rows
    return np.sum((a - p @ rr) ** 2)


# ---------------------------------------------------------------------------
# randomized columns


def test_adaptive_cols_zero_residual_uniform(rng):
    a = rng.standard_normal((8, 10))
    dist = adaptive.residual_col_distribution(a, a)  # V spans col space
    assert dist.uniform_fallback
    assert np.allclose(dist.p, 1.0 / 10)
    idx = adaptive.adaptive_cols(a, a, 5, rng)
    assert len(idx) == 5 and np.all((idx >= 0) & (idx < 10))


def test_adaptive_cols_frequencies(rng):
    a = rng.standard_normal((6, 8))
    v = a[:, :2]
    dist = adaptive.residual_col_distribution(a, v)
    b = a - v @ (np.asarray(linalg.pinv(v)) @ a)
    expected = np.sum(b * b, axis=0)
    assert np.allclose(dist.p, expected / expected.sum(), atol=1e-9)
    idx = adaptive.adaptive_cols(a, v, 10 ** 5, np.random.default_rng(3))
    counts = np.bincount(idx, minlength=8)
    mask = dist.p > 1e-12
    _, pvalue = scipy.stats.chisquare(counts[mask],
                                      dist.p[mask] * counts[mask].sum()
                                      / dist.p[mask].sum())
    assert pvalue > 1e-4


def test_adaptive_cols_expectation_bound():
    # E||A - Pi^F_{C,k}(A)||^2 <= opt + (k / (alpha c2)) ||A - VV^+A||^2
    rng0 = np.random.default_rng(61)
    a = lowrank_noise(10, 10, 2, 0.6, rng0)
    k, c2 = 1, 4
    v = a[:, :2]
    resid_v = np.sum((a - v @ (np.asarray(linalg.pinv(v)) @ a)) ** 2)
    s = np.linalg.svd(a, compute_uv=False)
    bound = np.sum(s[k:] ** 2) + (k / (1.0 * c2)) * resid_v
    vals = []
    for trial in range(2000):
        idx = adaptive.adaptive_cols(a, v, c2, np.random.default_rng(trial))
        cols = np.hstack([v, a[:, idx]])
        vals.append(span_restricted_residual_sq(a, cols, k))
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert vals.mean() <= bound + 3.0 * se


# ---------------------------------------------------------------------------
# randomized rows: the column draws on A^T, as the pipeline's row phase runs


def test_adaptive_rows_zero_residual(rng):
    a = rng.standard_normal((9, 7))
    dist = adaptive.residual_col_distribution(a.T, a.T)  # R1 spans row space
    assert dist.uniform_fallback


def test_adaptive_rows_expectation_bound():
    # E||A - VV^+A R^+R||^2 <= ||A - VV^+A||^2 + (rho / r2) ||A - A R1^+R1||^2
    rng0 = np.random.default_rng(67)
    a = lowrank_noise(10, 12, 2, 0.5, rng0)
    r1, r2 = a[:2], 4
    v = np.asarray(linalg.truncate(linalg.svd(a), 2))  # V = A_k special case
    rho = linalg.svd(v).rank
    resid_v = np.sum((a - v @ (np.asarray(linalg.pinv(v)) @ a)) ** 2)
    resid_r = np.sum((a - a @ np.asarray(linalg.pinv(r1)) @ r1) ** 2)
    bound = resid_v + (rho / r2) * resid_r
    vals = []
    for trial in range(2000):
        idx = adaptive.adaptive_cols(a.T, r1.T, r2,
                                     np.random.default_rng(trial))
        rows = np.vstack([r1, a[idx]])
        vals.append(row_projection_residual_sq(a, v, rows))
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert vals.mean() <= bound + 3.0 * se


# ---------------------------------------------------------------------------
# sketched variants


def test_sketched_col_distribution_floor():
    # sketched probabilities >= (1/3) * exact in >= 99/100 seeds
    rng0 = np.random.default_rng(71)
    a = lowrank_noise(40, 40, 2, 0.5, rng0)
    v = a[:, :4]
    exact = adaptive.residual_col_distribution(a, v).p
    hits = 0
    for seed in range(100):
        p = adaptive.sketched_col_distribution(
            a, v, np.random.default_rng(seed)).p
        hits += np.all(p >= exact / 3.0 - 1e-12)
    assert hits >= 99


def test_sketched_row_distribution_floor():
    # the row form: the column form on A^T against R1^T
    rng0 = np.random.default_rng(73)
    a = lowrank_noise(40, 40, 2, 0.5, rng0)
    r1 = a[:4]
    exact = adaptive.residual_col_distribution(a.T, r1.T).p
    hits = 0
    for seed in range(100):
        p = adaptive.sketched_col_distribution(
            a.T, r1.T, np.random.default_rng(seed)).p
        hits += np.all(p >= exact / 3.0 - 1e-12)
    assert hits >= 99


def sketched_cols(a, v, c2, rng):
    """c2 draws from the sketched distribution, as the paper's sparse
    variant draws them."""
    p = adaptive.sketched_col_distribution(a, v, rng).p
    return rng.choice(p.shape[0], size=c2, p=p)


def test_sketched_cols_zero_residual(rng):
    a = rng.standard_normal((10, 8))
    idx = sketched_cols(a, a, 4, rng)
    assert len(idx) == 4


def test_sketched_cols_bound_monte_carlo():
    # constant-30 bound on 40 x 40, k=2, c2=20, success fraction >= 0.8
    rng0 = np.random.default_rng(79)
    a = lowrank_noise(40, 40, 3, 0.4, rng0)
    k, c2 = 2, 20
    v = a[:, :4]
    resid_v = np.sum((a - v @ (np.asarray(linalg.pinv(v)) @ a)) ** 2)
    s = np.linalg.svd(a, compute_uv=False)
    bound = np.sum(s[k:] ** 2) + (30.0 * k / c2) * resid_v
    hits = 0
    for seed in range(100):
        idx = sketched_cols(a, v, c2, np.random.default_rng(seed))
        cols = np.hstack([v, a[:, idx]])
        hits += span_restricted_residual_sq(a, cols, k) <= bound
    assert hits >= 80


# ---------------------------------------------------------------------------
# discretization and hashing


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10 ** 6))
def test_discretize_invariants(n, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(n))
    counts = adaptive.discretize(p)
    assert counts.dtype == np.int64
    assert counts.sum() == 4 * n
    q = counts / (4 * n)
    assert abs(q.sum() - 1.0) < 1e-12
    assert np.all(q >= p / 4.0 - 1e-12)
    assert q[np.argmax(p)] >= 0.25 - 1e-12


# ---------------------------------------------------------------------------
# derandomized variants


def family_oracle(a, v, r1, r2):
    """(draws, objective) of the first member of the hash family, in (a, b)
    order, minimizing the direct objective ||A - VV^+A R^+R||^2, and the
    objective of every member: the family enumerated one member at a time.
    """
    m = a.shape[0]
    cum = np.cumsum(adaptive.discretize(
        adaptive.residual_col_distribution(a.T, r1.T).p))
    p = adaptive._next_prime(4 * m)
    assert p >= 4 * m and all(p % f for f in range(2, p))
    xs = np.arange(r2)
    values, best, members = {}, None, 0
    for ha in range(p):
        for hb in range(p):
            idx = np.searchsorted(cum, ((ha * xs + hb) % p) % (4 * m),
                                  side="right")
            assert np.all((idx >= 0) & (idx < m))
            members += 1
            key = tuple(np.unique(idx))
            if key not in values:
                rows = np.vstack([r1, a[list(key)]])
                values[key] = row_projection_residual_sq(a, v, rows)
            if best is None or values[key] < best[1]:
                best = (idx, values[key])
    assert members == p * p
    return best, values


def picker_instance(case, seed):
    rng = np.random.default_rng(seed)
    if case == "rank3":
        a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10))
    else:
        a = lowrank_noise(12, 10, 2, 0.5, rng)
    if case == "dominant":
        a[6] *= 8.0  # most of the residual mass: the draws repeat
    if case == "duplicate":
        a[9] = a[4]
    v = np.asarray(linalg.truncate(linalg.svd(a), 2))
    return a, v, a[:2], 4


@pytest.mark.parametrize("case", ["noisy", "dominant", "duplicate", "rank3"])
def test_adaptive_rows_d_picks_first_family_minimizer(case):
    # the full hash family scored member by member, with the direct
    # objective: on distinct objectives the pick is exactly the oracle's
    # member; on exact ties (a duplicated row, or exact rank 3) any of the
    # equally good sets may win, within rounding
    for seed in range(3):
        a, v, r1, r2 = picker_instance(case, 4000 + seed)
        (want, best), values = family_oracle(a, v, r1, r2)
        got = adaptive.adaptive_rows_d(a, v, r1, r2)
        if case in ("noisy", "dominant"):
            assert np.array_equal(got, want)
        else:
            value = row_projection_residual_sq(a, v, np.vstack([r1, a[got]]))
            assert abs(value - best) <= 1e-9 * best
        assert got.shape == (r2,) and tuple(np.unique(got)) in values


def test_adaptive_rows_d_guaranteed_bound():
    # exact on 5 random instances here; the acceptance suite runs 20
    for trial in range(5):
        rng = np.random.default_rng(2000 + trial)
        a = lowrank_noise(12, 10, 2, 0.5, rng)
        r1, r2 = a[:2], 4
        v = np.asarray(linalg.truncate(linalg.svd(a), 2))
        rho = linalg.svd(v).rank
        resid_v = np.sum((a - v @ (np.asarray(linalg.pinv(v)) @ a)) ** 2)
        resid_r = np.sum((a - a @ np.asarray(linalg.pinv(r1)) @ r1) ** 2)
        idx = adaptive.adaptive_rows_d(a, v, r1, r2)
        rows = np.vstack([r1, a[idx]])
        achieved = row_projection_residual_sq(a, v, rows)
        assert achieved <= resid_v + (4.0 * rho / r2) * resid_r + 1e-9


def test_adaptive_rows_d_deterministic(rng):
    a = lowrank_noise(12, 10, 2, 0.5, rng)
    idx1 = adaptive.adaptive_rows_d(a, a[:, :3], a[:2], 3)
    idx2 = adaptive.adaptive_rows_d(a, a[:, :3], a[:2], 3)
    assert np.array_equal(idx1, idx2)


def test_adaptive_rows_d_zero_residual(rng):
    a = rng.standard_normal((3, 8))
    padded = np.vstack([a, a, a])  # row space spanned by the first 3 rows
    idx = adaptive.adaptive_rows_d(padded, padded[:, :2], a, 2)
    assert len(idx) == 2


def top_right_singvecs(a, k):
    """Z1 of the deterministic pipeline; with it as V, adaptive_rows_d on
    A^T selects columns against the target A Z1 Z1^T = A_k."""
    return linalg._top_k(a, k, vectors=True)[1]


def test_adaptive_cols_d_guaranteed_bound():
    for trial in range(5):
        rng = np.random.default_rng(3000 + trial)
        a = lowrank_noise(12, 10, 2, 0.5, rng)
        k, c2 = 1, 4
        v = a[:, :2]
        resid_v = np.sum((a - v @ (np.asarray(linalg.pinv(v)) @ a)) ** 2)
        s = np.linalg.svd(a, compute_uv=False)
        idx = adaptive.adaptive_rows_d(a.T, top_right_singvecs(a, k), v.T, c2)
        cols = np.hstack([v, a[:, idx]])
        achieved = span_restricted_residual_sq(a, cols, k)
        assert achieved <= np.sum(s[k:] ** 2) + (4.0 * k / c2) * resid_v + 1e-9


def test_adaptive_cols_d_exact_rank_k_recovery(rng):
    # rank-k A: the bound's right side collapses to the residual term only,
    # and adding c2 columns on top of a spanning V reproduces A exactly
    a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 10))
    v = a[:, :3]
    idx = adaptive.adaptive_rows_d(a.T, top_right_singvecs(a, 2), v.T, 2)
    cols = np.hstack([v, a[:, idx]])
    assert span_restricted_residual_sq(a, cols, 2) <= 1e-16 * np.sum(a * a)
