"""Adaptive sampling: residual-norm column/row selection.

Randomized variants draw indices with probabilities proportional to squared
residual norms after projecting out an already-selected subspace.  Sparse
variants estimate those norms from a sign-sketched residual without ever
forming it.  Derandomized variants replace the i.i.d. draw by enumerating a
pairwise-independent hash family over a discretized distribution and keeping
the candidate set minimizing the true objective, which turns the expectation
bound into a guarantee.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import _col_sq_norms, _matmul, as_array
from .sketch import jlt_rows, make_sign_sketch

_ZERO_RTOL = 1e-13


@dataclass(frozen=True)
class ResidualDistribution:
    p: np.ndarray  # sums to 1
    alpha: float  # guaranteed floor factor vs the exact residual distribution
    uniform_fallback: bool  # residual was (numerically) zero


@dataclass(frozen=True)
class DiscreteDistribution:
    """p discretized to multiples of 1/(4n), except at the mode i*."""

    q: np.ndarray
    counts: np.ndarray  # integer grid counts, sum = 4n
    i_star: int
    grid: int  # 4n


@dataclass(frozen=True)
class PairwiseHashFamily:
    """h_{a,b}(x) = ((a x + b) mod p_hash) mod range, (a, b) in Z_p^2."""

    p_hash: int
    range: int


def _normalize(sq_norms, total_ref):
    """Residual mass to a distribution; uniform when numerically zero."""
    sq = np.clip(sq_norms, 0.0, None)
    total = sq.sum()
    if total <= _ZERO_RTOL * total_ref:
        n = sq.shape[0]
        return np.full(n, 1.0 / n), True
    return sq / total, False


def residual_col_distribution(a, v):
    """Exact column distribution of B = A - V V^+ A, via the Pythagorean split
    ||b_j||^2 = ||a_j||^2 - ||Q^T a_j||^2 with Q an orthonormal basis of V."""
    q = linalg.orthonormal_basis(v)
    proj = _matmul(q.T, a)
    sq = _col_sq_norms(a) - np.sum(proj * proj, axis=0)
    p, fallback = _normalize(sq, linalg.frobenius_sq(a))
    return ResidualDistribution(p=p, alpha=1.0, uniform_fallback=fallback)


def sketched_col_distribution(a, v, rng):
    """Column distribution of the sketched residual S A - (S V)(V^+ A).

    Never forms the m x n residual; the sketch preserves each column norm
    within [1/2, 3/2] w.p. 1 - 1/n, giving the 1/3 probability floor.
    """
    m, n = np.shape(a)
    s = make_sign_sketch(jlt_rows(n, 1.0), m, rng)
    v = as_array(v)
    vpa = _matmul(linalg.pinv(v), a)
    bt = _matmul(s.S, a) - (s.S @ v) @ vpa
    p, fallback = _normalize(np.sum(bt * bt, axis=0), linalg.frobenius_sq(a))
    return ResidualDistribution(p=p, alpha=1.0 / 3.0, uniform_fallback=fallback)


def _draw(dist, count, rng):
    return rng.choice(dist.p.shape[0], size=count, p=dist.p)


def adaptive_cols(a, v, c2, rng):
    """c2 i.i.d. column draws with probabilities exactly proportional to the
    squared residual column norms of A vs span(V)."""
    if c2 < 1:
        raise ValueError("c2 must be >= 1")
    return _draw(residual_col_distribution(a, v), c2, rng)


def adaptive_cols_sparse(a, v, c2, rng):
    """Column draws from the JLT-sketched residual; nnz-time, no m x n buffer."""
    if c2 < 1:
        raise ValueError("c2 must be >= 1")
    return _draw(sketched_col_distribution(a, v, rng), c2, rng)

# ---------------------------------------------------------------------------
# derandomized variants


def discretize(p):
    """Round p to the 1/(4n) grid: half the mass stays put at the mode i*,
    every other mass is halved then rounded up, corrections charged to i*."""
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    grid = 4 * n
    i_star = int(np.argmax(p))
    counts = np.ceil(p * (grid / 2.0) - 1e-12).astype(np.int64)
    counts[i_star] = 0
    counts[i_star] = grid - counts.sum()
    if counts[i_star] < grid // 4:
        raise linalg.NumericalError("mode mass fell below 1/4 after rounding")
    return DiscreteDistribution(q=counts / grid, counts=counts,
                                i_star=i_star, grid=grid)


def _next_prime(x):
    def is_prime(v):
        if v < 2:
            return False
        f = 2
        while f * f <= v:
            if v % f == 0:
                return False
            f += 1
        return True

    while not is_prime(x):
        x += 1
    return x


def hash_family(n):
    return PairwiseHashFamily(p_hash=_next_prime(4 * n), range=4 * n)


def family_candidates(fam, disc, draws):
    """Yield (a, b, indices): the draws of each family member, inverse-CDF
    mapped through the discretized distribution on an exact integer grid."""
    cum = np.cumsum(disc.counts)
    xs = np.arange(draws, dtype=np.int64)
    p = fam.p_hash
    for a in range(p):
        ax = (a * xs) % p
        for b in range(p):
            g = ((ax + b) % p) % fam.range
            yield a, b, np.searchsorted(cum, g, side="right")


def projection_objective(a, p_va, rows):
    """||A - (V V^+ A) R^+ R||_F^2 given the precomputed P = V V^+ A and the
    row block R, via the orthonormal row-space factor of R."""
    a = as_array(a)
    q = linalg.orthonormal_basis(rows.T)  # R^+ R = Q Q^T
    aq = a @ q
    pq = p_va @ q
    return np.sum(a * a) - 2.0 * np.sum(aq * pq) + np.sum(pq * pq)


def adaptive_rows_d(a, v, r1, r2):
    """Deterministic row selection with the guaranteed bound

        ||A - VV^+A R^+R||^2 <= ||A - VV^+A||^2 + (4 rho / r2)||A - A R1^+R1||^2

    achieved by minimizing the true objective over the full hash family.
    """
    a = as_array(a)
    r1 = as_array(r1)
    m = a.shape[0]
    if not 1 <= r2 <= m:
        raise ValueError("need 1 <= r2 <= m")
    dist = residual_col_distribution(a.T, r1.T)  # the rows of A - A R1^+ R1
    if dist.uniform_fallback:
        return np.arange(r2)
    qv = linalg.orthonormal_basis(as_array(v))
    p_va = qv @ (qv.T @ a)
    disc = discretize(dist.p)
    fam = hash_family(m)
    cache = {}
    best = None
    for ha, hb, idx in family_candidates(fam, disc, r2):
        key = frozenset(idx.tolist())
        val = cache.get(key)
        if val is None:
            rows = np.vstack([r1, a[idx]])
            val = projection_objective(a, p_va, rows)
            cache[key] = val
        if best is None or val < best[0]:
            best = (val, idx)
    return best[1]
