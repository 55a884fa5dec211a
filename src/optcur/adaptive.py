"""Adaptive sampling: residual-norm column/row selection.

Randomized variants draw indices with probabilities exactly proportional to
squared residual norms against an already-selected subspace V, in nnz(A)
rank(V) time on sparse A: the cost of V^+ A alone in the sign-sketched
estimate `sketched_col_distribution` (floor 1/3), which no pipeline calls.
The derandomized variant keeps the first member of a pairwise-independent
hash family over a discretized distribution that minimizes the true
objective, so the expectation bound becomes a guarantee.  Its only
set-dependent term is tr(K_SS^+ H_SS), for two Gram matrices formed once,
so one batch scores the members sharing a hash coefficient.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import _matmul, _operand, _sq_norms, as_array
from .sketch import jlt_rows, make_sign_sketch

_ZERO_RTOL = 1e-13


@dataclass(frozen=True)
class ResidualDistribution:
    p: np.ndarray  # sums to 1
    uniform_fallback: bool  # residual was (numerically) zero


def _distribution(sq_norms, a):
    """Residual column mass to a distribution; uniform when numerically 0."""
    sq = np.clip(sq_norms, 0.0, None)
    total = sq.sum()
    if total <= _ZERO_RTOL * linalg.frobenius_sq(a):
        return ResidualDistribution(np.full(sq.size, 1 / sq.size), True)
    return ResidualDistribution(sq / total, False)


def residual_col_distribution(a, v):
    """Exact column distribution of B = A - V V^+ A, via the Pythagorean split
    ||b_j||^2 = ||a_j||^2 - ||Q^T a_j||^2 with Q an orthonormal basis of V."""
    return _residual_distribution(a, linalg.orthonormal_basis(v))


def _residual_distribution(a, q):
    """`residual_col_distribution` given the orthonormal basis Q of V."""
    proj = _matmul(q.T, a)
    sq = _sq_norms(_operand(a).T) - _sq_norms(proj.T)
    return _distribution(sq, a)


def sketched_col_distribution(a, v, rng):
    """Column distribution of the sketched residual S A - (S V)(V^+ A).

    Never forms the m x n residual; the sketch preserves each column norm
    within [1/2, 3/2] w.p. 1 - 1/n, giving the 1/3 probability floor.
    """
    m, n = np.shape(a)
    s = make_sign_sketch(jlt_rows(n), m, rng)
    v = as_array(v)
    vpa = _matmul(linalg.pinv(v), a)
    bt = _matmul(s.S, a) - (s.S @ v) @ vpa
    return _distribution(_sq_norms(bt.T), a)


def adaptive_cols(a, v, c2, rng):
    """c2 i.i.d. column draws with probabilities exactly proportional to the
    squared residual column norms of A vs span(V); dense or sparse A."""
    if c2 < 1:
        raise ValueError("c2 must be >= 1")
    p = residual_col_distribution(a, v).p
    return rng.choice(p.shape[0], size=c2, p=p)


# ---------------------------------------------------------------------------
# derandomized variants


def discretize(p):
    """p on the 1/(4n) grid, as integer counts summing to 4n: half the mass
    stays put at the mode i*, every other mass is halved then rounded up,
    corrections charged to i*, which must keep at least n."""
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    grid = 4 * n
    i_star = int(np.argmax(p))
    counts = np.ceil(p * (grid / 2.0) - 1e-12).astype(np.int64)
    counts[i_star] = 0
    counts[i_star] = grid - counts.sum()
    if counts[i_star] < grid // 4:
        raise linalg.NumericalError("mode mass fell below 1/4 after rounding")
    return counts


def _next_prime(x):
    while x < 2 or any(x % f == 0 for f in range(2, math.isqrt(x) + 1)):
        x += 1
    return x


def adaptive_rows_d(a, v, r1, r2):
    """Deterministic row selection with the guaranteed bound

        ||A - VV^+A R^+R||^2 <= ||A - VV^+A||^2 + (4 rho / r2)||A - A R1^+R1||^2

    achieved by minimizing the true objective over the full hash family
    h_{a,b}(x) = ((a x + b) mod p) mod 4m, (a, b) in Z_p^2, p the least prime
    >= 4m: member (a, b) draws rows h_{a,b}(0), ..., h_{a,b}(r2 - 1) through
    the discretized residual distribution.

    With B = Q_V^T A, Q1 the row basis of R1 and E = A - A Q1 Q1^T, the
    objective of the rows S is ||A||^2 - ||B Q1||^2 - tr(K_SS^+ H_SS), where
    K = E E^T and H = E B^T B E^T.  So the first member in (a, b) order with
    the strictly largest gain tr(K_SS^+ H_SS) wins.  One pass per a scores
    its p members with one batched eigh of the K_SS; S is the sorted distinct
    draws padded with a zero row of E, so equal sets get equal bits.  H is
    of degree 4 in A, so A and R1 are first scaled by a power of two.
    """
    a = as_array(a)
    m, n = a.shape
    if not 1 <= r2 <= m:
        raise ValueError("need 1 <= r2 <= m")
    shift = -np.frexp(np.max(np.abs(a)))[1]
    a, r1 = np.ldexp(a, shift), np.ldexp(as_array(r1), shift)
    q1 = linalg.orthonormal_basis(r1.T)
    dist = _residual_distribution(a.T, q1)  # the rows of A - A R1^+ R1
    if dist.uniform_fallback:
        return np.arange(r2)
    e = np.vstack([a - (a @ q1) @ q1.T, np.zeros((1, n))])
    g = e @ (linalg.orthonormal_basis(as_array(v)).T @ a).T
    k, h = e @ e.T, g @ g.T
    cum = np.cumsum(discretize(dist.p))
    p = _next_prime(4 * m)
    xs, bs = np.arange(r2), np.arange(p)[:, None]
    best = None
    for ha in range(p):
        draws = np.searchsorted(cum, (ha * xs + bs) % p % (4 * m), side="right")
        s = np.sort(draws, axis=1)
        s[:, 1:][s[:, 1:] == s[:, :-1]] = m
        s.sort(axis=1)
        ss = (s[:, :, None], s[:, None, :])
        lam, w = np.linalg.eigh(k[ss])
        lam[lam <= max(m, n) * linalg.RANK_RTOL * lam[:, -1:]] = np.inf
        gain = np.sum(np.sum(w * (h[ss] @ w), axis=1) / lam, axis=1)
        j = int(np.argmax(gain))
        if best is None or gain[j] > best[0]:
            best = (gain[j], draws[j])
    return best[1]
