"""Adversarial instance generator and brute-force column-subset oracles.

The hard instance is block-diagonal: k copies of the near-rank-1 block
D = [e_1 + (alpha/sqrt(k)) e_{i+1}]_i down the diagonal, and the transpose
arrangement mirrored, so that no small column subset can capture the top
singular directions on both sides simultaneously.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import subspace
from .linalg import as_array


@dataclass(frozen=True)
class AdversarialInstance:
    n: int
    k: int
    alpha: float
    A: np.ndarray  # t x t
    D: np.ndarray  # (n+1) x n block
    B: np.ndarray  # k diagonal copies of D
    t: int
    ell: int  # n * k
    opt_sq: float  # ell * (1 + 2 alpha^2 / k)


def gen_adversarial(n, k, alpha=1e-10):
    """Instance where every c-column CUR pays a 1 + k/(2c) error factor."""
    if n <= 1 or k < 1 or not 0 < alpha < np.inf:
        raise ValueError("need n > 1, k >= 1, finite alpha > 0")
    d = np.zeros((n + 1, n))
    d[0, :] = 1.0
    d[np.arange(1, n + 1), np.arange(n)] = alpha / np.sqrt(k)
    b = scipy.linalg.block_diag(*([d] * k))
    a = scipy.linalg.block_diag(b, b.T)
    ell = n * k
    return AdversarialInstance(
        n=n, k=k, alpha=float(alpha), A=a, D=d, B=b, t=(2 * n + 1) * k,
        ell=ell, opt_sq=ell * (1.0 + 2.0 * alpha * alpha / k))


def span_restricted_residual_sq(a, c, k):
    """||A - Pi^F_{C,k}(A)||_F^2: best rank-k approximation within span(C)."""
    a = as_array(a)
    c = as_array(c)
    sf = subspace._factor(a, c, k)
    core = sf.Z2.T @ a if c.any() else 0.0
    return float(np.sum(a * a) - np.sum(core * core))


def brute_force_best_columns(a, c, k, budget=10 ** 6):
    """Exact minimum of the span-restricted residual over all c-subsets."""
    a = as_array(a)
    n = a.shape[1]
    if math.comb(n, c) > budget:
        raise ValueError("search space %d exceeds budget %d"
                         % (math.comb(n, c), budget))
    best = None
    for subset in itertools.combinations(range(n), c):
        res = span_restricted_residual_sq(a, a[:, subset], k)
        if best is None or res < best[1]:
            best = (subset, res)
    return best
