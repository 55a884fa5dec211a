"""Column/row scorers and selectors.

Three selection primitives:

* rand_sampling -- sampling with replacement from the squared-row-norm
  distribution of a tall-thin matrix (leverage-style scores), with the
  1/sqrt(p_i r) rescaling that makes the sampled Gram an unbiased estimate.
* bss_sampling -- the dual-set barrier greedy `dual_set_greedy`, on the
  squared row norms of a second set: <= r weighted indices keep sigma_k of
  one set bounded below and the Frobenius mass of the other bounded above.
* bss_sampling_sparse -- same greedy run on CountSketch-compressed dual
  vectors; an exported primitive that no pipeline calls.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg, sketch
from .linalg import _sq_norms, as_array
from .sketch import make_sse

_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class SamplingPair:
    """r index draws plus rescale factors: the pair (Omega, D).  Column j
    of the selection matrix S = Omega D is scales[j] e_{indices[j]}."""

    indices: np.ndarray  # r values in [0, n)
    scales: np.ndarray  # D_jj: 1 / sqrt(p_i r), or sqrt(w_j) for BSS

    def pick_rows(self, x):
        """D Omega^T X: the sampled, rescaled rows of X."""
        x = as_array(x)
        return x[self.indices] * self.scales[:, None]


def rand_sampling(x, r, rng):
    """Sample r rows of x with replacement, p_i = ||x_i||^2 / ||X||_F^2."""
    x = as_array(x)
    n, k = x.shape
    if not (n > k >= 1):
        raise ValueError("need n > k >= 1")
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    p = _sq_norms(x)
    total = p.sum()
    if total == 0.0:
        raise ValueError("all-zero matrix: sampling distribution undefined")
    p /= total
    idx = rng.choice(n, size=r, p=p)
    return SamplingPair(indices=idx, scales=1.0 / np.sqrt(p[idx] * r))


def bss_sampling(v, a, r):
    """Deterministic dual-set sparsification.

    v: n x k with orthonormal columns (sum of v_i v_i^T = I_k);
    a: n x l, the second set, read by `dual_set_greedy` as squared row norms;
    returns the r greedy steps as the pair (Omega, D) of S, column j of S
    being sqrt(w_j) e_{i_j} (<= r distinct indices), such that

        sigma_k(V^T S) >= 1 - sqrt(k/r)   and   ||A^T S||_F^2 <= ||A||_F^2.
    """
    a = as_array(a)
    return dual_set_greedy(v, _sq_norms(a), r)


def dual_set_greedy(v, anorms, r):
    """The barrier greedy of `bss_sampling` on `anorms`, the squared row
    norms of the second set: the rule every first stage of `cur` calls."""
    v = as_array(v)
    n, k = v.shape
    if anorms.shape[0] != n:
        raise ValueError("dual sets must have equal cardinality")
    if not k < r <= n:
        raise ValueError("need k < r <= n")
    if np.max(np.abs(v.T @ v - np.eye(k))) > _ORTHO_TOL:
        raise ValueError("V must have orthonormal columns")

    shrink = 1.0 - np.sqrt(k / r)
    delta_u = anorms.sum() / shrink
    if delta_u == 0.0:
        delta_u = 1.0  # all-zero dual set: upper potential is vacuous
    u_vals = anorms / delta_u

    sqrt_rk = np.sqrt(r * k)
    idx, ts = [], []
    m = np.zeros((k, k))
    for tau in range(r):
        low = tau - sqrt_rk
        lam, q = scipy.linalg.eigh(m)
        d0 = lam - low
        d1 = lam - (low + 1.0)
        if np.any(d1 <= 0.0):
            raise linalg.NumericalError("barrier invariant violated")
        dphi = np.sum(1.0 / d1) - np.sum(1.0 / d0)
        vq = v @ q
        vq2 = vq * vq
        num2 = vq2 @ (1.0 / (d1 * d1))
        num1 = vq2 @ (1.0 / d1)
        l_vals = num2 / dphi - num1
        admissible = np.flatnonzero((l_vals > 0.0) & (u_vals <= l_vals))
        if admissible.size == 0:
            raise linalg.NumericalError("no admissible index at step %d" % tau)
        i = int(admissible[0])
        t = 2.0 / (u_vals[i] + l_vals[i])
        idx.append(i)
        ts.append(t)
        m += t * np.outer(v[i], v[i])

    return SamplingPair(indices=np.array(idx, dtype=int),
                        scales=np.sqrt(np.array(ts) * (shrink / r)))


def bss_sampling_sparse(v, a, r, eps, rng):
    """Dual-set sparsification with the second set CountSketch-compressed.

    The greedy reads the a_i only through squared norms, so the sketch is
    applied bucket-compressed, to a block of the a_i at a time: identical
    norms, and memory bounded by one block of the occupied buckets even when
    the prescribed width is enormous.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    a = as_array(a)
    n, ell = a.shape
    xi = int(np.ceil(40.0 * n * n / (eps * eps)))
    w = sketch._compressed(make_sse(ell, xi, rng))
    return dual_set_greedy(v, _sq_norms(a, w), r)
