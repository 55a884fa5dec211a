"""Column/row scorers and selectors.

Three selection primitives:

* rand_sampling -- sampling with replacement from the squared-row-norm
  distribution of a tall-thin matrix (leverage-style scores), with the
  1/sqrt(p_i r) rescaling that makes the sampled Gram an unbiased estimate.
* bss_sampling -- the deterministic dual-set barrier greedy: picks <= r
  weighted indices keeping sigma_k of one vector set bounded below while the
  Frobenius mass of a second set stays bounded above.
* bss_sampling_sparse -- same greedy run on CountSketch-compressed dual
  vectors, so the cost depends on the sketch, not the ambient dimension.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .linalg import as_array
from .sketch import make_sse, apply_sse_compressed

_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class SamplingPair:
    """r index draws plus rescale factors: the pair (Omega, D)."""

    indices: np.ndarray  # r values in [0, n)
    scales: np.ndarray  # D_jj = 1 / sqrt(p_i * r)
    probs: np.ndarray  # the distribution sampled from

    def pick_rows(self, x):
        """D Omega^T X: the sampled, rescaled rows of X."""
        x = as_array(x)
        return x[self.indices] * self.scales[:, None]


@dataclass(frozen=True)
class WeightedSelection:
    """The r greedy steps of S: column j of S is sqrt(w_j) e_{i_j}."""

    steps: tuple  # ((index, weight_added), ...) in greedy order, rescaled
    r: int

    def stepped(self):
        """(indices, sqrt-weights) of the greedy steps: S one column a step."""
        idx = np.array([i for i, _ in self.steps], dtype=int)
        return idx, np.sqrt(np.array([t for _, t in self.steps]))

    def pick_rows(self, x):
        """S^T X: rows of X at the stepped indices, sqrt-weight scaled."""
        idx, w = self.stepped()
        return as_array(x)[idx] * w[:, None]


def rand_sampling(x, r, rng):
    """Sample r rows of x with replacement, p_i = ||x_i||^2 / ||X||_F^2."""
    x = as_array(x)
    n, k = x.shape
    if not (n > k >= 1):
        raise ValueError("need n > k >= 1")
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    p = np.sum(x * x, axis=1)
    total = p.sum()
    if total == 0.0:
        raise ValueError("all-zero matrix: sampling distribution undefined")
    p /= total
    idx = rng.choice(n, size=r, p=p)
    return SamplingPair(indices=idx, scales=1.0 / np.sqrt(p[idx] * r),
                        probs=p)


def bss_sampling(v, a, r):
    """Deterministic dual-set sparsification.

    v: n x k with orthonormal columns (sum of v_i v_i^T = I_k);
    a: n x l, the second vector set (enters only through row norms);
    returns r weighted steps S (<= r distinct indices) such that

        sigma_k(V^T S) >= 1 - sqrt(k/r)   and   ||A^T S||_F^2 <= ||A||_F^2.
    """
    v = as_array(v)
    a = as_array(a)
    n, k = v.shape
    if a.shape[0] != n:
        raise ValueError("dual sets must have equal cardinality")
    if not k < r <= n:
        raise ValueError("need k < r <= n")
    if np.max(np.abs(v.T @ v - np.eye(k))) > _ORTHO_TOL:
        raise ValueError("V must have orthonormal columns")

    anorms = np.sum(a * a, axis=1)
    shrink = 1.0 - np.sqrt(k / r)
    delta_u = anorms.sum() / shrink
    if delta_u == 0.0:
        delta_u = 1.0  # all-zero dual set: upper potential is vacuous
    u_vals = anorms / delta_u

    sqrt_rk = np.sqrt(r * k)
    steps = []
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
        steps.append((i, t))
        m += t * np.outer(v[i], v[i])

    scale = shrink / r
    steps = tuple((i, t * scale) for i, t in steps)
    return WeightedSelection(steps=steps, r=r)


def bss_sampling_sparse(v, a, r, eps, rng):
    """Dual-set sparsification with the second set CountSketch-compressed.

    The greedy reads the a_i only through squared norms, so the sketch is
    applied bucket-compressed: identical norms, memory bounded by the number
    of occupied buckets even when the prescribed width is enormous.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    a = as_array(a)
    n, ell = a.shape
    xi = int(np.ceil(40.0 * n * n / (eps * eps)))
    w = make_sse(ell, xi, rng)
    sketched = apply_sse_compressed(w, a.T).T
    return bss_sampling(v, sketched, r)
