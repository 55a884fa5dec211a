"""Randomized dimension reduction: sparse embeddings and sign sketches.

A sparse subspace embedding W maps R^n -> R^xi with exactly one +-1 per input
coordinate (a CountSketch); applying it costs one pass over the stored
nonzeros.  The sign sketch is the dense +-1/sqrt(s) Johnson-Lindenstrauss
map used for norm estimation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import _matmul


@dataclass(frozen=True)
class SparseEmbedding:
    """CountSketch operator W: xi x n, stored implicitly as (h, y)."""

    xi: int
    n: int
    h: np.ndarray  # bucket of each source index, values in [0, xi)
    y: np.ndarray  # signs, +-1

    def as_csr(self):
        return scipy.sparse.csr_matrix(
            (self.y.astype(np.float64), (self.h, np.arange(self.n))),
            shape=(self.xi, self.n),
        )


@dataclass(frozen=True)
class SignSketch:
    """Dense s x m matrix with entries +-1/sqrt(s)."""

    S: np.ndarray


def make_sse(n, xi, rng):
    """Draw W with i.i.d. uniform buckets and signs."""
    if xi < 1:
        raise ValueError("xi must be >= 1")
    h = rng.integers(0, xi, size=n)
    y = rng.integers(0, 2, size=n) * 2 - 1
    return SparseEmbedding(xi=int(xi), n=int(n), h=h, y=y)


def _compressed(w):
    """W as CSR with its all-zero bucket rows dropped, rows by bucket id."""
    buckets, compressed = np.unique(w.h, return_inverse=True)
    return SparseEmbedding(xi=buckets.size, n=w.n, h=compressed,
                           y=w.y).as_csr()


def apply_sse_compressed(w, a):
    """W A with all-zero bucket rows dropped.

    Row order is by bucket id.  Column norms and left singular vectors of the
    result match W A exactly, which is all the norm-only and SVD-only
    consumers need; this keeps memory bounded by the number of occupied
    buckets (<= n) even when xi is huge.
    """
    return _matmul(_compressed(w), a)


def make_sign_sketch(s, m, rng, scaled=True):
    signs = (rng.integers(0, 2, size=(s, m)) * 2 - 1).astype(np.float64)
    if scaled:
        signs /= np.sqrt(s)
    return SignSketch(S=signs)


def jlt_rows(n):
    """Sketch height preserving n squared norms within [1/2, 3/2] w.p. 1 - 1/n."""
    return int(np.ceil(48.0 * np.log(n)))
