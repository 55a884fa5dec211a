"""Approximate SVD factor producers.

Each routine returns an orthonormal Z (n x k) with

    ||A - A Z Z^T||_F^2 <= (1 + eps) ||A - A_k||_F^2

under its own contract: exactly and deterministically, in expectation, or
with constant probability in o(dense-SVD) time.
"""

import numpy as np
import scipy.linalg

from . import linalg
from .linalg import _matmul, _top_k, as_sparse
from .sketch import make_sse, make_sign_sketch


def deterministic_svd(a, k):
    """Z = top-k right singular vectors; deterministic, meets the bound with eps=0."""
    s, v = _top_k(a, k + 1, vectors=True)
    if not 1 <= k < linalg._rank(s, np.shape(a)):
        raise ValueError("need 1 <= k < rank(A)")
    return v[:, :k].copy()


def randomized_svd(a, k, eps, rng):
    """Sketch-and-project: right sign sketch of width k + ceil(k/eps)."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    m, n = np.shape(a)
    if not 1 <= k < min(m, n):
        raise ValueError("need 1 <= k < min(m, n)")
    p = k + int(np.ceil(k / eps))
    p = min(p, n)
    s = make_sign_sketch(p, n, rng, scaled=False)
    q = scipy.linalg.qr(_matmul(a, s.S.T), mode="economic")[0]
    return _top_k(_matmul(q.T, a), k, vectors=True)[1]


def sparse_svd(a, k, eps, rng):
    """Top-k right singular directions of a CountSketch compression W A,
    kept sparse: one pass over nnz(A), then ARPACK on the xi x n sketch.
    When the prescribed xi would not compress (xi >= m), those of A."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    csr = as_sparse(a)
    m, n = csr.shape
    if not 1 <= k < min(m, n):
        raise ValueError("need 1 <= k < min(m, n)")
    xi = int(np.ceil(40.0 * (k * k + k) / (eps * eps)))
    if xi < m:
        csr = make_sse(m, xi, rng).as_csr() @ csr
    return _top_k(csr, k, vectors=True)[1]
