"""Best rank-k approximation within a given column subspace, and the
rank-constrained intersection matrix.

best_subspace_svd realizes the projection Pi^F_{V,k}(A): QR the subspace,
rank-k SVD the projected coefficients.  approx_subspace_svd does the same on
a CountSketch compression of the coefficient matrix.  rank_constrained_u
solves min_{rank(U) <= k} ||A - C U R||_F in closed form.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import aslinearoperator

from . import linalg
from .linalg import _matmul, _operand, _top_k, as_array
from .sketch import make_sse, apply_sse_compressed


@dataclass(frozen=True)
class SubspaceFactor:
    """(Y, Delta, M): Y orthonormal with range(V) in its span, Delta the
    top-k left singular directions of the (possibly sketched) coefficients
    Y^T A, and M the minimum-norm map with V M = Y Delta."""

    Y: np.ndarray  # m x p, orthonormal columns; p = c when rank(V) = c
    Delta: np.ndarray  # p x k, orthonormal columns
    M: np.ndarray  # c x k, pinv(V) Y Delta
    sketched: bool = False


def _exact_delta(a, y, k):
    """Delta = the top-k right singular vectors of A^T Y; past _DENSE_TOP_K
    columns of Y from an operator, so that Y^T A is never formed."""
    at_y = _matmul(y.T, a).T if y.shape[1] <= linalg._DENSE_TOP_K else (
        aslinearoperator(_operand(a)).T @ aslinearoperator(y))
    return _top_k(at_y, k, vectors=True)[1]


def _factor(a, v, k, top_k):
    """The SubspaceFactor of V, with (Delta, sketched) = top_k(A, Y).

    Y, rank rho and the solve come from `linalg._basis(V, k)`.  When
    rho < c, the first rho columns of Y span V, further ones (up to k, only
    when rank(V) < k) are zeroed for top_k, so get zero coefficients, and
    M = solve(Delta) over the first rho rows.
    """
    v = as_array(v)
    c = v.shape[1]
    if not 1 <= k < c:
        raise ValueError("need 1 <= k < c")
    y, rho, solve = linalg._basis(v, k)
    p = y.shape[1]
    delta, sketched = top_k(a, y if rho == p else y * (np.arange(p) < rho))
    return SubspaceFactor(y, delta, solve(delta[:rho]), sketched)


def best_subspace_svd(a, v, k):
    """Exact Pi^F_{V,k}: Y from QR of V, Delta from the rank-k SVD of Y^T A."""
    return _factor(a, v, k, lambda a, y: (_exact_delta(a, y, k), False))


def approx_subspace_svd(a, v, k, eps, rng):
    """Sketched variant: Delta from the top-k left singular directions of
    Y^T A W^T with W a CountSketch of width ceil(40 c^2 / eps^2).

    When the prescribed width does not compress (xi >= n) the exact
    coefficients are used, which satisfies the embedding contract trivially.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    c = np.shape(v)[1]
    n = np.shape(a)[1]
    xi_dim = int(np.ceil(40.0 * c * c / (eps * eps)))

    def top_k(a, y):
        if xi_dim >= n:
            return _exact_delta(a, y, k), False
        w = make_sse(n, xi_dim, rng)
        sketch = apply_sse_compressed(w, _matmul(y.T, a).T)
        return _top_k(sketch, k, vectors=True)[1], True

    return _factor(a, v, k, top_k)


def rank_constrained_u(a, c, r, k):
    """U minimizing ||A - C U R||_F over rank-<=k matrices:
    U = C^+ (U_C U_C^T A V_R V_R^T)_k R^+."""
    a = as_array(a)
    c = as_array(c)
    r = as_array(r)
    if k > min(c.shape[1], r.shape[0]):
        raise ValueError("k exceeds min(cols(C), rows(R))")
    u_c = linalg.svd(c).U_A
    v_r = linalg.svd(r).V_A
    inner = u_c @ (u_c.T @ a @ v_r) @ v_r.T
    inner_k = linalg.truncate(linalg.svd(inner), k)
    return linalg.pinv(c) @ inner_k @ linalg.pinv(r)
