"""Best rank-k approximation within a given column subspace, and the
rank-constrained intersection matrix.

best_subspace_svd realizes the projection Pi^F_{V,k}(A): QR the subspace,
rank-k SVD the projected coefficients.  approx_subspace_svd does the same on
a CountSketch compression of the coefficient matrix.  rank_constrained_u
solves min_{rank(U) <= k} ||A - C U R||_F in closed form.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator

from . import linalg
from .linalg import _DENSE_TOP_K, _matmul, _operand, _top_k, as_array, qr
from .sketch import make_sse, apply_sse_compressed


@dataclass(frozen=True)
class SubspaceFactor:
    """(Delta, M, Z2): Delta the top-k left singular directions of the
    (possibly sketched) coefficients Y^T A, Y orthonormal with range(Y) =
    range(V); Z2 = Y Delta; M the minimum-norm map with V M = Z2 (M = 0 when
    V = 0, whose Y is one unit vector).  Y is formed on first read."""

    Delta: np.ndarray  # p x min(k, p), orthonormal columns
    M: np.ndarray  # c x min(k, p), pinv(V) Y Delta
    Z2: np.ndarray  # m x min(k, p), orthonormal columns
    sketched: bool = False
    _y: object = field(default=None, repr=False, compare=False)

    @cached_property
    def Y(self):  # m x p, orthonormal columns; p = max(rank(V), 1)
        return self._y()


def _factor(a, v, k, xi=None, rng=None):
    """The SubspaceFactor of V: Delta, min(k, rho) directions, from Y^T A, or
    from Y^T A W^T for a CountSketch W of width xi drawn from rng when xi is
    given; so Z2 spans the best rank-k subspace of range(V), or all of it
    when rho <= k.

    Y's applier q, rank rho and the solve come from `linalg._q_basis(V)`,
    and M = solve(Delta).  Past _DENSE_TOP_K columns, when exact, ARPACK
    applies A^T Y and Y^T A a vector at a time through q, Z2 = q(Delta), and
    Y is never formed; otherwise Y is, and A^T Y is held densely (its QR
    triangle when exact).  V = 0 gets one direction, a unit Y, with M = 0.
    """
    v = as_array(v)
    q, rho, solve = linalg._q_basis(v)
    k = min(k, max(rho, 1))
    if xi is None and rho > _DENSE_TOP_K:
        x = _operand(a)
        fwd, back = lambda z: x.T @ q(z), lambda z: q(x @ z, trans=True)
        at_y = LinearOperator((x.shape[1], rho), matvec=fwd, rmatvec=back,
                              matmat=fwd, rmatmat=back, dtype=np.float64)
        delta = _top_k(at_y, k, vectors=True)[1]
        return SubspaceFactor(delta, solve(delta), q(delta), False, q)
    y = q() if rho else np.eye(v.shape[0], 1)
    at_y = _matmul(y.T, a).T
    at_y = qr(at_y)[2] if xi is None else apply_sse_compressed(
        make_sse(np.shape(a)[1], xi, rng), at_y)
    delta = _top_k(at_y, k, vectors=True)[1]
    return SubspaceFactor(delta, solve(delta[:rho]), y @ delta,
                          xi is not None, lambda: y)


def best_subspace_svd(a, v, k):
    """Exact Pi^F_{V,k}: Y from QR of V, Delta from the rank-k SVD of Y^T A."""
    if not 1 <= k < np.shape(v)[1]:
        raise ValueError("need 1 <= k < c")
    return _factor(a, v, k)


def approx_subspace_svd(a, v, k, eps, rng):
    """Sketched variant: Delta from the top-k left singular directions of
    Y^T A W^T with W a CountSketch of width ceil(40 c^2 / eps^2).

    When the prescribed width does not compress (xi >= n) the exact
    coefficients are used, which satisfies the embedding contract trivially.
    """
    c = np.shape(v)[1]
    if not (1 <= k < c and 0 < eps <= 1):
        raise ValueError("need 1 <= k < c and eps in (0, 1]")
    xi = int(np.ceil(40.0 * c * c / (eps * eps)))
    return _factor(a, v, k, xi if xi < np.shape(a)[1] else None, rng)


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
