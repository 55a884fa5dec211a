"""Best rank-k approximation within a given column subspace, and the
rank-constrained intersection matrix.

best_subspace_svd realizes the projection Pi^F_{V,k}(A): QR the subspace,
rank-k SVD the projected coefficients.  approx_subspace_svd does the same on
a CountSketch compression of the coefficient matrix.  rank_constrained_u
solves min_{rank(U) <= k} ||A - C U R||_F in closed form.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .linalg import _matmul, as_array
from .sketch import make_sse, apply_sse_compressed


@dataclass(frozen=True)
class SubspaceFactor:
    """(Y, Psi, Delta): V = Y Psi with Y orthonormal, Delta the top-k left
    singular directions of the (possibly sketched) coefficients Y^T A."""

    Y: np.ndarray  # m x c, orthonormal columns
    Psi: np.ndarray  # c x c, upper triangular
    Delta: np.ndarray  # c x k, orthonormal columns
    sketched: bool = False

    def project(self, a):
        """Y Delta Delta^T Y^T A, the rank-<=k approximation in span(V)."""
        b = self.Y @ self.Delta
        return b @ _matmul(b.T, a)


def _restrict_to_range(psi, coeff):
    """Project the coefficients onto range(Psi) when V was rank-deficient,
    so the chosen directions stay inside span(V).  Identity otherwise."""
    res = linalg.range_restrictor(psi)
    if res is None:
        return coeff
    return res @ (res.T @ coeff)


def _top_left_singvecs(xi, k):
    """Top-k left singular vectors; Gram-trick for wide/fat tall cases."""
    c = xi.shape[0]
    if c > 400 and xi.shape[1] > c:
        # the top k eigenvectors of the c x c Gram are much cheaper than the
        # svd of the c x n matrix
        q = scipy.linalg.eigh(xi @ xi.T, subset_by_index=[c - k, c - 1])[1]
        return q[:, ::-1].copy()
    u, _, _ = scipy.linalg.svd(xi, full_matrices=False)
    if u.shape[1] < k:
        raise linalg.NumericalError("coefficient matrix thinner than k")
    return u[:, :k].copy()


def _coefficients(a, v, k):
    """QR of V, and the coefficients Y^T A restricted to range(Psi)."""
    v = as_array(v)
    if not 1 <= k < v.shape[1]:
        raise ValueError("need 1 <= k < c")
    f = linalg.qr(v)
    return f, _restrict_to_range(f.R_tri, _matmul(f.Q.T, a))


def best_subspace_svd(a, v, k):
    """Exact Pi^F_{V,k}: Y from QR of V, Delta from the rank-k SVD of Y^T A."""
    f, xi = _coefficients(a, v, k)
    return SubspaceFactor(Y=f.Q, Psi=f.R_tri, Delta=_top_left_singvecs(xi, k),
                          sketched=False)


def approx_subspace_svd(a, v, k, eps, rng):
    """Sketched variant: Delta from the top-k left singular directions of
    Y^T A W^T with W a CountSketch of width ceil(40 c^2 / eps^2).

    When the prescribed width does not compress (xi >= n) the exact
    coefficients are used, which satisfies the embedding contract trivially.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    f, coeff = _coefficients(a, v, k)
    c = f.Q.shape[1]
    n = np.shape(a)[1]
    xi_dim = int(np.ceil(40.0 * c * c / (eps * eps)))
    sketched = xi_dim < n
    if sketched:
        w = make_sse(n, xi_dim, rng)
        coeff = apply_sse_compressed(w, coeff.T).T
    delta = _top_left_singvecs(coeff, k)
    return SubspaceFactor(Y=f.Q, Psi=f.R_tri, Delta=delta, sketched=sketched)


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
