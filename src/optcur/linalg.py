"""Dense/sparse input types and the exact factorization layer.

Everything downstream (sketches, subset selection, the CUR pipelines) is
measured against the operations here: exact SVD, QR, Moore-Penrose
pseudo-inverse, best rank-k truncation, and norms.  DenseMatrix and
SparseMatrix are validated, immutable input types; operations are pure and
return plain ndarrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import audit

# Singular values below RANK_RTOL * sigma_1 * max(m, n) are treated as zero.
RANK_RTOL = 2.0 ** -45


class NumericalError(RuntimeError):
    """An underlying factorization failed to converge or went singular."""


def _check_finite(a):
    if scipy.sparse.issparse(a):
        a = a.data
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")


class DenseMatrix:
    """Immutable dense 64-bit real matrix (row-major)."""

    def __init__(self, data):
        a = np.array(data, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        _check_finite(a)
        a.flags.writeable = False
        self.data = a

    @property
    def shape(self):
        return self.data.shape

    @property
    def nnz(self):
        return int(np.count_nonzero(self.data))

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return self.data[:, j]

    def matvec(self, x):
        return self.data @ x

    def to_dense(self):
        return self.data

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.data.astype(dtype)
        return self.data


class SparseMatrix:
    """Immutable CSR matrix; the carrier for nnz-time code paths."""

    def __init__(self, csr):
        m = scipy.sparse.csr_matrix(csr, dtype=np.float64, copy=True)
        m.sort_indices()
        m.eliminate_zeros()
        _check_finite(m)
        self.csr = m

    @property
    def shape(self):
        return self.csr.shape

    @property
    def nnz(self):
        return int(self.csr.nnz)

    def row(self, i):
        return self.csr.getrow(i).toarray().ravel()

    def col(self, j):
        return self.csr.getcol(j).toarray().ravel()

    def matvec(self, x):
        return self.csr @ x

    def to_dense(self):
        audit.note_dense(self.shape[0] * self.shape[1])
        return self.csr.toarray()

    def __array__(self, dtype=None, copy=None):
        return self.to_dense()


def is_sparse(a):
    return isinstance(a, SparseMatrix) or scipy.sparse.issparse(a)


def as_array(a):
    """Coerce any accepted matrix representation to a dense ndarray."""
    if isinstance(a, DenseMatrix):
        return a.data
    if isinstance(a, SparseMatrix):
        return a.to_dense()
    if scipy.sparse.issparse(a):
        audit.note_dense(a.shape[0] * a.shape[1])
        return a.toarray()
    return np.asarray(a, dtype=np.float64)


def as_sparse(a):
    """Coerce to a scipy CSR matrix (without densifying)."""
    return scipy.sparse.csr_matrix(_operand(a))


# The dense/sparse decision for the operations the pipelines share: a sparse
# operand is used in its own format (CSR, or its CSC view A^T), never densified
# whole.  Private, so perfbench/tracing.py counts them in their caller's time.


def _operand(a):
    """The ndarray or scipy sparse matrix behind any accepted matrix."""
    if isinstance(a, SparseMatrix):
        return a.csr
    if scipy.sparse.issparse(a):
        return a
    return as_array(a)


def _matmul(x, y):
    """x @ y as an ndarray, either operand dense or sparse."""
    out = _operand(x) @ _operand(y)
    return out.toarray() if scipy.sparse.issparse(out) else np.asarray(out)


def _cols(a, idx):
    """Columns idx of A as an ndarray; a sparse gather is noted with the audit."""
    a = _operand(a)
    if not scipy.sparse.issparse(a):
        return a[:, idx]
    out = a[:, idx].toarray()
    audit.note_dense(out.size)
    return out


def _col_sq_norms(a):
    """Squared column norms of A."""
    a = _operand(a)
    if scipy.sparse.issparse(a):
        return np.asarray(a.multiply(a).sum(axis=0)).ravel()
    return np.sum(a * a, axis=0)


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD trimmed to numerical rank: A = U_A diag(sigma) V_A^T."""

    U_A: np.ndarray  # m x rho, orthonormal columns
    sigma: np.ndarray  # rho positive values, descending
    V_A: np.ndarray  # n x rho, orthonormal columns

    @property
    def rank(self):
        return self.sigma.shape[0]


@dataclass(frozen=True)
class QrFactorization:
    Q: np.ndarray  # m x c, orthonormal columns
    R_tri: np.ndarray  # c x c, upper triangular


def _lapack_svd(a, **kw):
    """scipy's SVD by gesdd, retried with gesvd; NumericalError if both fail."""
    try:
        return scipy.linalg.svd(a, lapack_driver="gesdd", **kw)
    except scipy.linalg.LinAlgError:
        try:
            return scipy.linalg.svd(a, lapack_driver="gesvd", **kw)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError("SVD failed to converge") from exc


def _rank(s, shape):
    """Numerical rank from the descending singular values of a matrix."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(shape) * s[0] * RANK_RTOL))


def singular_values(a):
    """All singular values, descending, without forming the singular vectors."""
    return _lapack_svd(as_array(a), compute_uv=False)


def svd(a):
    """Thin SVD with factors trimmed to the numerical rank."""
    a = as_array(a)
    u, s, vt = _lapack_svd(a, full_matrices=False)
    rho = _rank(s, a.shape)
    return SvdFactorization(u[:, :rho].copy(), s[:rho].copy(), vt[:rho].T.copy())


def truncate(f, k):
    """Best rank-k matrix from a factorization (exact A when k >= rank)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, f.rank)
    return (f.U_A[:, :k] * f.sigma[:k]) @ f.V_A[:, :k].T


def pinv(a):
    """Moore-Penrose pseudo-inverse via the trimmed SVD (zeros at rank 0)."""
    f = svd(a)
    return (f.V_A / f.sigma) @ f.U_A.T


def qr(a):
    """Economy QR; requires m >= c.  R_tri may be singular for rank-deficient input."""
    a = as_array(a)
    m, c = a.shape
    if m < c:
        raise ValueError("qr requires at least as many rows as columns")
    q, r = scipy.linalg.qr(a, mode="economic")
    return QrFactorization(q, r)


def frobenius_sq(a):
    a = _operand(a)
    x = a.data if scipy.sparse.issparse(a) else a
    return float(np.sum(x * x))


def spectral_norm(a):
    a = _operand(a)
    if scipy.sparse.issparse(a) and min(a.shape) > 2 and a.nnz:
        try:
            return float(scipy.sparse.linalg.svds(
                a, k=1, return_singular_vectors=False)[0])
        except Exception:
            pass  # fall back to the dense SVD
    a = as_array(a)
    if a.size == 0 or not a.any():
        return 0.0
    return float(singular_values(a)[0])


def orthonormal_basis(a):
    """Orthonormal basis for the column space (rank-revealing, via SVD)."""
    return svd(a).U_A


def row_space_projector_factor(r):
    """Orthonormal Q (n x rho) with R^+ R = Q Q^T for the r x n matrix R."""
    f = svd(np.asarray(r).T)
    return f.U_A


def apply_right_pinv(g, r):
    """G R^+ via one economy QR of R^T (triangular solve when R has full row
    rank, SVD fallback otherwise)."""
    g = np.asarray(g)
    r = np.asarray(r)
    q, t = scipy.linalg.qr(r.T, mode="economic")
    d = np.abs(np.diag(t))
    if d.size and d.min() > max(r.shape) * d.max() * RANK_RTOL:
        # R = T^T Q^T with T invertible, so R^+ = Q T^-T
        return scipy.linalg.solve_triangular(t, (g @ q).T, lower=False).T
    # rank-deficient R: (R^T)^+ G^T is the minimum-norm least-squares
    # solution, which gelsy computes via complete orthogonal factorization
    # with the library's rank cutoff, not gelsy's default of machine epsilon
    sol = scipy.linalg.lstsq(r.T, g.T, cond=max(r.shape) * RANK_RTOL,
                             lapack_driver="gelsy")[0]
    return sol.T


def numerical_rank(a, probe=8, seed=12345):
    """Rank of a matrix that is expected to be (very) low rank.

    A random range probe certifies the rank cheaply; if the probe fails to
    capture the range the exact singular values are used.
    """
    a = np.asarray(a)
    m, n = a.shape
    rng = np.random.default_rng(seed)
    width = probe
    while min(m, n) > probe * 4 and width <= min(m, n) // 2:
        y = a @ rng.standard_normal((n, width))
        q = scipy.linalg.qr(y, mode="economic")[0]
        b = q.T @ a
        if frobenius_sq(a - q @ b) <= (1e-24) * max(frobenius_sq(a), 1e-300):
            a = b  # range(Q) holds range(A): A and Q^T A share their rank
            break
        width *= 4
    return _rank(singular_values(a), a.shape)


def _pivoted_qr_rank(psi):
    """Pivoted QR (q, t, perm) of the upper-triangular Psi and its numerical
    rank, or None when the diagonal shows Psi is well conditioned."""
    c = psi.shape[0]
    d = np.abs(np.diag(psi))
    if d.size == 0 or d.min() > c * d.max() * RANK_RTOL:
        return None
    q, t, perm = scipy.linalg.qr(psi, mode="economic", pivoting=True)
    dt = np.abs(np.diag(t))
    rho = int(np.count_nonzero(dt > c * (dt.max() if dt.size else 0.0)
                               * RANK_RTOL))
    return q, t, perm, rho


def solve_upper_rank_aware(psi, b):
    """Minimum-norm X with Psi X = B for upper-triangular Psi, assuming B lies
    in range(Psi).  Fast triangular solve when Psi is well conditioned;
    rank-revealing pivoted QR otherwise."""
    psi = np.asarray(psi)
    b = np.asarray(b)
    fact = _pivoted_qr_rank(psi)
    if fact is None:
        return scipy.linalg.solve_triangular(psi, b, lower=False)
    q, t, perm, rho = fact
    x = np.zeros((psi.shape[0],) + b.shape[1:])
    if rho:
        x[perm[:rho]] = scipy.linalg.solve_triangular(
            t[:rho, :rho], (q.T @ b)[:rho], lower=False)
    return x


def range_restrictor(psi):
    """Orthonormal basis of range(Psi) when Psi is rank-deficient, else None."""
    fact = _pivoted_qr_rank(np.asarray(psi))
    if fact is None:
        return None
    q, _, _, rho = fact
    return q[:, :rho]
