"""Dense/sparse input types and the exact factorization layer.

Everything downstream (sketches, subset selection, the CUR pipelines) is
measured against the operations here: exact SVD, Moore-Penrose
pseudo-inverse, best rank-k truncation, and norms.  DenseMatrix and
SparseMatrix are validated, immutable input types; operations are pure and
return plain ndarrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import audit

# Singular values below RANK_RTOL * sigma_1 * max(m, n) are treated as zero.
RANK_RTOL = 2.0 ** -45
# Values per block where a temporary is built a block at a time.
_BLOCK = 1 << 16


def _blocks(n, width):
    """Slices covering range(n), each of about _BLOCK // width indices and at
    least 2: the last one takes the remainder.  A block of one row or column
    would switch numpy to another summation order or BLAS kernel (pairwise
    sum, gemv), so blocked results keep the bits of the whole-array ones."""
    step = max(2, _BLOCK // max(width, 1))
    i = 0
    while i < n:
        j = n if n - i < 2 * step else i + step
        yield slice(i, j)
        i = j


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

    def __array__(self, dtype=None, copy=None):
        """The read-only buffer itself, or a writable copy for copy=True."""
        if copy:
            return np.array(self.data, dtype=dtype)
        return self.data if dtype is None else self.data.astype(dtype, copy=False)


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


def _cols(a, idx, order="C"):
    """Columns idx of A as an ndarray in `order`, for dense, CSR and CSC A
    alike.  A dense gather goes a block of rows at a time, fast whether A is
    C- or F-order; a sparse one is noted with the audit."""
    a = _operand(a)
    if not scipy.sparse.issparse(a):
        out = np.empty((a.shape[0], len(idx)), order=order)
        for rows in _blocks(a.shape[0], len(idx)):
            out[rows] = a[rows][:, idx]
        return out
    out = a[:, idx].toarray(order=order)
    audit.note_dense(out.size)
    return out


def _sq_norms(a, w=None):
    """Squared row norms of A, or of A W^T for a CountSketch W given as CSR:
    over the stored entries of a sparse A (w None); else each row as
    np.sum(x * x, axis=1) sums it over the whole array: a contiguous row (C
    order) pairwise, a block of rows at a time (`_blocks`), a strided one (F
    order, at least 2 rows) sequentially, in one einsum pass with no
    temporary.  einsum changes the bits of a 1-row A, which goes by blocks."""
    a = _operand(a)
    if scipy.sparse.issparse(a):
        return np.asarray(a.multiply(a).sum(axis=1)).ravel()
    if w is None and a.shape[0] > 1 and a.T.flags.c_contiguous:
        return np.einsum("ij,ij->j", a.T, a.T)
    out = np.empty(a.shape[0])
    for rows in _blocks(a.shape[0], a.shape[1] if w is None else w.shape[0]):
        x = a[rows] if w is None else _matmul(w, a[rows].T).T
        out[rows] = np.sum(x * x, axis=1)
    return out


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD trimmed to numerical rank: A = U_A diag(sigma) V_A^T."""

    U_A: np.ndarray  # m x rho, orthonormal columns
    sigma: np.ndarray  # rho positive values, descending
    V_A: np.ndarray  # n x rho, orthonormal columns

    @property
    def rank(self):
        return self.sigma.shape[0]


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


_DENSE_TOP_K = 400  # see _top_k


def _top_k(a, k, vectors=False):
    """The top-k singular values of A, descending; with vectors=True also the
    matching right singular vectors, as the columns of an n x k array.

    A is an ndarray, a scipy sparse matrix or a LinearOperator.  ARPACK
    (svds with tol=0) runs from a start vector seeded with 0, so every call
    gives the same bits.  One LAPACK SVD of A formed densely runs instead when
    A is not sparse and has at most _DENSE_TOP_K rows or columns (there it
    is cheaper), when k >= min(m, n) - 1, and when ARPACK fails; vectors of
    a tall A (m >= 2n) come from the SVD of its n x n QR triangle, gesdd's
    own first step there, so the bits are the same and no m x n left factor
    is formed.  An all-zero ndarray or sparse A gives zeros and the first k
    unit vectors.
    """
    op = isinstance(a, scipy.sparse.linalg.LinearOperator)
    if not op:
        a = _operand(a)
        if not (a.data if scipy.sparse.issparse(a) else a).any():
            s = np.zeros(k)
            return (s, np.eye(a.shape[1], k)) if vectors else s
    if k < min(a.shape) - 1 and (scipy.sparse.issparse(a)
                                 or min(a.shape) > _DENSE_TOP_K):
        v0 = np.random.default_rng(0).standard_normal(min(a.shape))
        try:
            out = scipy.sparse.linalg.svds(
                a, k=k, tol=0, v0=v0,
                return_singular_vectors="vh" if vectors else False)
        except scipy.sparse.linalg.ArpackError:  # and ArpackNoConvergence
            pass  # the dense path below
        else:
            return (out[1][::-1], out[2][::-1].T.copy()) if vectors else out[::-1]
    a = a.matmat(np.eye(a.shape[1])) if op else as_array(a)
    if not vectors:
        return _lapack_svd(a, compute_uv=False)[:k]
    if a.shape[0] >= 2 * a.shape[1]:
        a = scipy.linalg.qr(a, mode="r")[0][:a.shape[1]]
    _, s, vt = _lapack_svd(a, full_matrices=False)
    return s[:k], vt[:k].T.copy()


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


def frobenius_sq(a):
    """||A||_F^2, summed without an m x n temporary by einsum, which runs on
    one thread, so the bits do not depend on the BLAS thread count."""
    a = _operand(a)
    x = a.data if scipy.sparse.issparse(a) else a.ravel(order="K")
    return float(np.einsum("i,i->", x, x))


def orthonormal_basis(a):
    """Orthonormal basis for the column space (rank-revealing, via SVD)."""
    return svd(a).U_A


def _lapack(f, *args, **kw):
    """The first output of LAPACK routine f, with the workspace it asks for."""
    return f(*args, lwork=int(f(*args, lwork=-1, **kw)[-2][0]), **kw)[0]


def _basis(v, x=None):
    """(Y, rho, solve) for an m x c ndarray V: the rho = rank(V) orthonormal
    columns of Y span range(V), and solve(X) = V^+ Y X for X with rho rows;
    given an m x l X, Y^T X comes in place of Y, and Y is not formed.

    One QR V = Q T, Q kept as Householder reflectors (LAPACK orgqr forms Q,
    ormqr applies it).  When m >= c and T's diagonal shows full rank, Y = Q
    and solve is one triangular solve.  Otherwise the SVD U S W^T of T, or of
    B in a range probe T = Q_w B when one fits (U = Q_w U_B), gives Y = Q U
    and solve(X) = W S^-1 X over the first rho.  Every test cuts at
    max(m, c) * RANK_RTOL times the largest diagonal entry or singular value;
    the first is at most sigma_1(T), so a probe drops nothing the SVD keeps.
    """
    m, c = v.shape
    (h, tau), t = scipy.linalg.qr(v, mode="raw")
    h, ormqr = h[:, :tau.size], scipy.linalg.lapack.dormqr
    d = np.abs(np.diag(t))
    cut = max(m, c) * RANK_RTOL * d.max()
    if m >= c and d.min() > cut:
        u, rho, solve = None, c, lambda x: scipy.linalg.solve_triangular(t, x)
    else:
        q, b = _range_probe(t, cut * cut)
        u, s, wt = _lapack_svd(b, full_matrices=False)
        rho = _rank(s, v.shape)
        u = (u if q is None else q @ u)[:, :rho]
        w = wt[:rho].T / s[:rho]
        solve = lambda x: w @ x
    if x is not None:
        x = _lapack(ormqr, "L", "T", h, tau, x)[:tau.size]
        return x if u is None else u.T @ x, rho, solve
    if u is None:
        return _lapack(scipy.linalg.lapack.dorgqr, h, tau, overwrite_a=1), rho, solve
    u = np.vstack([u, np.zeros((m - tau.size, u.shape[1]))])
    return _lapack(ormqr, "L", "N", h, tau, u), rho, solve


def apply_right_pinv(g, r):
    """G R^+ = solve(Y^T G^T)^T by `_basis(R^T, x=G^T)`, which forms no Q."""
    x, _, solve = _basis(np.asarray(r).T, x=np.asarray(g).T)
    return solve(x).T


def _range_probe(a, tol_sq=None):
    """(Q, B), A = Q B with B = Q^T A, from the first random range probe Q
    of width 8, 32, ... up to min(m, n) / 2 with
    ||A - Q B||_F^2 <= tol_sq, by default 1e-24 ||A||_F^2
    (Halko-Martinsson-Tropp 4.3); (None, A) when A is small or none fits."""
    a = np.asarray(a)
    m, n = a.shape
    rng = np.random.default_rng(12345)
    width = 8
    while min(m, n) > 32 and width <= min(m, n) // 2:
        y = a @ rng.standard_normal((n, width))
        q = scipy.linalg.qr(y, mode="economic")[0]
        b = q.T @ a
        res = frobenius_sq(a - q @ b)
        if res <= (1e-24 * frobenius_sq(a) if tol_sq is None else tol_sq):
            return q, b
        width *= 4
    return None, a
