"""Matrix-core oracle tests: SVD, truncation, pseudo-inverse, the
rank-revealing basis, norms.

Every factorization here is the oracle the rest of the suite is measured
against, so these tests compare against independent computations (entrywise
sums, multiply-back reconstruction) rather than against each other.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from optcur import linalg
from optcur.instances import gen_adversarial

from conftest import lowrank_noise, random_orthonormal


def probed_rank(a):
    """The rank read off the range probe, as `cur.evaluate` reads rank(U)."""
    b = linalg._range_probe(a)[1]
    return linalg._rank(linalg.singular_values(b), b.shape)


def spectral_norm(a):
    return linalg._top_k(a, 1)[0]


# ---------------------------------------------------------------------------
# matrix types


def test_dense_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.DenseMatrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        linalg.DenseMatrix([[np.inf]])


def test_dense_matrix_immutable_and_shape():
    m = linalg.DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.shape == (2, 2)
    assert m.nnz == 4
    with pytest.raises(ValueError):
        m.data[0, 0] = 9.0


def test_dense_matrix_array_copy():
    m = linalg.DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    # np.array copies: a writable array apart from the immutable buffer
    x = np.array(m)
    assert x is not m.data and x.flags.writeable
    x[0, 0] = 9.0
    assert m.data[0, 0] == 1.0
    assert np.array(m, dtype=np.float32).flags.writeable
    # np.asarray and as_array keep the buffer itself, without a copy
    assert np.asarray(m) is m.data
    assert linalg.as_array(m) is m.data


def test_sparse_matrix_csr_invariants():
    csr = scipy.sparse.csr_matrix(
        np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0]]))
    m = linalg.SparseMatrix(csr)
    assert m.shape == (2, 3)
    assert m.nnz == 2
    # offsets nondecreasing, column indices sorted within rows
    assert np.all(np.diff(m.csr.indptr) >= 0)
    for i in range(2):
        row_cols = m.csr.indices[m.csr.indptr[i]:m.csr.indptr[i + 1]]
        assert np.all(np.diff(row_cols) > 0)
    # stored zeros are dropped
    coo = scipy.sparse.coo_matrix(([0.0, 1.0], ([0, 1], [0, 1])), (2, 2))
    assert linalg.SparseMatrix(coo.tocsr()).nnz == 1


def test_sparse_matrix_leaves_caller_csr_unchanged():
    # unsorted column indices and one stored zero, as a caller may build them
    csr = scipy.sparse.csr_matrix(
        (np.array([3.0, 0.0, 1.0]), np.array([2, 1, 0]), np.array([0, 3])),
        shape=(1, 3))
    indices, data = csr.indices.copy(), csr.data.copy()
    m = linalg.SparseMatrix(csr)
    assert m.nnz == 2
    assert csr.nnz == 3
    assert np.array_equal(csr.indices, indices)
    assert np.array_equal(csr.data, data)


# ---------------------------------------------------------------------------
# svd


def test_svd_diagonal():
    f = linalg.svd(np.diag([3.0, 2.0]))
    assert np.allclose(f.sigma, [3.0, 2.0])
    assert np.allclose(np.abs(f.U_A), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(f.V_A), np.eye(2), atol=1e-12)


def test_svd_adversarial_block_spectrum():
    # near-rank-1 block: top squared singular value n + alpha^2/k, rest alpha^2/k
    alpha = 1e-10
    inst = gen_adversarial(2, 1, alpha)
    f = linalg.svd(inst.D)
    assert f.sigma[0] ** 2 == pytest.approx(2.0 + alpha * alpha, rel=1e-9)
    assert f.sigma[1] ** 2 == pytest.approx(alpha * alpha, rel=1e-9)


def test_svd_frobenius_equals_sigma_sum(rng):
    a = rng.standard_normal((5, 3))
    f = linalg.svd(a)
    assert np.sum(a * a) == pytest.approx(np.sum(f.sigma ** 2), rel=1e-12)


def test_svd_factor_invariants(rng):
    a = lowrank_noise(40, 25, 5, 0.1, rng)
    f = linalg.svd(a)
    assert np.allclose(f.U_A.T @ f.U_A, np.eye(f.rank), atol=1e-10)
    assert np.allclose(f.V_A.T @ f.V_A, np.eye(f.rank), atol=1e-10)
    assert np.all(np.diff(f.sigma) <= 0)
    assert np.all(f.sigma > 0)
    rec = (f.U_A * f.sigma) @ f.V_A.T
    assert np.linalg.norm(a - rec) <= 1e-10 * np.linalg.norm(a)


def test_svd_trims_to_numerical_rank(rng):
    a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
    assert linalg.svd(a).rank == 3
    assert linalg.svd(np.zeros((4, 4))).rank == 0


@pytest.mark.parametrize("shape,rank", [((30, 20), 20), ((20, 30), 4),
                                        ((25, 25), 0), ((0, 5), 0)])
def test_singular_values_match_numpy(rng, shape, rank):
    a = (rng.standard_normal((shape[0], rank))
         @ rng.standard_normal((rank, shape[1])))
    s = linalg.singular_values(a)
    expected = np.linalg.svd(a, compute_uv=False)
    assert s.shape == expected.shape
    assert np.allclose(s, expected, rtol=0.0,
                       atol=1e-12 * max(expected.max(initial=0.0), 1.0))
    # the values-only path applies the same rank rule as the trimmed SVD
    assert linalg.svd(a).rank == rank == probed_rank(a)


def test_singular_values_failure_is_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
    with pytest.raises(linalg.NumericalError):
        linalg.singular_values(np.eye(3))


def test_reconstruction_residual_medium(rng):
    # reconstruction holds at the largest dims the contract covers
    a = rng.uniform(-1.0, 1.0, size=(500, 200))
    f = linalg.svd(a)
    rec = (f.U_A * f.sigma) @ f.V_A.T
    assert np.linalg.norm(a - rec) <= 1e-10 * np.linalg.norm(a)


# ---------------------------------------------------------------------------
# truncate


def test_truncate_exact_when_k_at_least_rank(rng):
    a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
    ak = np.asarray(linalg.truncate(linalg.svd(a), 3))
    assert np.allclose(ak, a, atol=1e-10)
    # k beyond rank also returns A exactly
    ak = np.asarray(linalg.truncate(linalg.svd(a), 5))
    assert np.allclose(ak, a, atol=1e-10)


def test_truncate_diagonal():
    ak = np.asarray(linalg.truncate(linalg.svd(np.diag([3.0, 2.0, 1.0])), 1))
    assert np.allclose(ak, np.diag([3.0, 0.0, 0.0]), atol=1e-12)


def test_truncate_error_is_tail_sigma_sum(rng):
    a = rng.standard_normal((6, 4))
    f = linalg.svd(a)
    ak = np.asarray(linalg.truncate(f, 2))
    tail = np.sum(f.sigma[2:] ** 2)
    assert np.sum((a - ak) ** 2) == pytest.approx(tail, rel=1e-10)


def test_truncate_rejects_nonpositive_k(rng):
    f = linalg.svd(rng.standard_normal((3, 3)))
    with pytest.raises(ValueError):
        linalg.truncate(f, 0)


# ---------------------------------------------------------------------------
# pinv


def test_pinv_identity():
    assert np.allclose(np.asarray(linalg.pinv(np.eye(3))), np.eye(3))


def test_pinv_zero_matrix():
    assert np.allclose(np.asarray(linalg.pinv(np.zeros((2, 5)))),
                       np.zeros((5, 2)))


def test_pinv_singular_value_reciprocity(rng):
    a = rng.standard_normal((4, 3))
    s = linalg.svd(a).sigma
    s_p = linalg.svd(np.asarray(linalg.pinv(a))).sigma
    assert np.allclose(np.sort(s_p), np.sort(1.0 / s), rtol=1e-10)


def test_pinv_product_rule_orthonormal_left(rng):
    a = random_orthonormal(6, 3, rng)
    b = rng.standard_normal((3, 4))
    lhs = np.asarray(linalg.pinv(a @ b))
    rhs = np.asarray(linalg.pinv(b)) @ np.asarray(linalg.pinv(a))
    assert np.allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_pinv_moore_penrose_identities(m, n, seed):
    a = np.random.default_rng(seed).standard_normal((m, n))
    p = np.asarray(linalg.pinv(a))
    scale = max(np.linalg.norm(a), 1.0)
    assert np.allclose(a @ p @ a, a, atol=1e-9 * scale)
    assert np.allclose(p @ a @ p, p, atol=1e-9 * max(np.linalg.norm(p), 1.0))
    assert np.allclose((a @ p).T, a @ p, atol=1e-9)
    assert np.allclose((p @ a).T, p @ a, atol=1e-9)


# ---------------------------------------------------------------------------
# norms


def test_norms_zero_and_diagonal():
    assert linalg.frobenius_sq(np.zeros((3, 2))) == 0.0
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    d = np.diag([3.0, 4.0])
    assert linalg.frobenius_sq(d) == 25.0
    assert spectral_norm(d) == 4.0


def test_norms_match_svd_oracle(rng):
    a = rng.standard_normal((20, 12))
    f = linalg.svd(a)
    assert linalg.frobenius_sq(a) == pytest.approx(np.sum(f.sigma ** 2),
                                                   rel=1e-12)
    assert spectral_norm(a) == pytest.approx(f.sigma[0], rel=1e-12)


def test_norms_sparse_agree_with_dense(rng):
    csr = scipy.sparse.random(50, 40, density=0.1, random_state=3,
                              format="csr")
    dense = csr.toarray()
    assert linalg.frobenius_sq(csr) == pytest.approx(
        linalg.frobenius_sq(dense), rel=1e-12)
    assert spectral_norm(csr) == pytest.approx(
        spectral_norm(dense), rel=1e-9)


def blocked_sq_norms(a):
    """The blocked loop `_sq_norms` ran on every dense input: np.sum(x * x,
    axis=1) over a block of rows at a time."""
    out = np.empty(a.shape[0])
    for rows in linalg._blocks(*a.shape):
        x = a[rows]
        out[rows] = np.sum(x * x, axis=1)
    return out


@pytest.mark.parametrize("shape", [(369, 5000), (5000, 369), (2, 7), (50, 1),
                                   (1, 50), (3, 2)])
@pytest.mark.parametrize("order", ["F", "C"])
def test_sq_norms_keep_the_bits_of_the_blocked_loop(shape, order):
    # an F-order input is summed in one einsum pass, which must add each
    # strided row in the blocked loop's sequential order
    a = np.asarray(np.random.default_rng(71).standard_normal(shape),
                   order=order)
    assert np.array_equal(linalg._sq_norms(a), blocked_sq_norms(a))


def test_sq_norms_of_an_f_order_input_build_no_temporary():
    a = np.asfortranarray(np.random.default_rng(73).standard_normal(
        (369, 5000)))
    linalg._sq_norms(a)  # warm caches before tracing
    tracemalloc.start()
    try:
        linalg._sq_norms(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output is 369 values; the blocked loop's x * x of 13 rows took
    # 520 KB, and its peak was 856 KB
    assert peak < 2 ** 16


# ---------------------------------------------------------------------------
# helpers used by the pipelines


def test_apply_right_pinv_matches_direct(rng):
    g = rng.standard_normal((3, 20))
    r = rng.standard_normal((6, 20))
    direct = g @ np.asarray(linalg.pinv(r))
    assert np.allclose(linalg.apply_right_pinv(g, r), direct, atol=1e-10)
    # rank-deficient R (duplicated rows) exercises the SVD branch of _basis
    r_def = np.vstack([r, r[:2]])
    direct = g @ np.asarray(linalg.pinv(r_def))
    assert np.allclose(linalg.apply_right_pinv(g, r_def), direct, atol=1e-9)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", ["tall", "wide", "duplicate_rows"])
def test_apply_right_pinv_applies_the_reflectors(shape, order, monkeypatch):
    # the one QR of R^T keeps its Householder reflectors (linalg.qr), and
    # Q^T reaches the rows of G through them (gemqrt), so no Q is formed
    rng = np.random.default_rng(83)
    r = rng.standard_normal({"tall": (30, 20), "wide": (6, 20),
                             "duplicate_rows": (6, 20)}[shape])
    if shape == "duplicate_rows":
        r = np.vstack([r, r[[4, 1, 4]]])
    r = np.asarray(r, order=order)
    g = np.asarray(rng.standard_normal((3, 20)), order=order)
    calls = []
    real_qr, real_gemqrt = linalg.qr, scipy.linalg.lapack.dgemqrt

    def recording_qr(x):
        calls.append(("qr", x.shape))
        return real_qr(x)

    def recording_gemqrt(h, t, c, **kwargs):
        calls.append((kwargs.get("trans", "N"), c.shape))
        return real_gemqrt(h, t, c, **kwargs)

    monkeypatch.setattr(linalg, "qr", recording_qr)
    monkeypatch.setattr(scipy.linalg.lapack, "dgemqrt", recording_gemqrt)
    got = linalg.apply_right_pinv(g, r)
    monkeypatch.undo()
    assert calls == [("qr", r.T.shape), ("T", g.T.shape)]
    direct = g @ np.linalg.pinv(r)
    assert np.linalg.norm(got - direct) <= 1e-12 * np.linalg.norm(direct)


def test_range_probe_rank_small_and_probed(rng):
    a = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 150))
    assert probed_rank(a) == 3
    assert probed_rank(np.zeros((100, 100))) == 0
    assert probed_rank(rng.standard_normal((6, 5))) == 5


@pytest.mark.parametrize("seed", [3, 5, 9, 10])
def test_apply_right_pinv_duplicate_rows_matches_pinv(seed):
    # an exactly repeated row makes R rank-deficient; the SVD branch of
    # _basis must cut at the library's rank tolerance, not at machine
    # epsilon, or it keeps a rounding-error direction and blows up
    rng = np.random.default_rng(seed)
    r0 = rng.standard_normal((6, 20))
    r = np.vstack([r0, r0[rng.integers(0, 6, 2)]])
    g = rng.standard_normal((3, 20))
    direct = g @ np.linalg.pinv(r)
    got = linalg.apply_right_pinv(g, r)
    assert np.abs(got - direct).max() <= 1e-10 * np.abs(direct).max()


def test_rank_helpers_use_values_only_svd(rng, monkeypatch):
    a = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 150))
    small = rng.standard_normal((6, 5))

    def no_vectors(*args, **kwargs):
        raise AssertionError("singular vectors are not needed")

    monkeypatch.setattr(linalg, "svd", no_vectors)
    assert probed_rank(a) == 3
    assert probed_rank(np.zeros((100, 100))) == 0
    assert probed_rank(small) == 5
    assert spectral_norm(small) == pytest.approx(
        np.linalg.norm(small, 2), rel=1e-12)


def test_basis_solves_upper_triangular(rng):
    psi = np.triu(rng.standard_normal((5, 5)))
    b = rng.standard_normal((5, 3))
    y, rho, solve = linalg._basis(psi)
    assert rho == 5
    assert np.allclose(psi @ solve(y.T @ b), b, atol=1e-9)
    # singular upper-triangular: solve within range, minimum-norm
    psi_sing = psi.copy()
    psi_sing[2] = 0.0
    b_range = psi_sing @ rng.standard_normal((5, 3))
    y, rho, solve = linalg._basis(psi_sing)
    assert np.allclose(psi_sing @ solve(y[:, :rho].T @ b_range), b_range,
                       atol=1e-8)


def test_basis_singular_upper_is_minimum_norm(rng):
    psi = np.triu(rng.standard_normal((6, 6)))
    psi[2, 2] = 0.0
    psi[4] = 0.0
    b = psi @ rng.standard_normal((6, 3))
    y, rho, solve = linalg._basis(psi)
    assert np.allclose(solve(y[:, :rho].T @ b), np.linalg.pinv(psi) @ b,
                       atol=1e-10)


@pytest.mark.parametrize("case", ["full_rank", "duplicate_columns", "zero",
                                  "wide"])
def test_basis_spans_v_and_solves_min_norm(case, monkeypatch):
    rng = np.random.default_rng(71)
    v = rng.standard_normal((30, 8))
    if case == "duplicate_columns":
        v = v[:, [0, 1, 2, 1, 3, 0, 4]]
    elif case == "zero":
        v = np.zeros((30, 8))
    elif case == "wide":  # more columns than rows: T is not square
        v = v[:6]
    calls = []

    def counting(name, real):
        def wrapper(x, *args, **kwargs):
            calls.append(name)
            return real(x, *args, **kwargs)
        return wrapper

    for name in ("svd", "qr", "lstsq"):
        monkeypatch.setattr(scipy.linalg, name,
                            counting(name, getattr(scipy.linalg, name)))
    monkeypatch.setattr(linalg, "qr", counting("qr", linalg.qr))
    y, rho, solve = linalg._basis(v)
    x = v @ rng.standard_normal((v.shape[1], 3))
    got = solve(y[:, :rho].T @ x)
    monkeypatch.undo()
    # one QR of V, and the triangle factored at most once
    assert calls == (["qr"] if case == "full_rank" else ["qr", "svd"])
    assert rho == np.linalg.matrix_rank(v)
    y_rho = y[:, :rho]
    assert np.allclose(y_rho.T @ y_rho, np.eye(rho), atol=1e-12)
    assert np.allclose(y_rho @ (y_rho.T @ v), v, atol=1e-12)
    assert np.allclose(got, np.linalg.pinv(v) @ x, atol=1e-10)


@pytest.mark.parametrize("m, c, duplicates", [
    (2000, 83, False), (2000, 83, True), (600, 150, False), (600, 150, True),
    (140, 300, False)])
def test_basis_either_side_of_the_blocked_crossover(m, c, duplicates):
    # LAPACK's geqrf and orgqr run unblocked below 128 columns; the compact-WY
    # QR blocks on both sides, and Y is formed in place in one m x rho buffer
    rng = np.random.default_rng(97)
    v = rng.standard_normal((m, c))
    if duplicates:
        v = v[:, np.r_[:c - 10, rng.integers(0, c - 10, 10)]]
    tracemalloc.start()
    try:
        y, rho, solve = linalg._basis(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if m >= c and not duplicates:  # a singular triangle's SVD needs more
        assert peak <= 3 * v.nbytes
    assert rho == np.linalg.matrix_rank(v) and y.shape == (m, rho)
    assert np.abs(y.T @ y - np.eye(rho)).max() <= 1e-12
    assert np.abs(y @ (y.T @ v) - v).max() <= 1e-12 * np.abs(v).max()
    x = v @ rng.standard_normal((c, 3))
    got = solve(y.T @ x)
    assert np.allclose(got, np.linalg.pinv(v) @ x, atol=1e-10)
    g = rng.standard_normal((3, m))
    right = linalg.apply_right_pinv(g, v.T)
    assert np.allclose(right, g @ np.linalg.pinv(v.T), atol=1e-10)
    # a power-of-two scale keeps Y's bits and scales the solve exactly
    for j in (-300, 300):
        y_j, rho_j, solve_j = linalg._basis(np.ldexp(v, j))
        assert rho_j == rho and y_j.tobytes() == y.tobytes()
        assert solve_j(y.T @ x).tobytes() == np.ldexp(got, -j).tobytes()
        right_j = linalg.apply_right_pinv(g, np.ldexp(v.T, j))
        assert right_j.tobytes() == np.ldexp(right, -j).tobytes()


# ---------------------------------------------------------------------------
# the top-k helper


def test_top_k_repeatable_on_csr():
    csr = scipy.sparse.random(300, 200, density=0.05, random_state=7,
                              format="csr")
    bits = {np.float64(spectral_norm(csr)).tobytes()
            for _ in range(5)}
    assert len(bits) == 1
    assert spectral_norm(csr) == pytest.approx(
        np.linalg.norm(csr.toarray(), 2), rel=1e-12)


@pytest.mark.parametrize("error", ["no_convergence", "arpack_error"])
@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_top_k_falls_back_to_lapack_when_arpack_fails(kind, error,
                                                      monkeypatch):
    a = lowrank_noise(450, 420, 4, 0.1, np.random.default_rng(61))
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    _, s_ref, vt_ref = scipy.linalg.svd(a, full_matrices=False)

    def failing(*args, **kwargs):
        if error == "no_convergence":
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "forced", np.zeros(0), np.zeros((0, 0)))
        raise scipy.sparse.linalg.ArpackError(-9999)

    monkeypatch.setattr(scipy.sparse.linalg, "svds", failing)
    s, v = linalg._top_k(x, 3, vectors=True)
    assert np.array_equal(s, s_ref[:3])
    assert np.array_equal(v, vt_ref[:3].T)
    assert np.array_equal(linalg._top_k(x, 3),
                          scipy.linalg.svd(a, compute_uv=False)[:3])


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_top_k_arpack_matches_lapack(kind):
    a = lowrank_noise(450, 420, 6, 0.05, np.random.default_rng(67))
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    _, s_ref, vt_ref = scipy.linalg.svd(a, full_matrices=False)
    s, v = linalg._top_k(x, 4, vectors=True)
    assert np.all(np.diff(s) <= 0.0)
    assert np.allclose(s, s_ref[:4], rtol=1e-12)
    assert np.allclose(v @ v.T, vt_ref[:4].T @ vt_ref[:4], atol=1e-10)
    op = scipy.sparse.linalg.aslinearoperator(x)
    assert np.allclose(linalg._top_k(op, 4), s_ref[:4], rtol=1e-12)


@pytest.mark.parametrize("shape", [(3000, 83), (800, 182), (200, 100)])
def test_top_k_of_a_tall_input_keeps_the_full_svd_bits(shape, monkeypatch):
    # vectors of a tall dense input come from the SVD of its QR triangle,
    # so no m x n left factor is formed
    x = lowrank_noise(*shape, 5, 0.1, np.random.default_rng(79))
    _, s_ref, vt_ref = scipy.linalg.svd(x, full_matrices=False)
    svd_shapes = []
    lapack_svd = linalg._lapack_svd

    def recording(a, **kw):
        svd_shapes.append(a.shape)
        return lapack_svd(a, **kw)

    monkeypatch.setattr(linalg, "_lapack_svd", recording)
    for k in (1, 5, shape[1] - 2):
        s, v = linalg._top_k(x, k, vectors=True)
        assert np.array_equal(s, s_ref[:k])
        assert np.array_equal(v, vt_ref[:k].T)
    assert svd_shapes == [(shape[1], shape[1])] * 3


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_top_k_all_zero_operand(kind, monkeypatch):
    a = np.zeros((450, 420))
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a

    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK called on an all-zero operand")

    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_arpack)
    s, v = linalg._top_k(x, 3, vectors=True)
    assert np.array_equal(s, np.zeros(3))
    assert np.array_equal(v, np.eye(420, 3))
    assert spectral_norm(x) == 0.0


@pytest.mark.parametrize("kind", ["C", "F", "csr", "csc"])
def test_cols_gathers_in_c_order(kind):
    # repeats, unsorted indices, and more rows than one block of the gather
    a = np.random.default_rng(3).standard_normal((70000, 6))
    src = {"C": a, "F": np.asfortranarray(a),
           "csr": scipy.sparse.csr_matrix(a),
           "csc": scipy.sparse.csc_matrix(a)}[kind]
    idx = np.array([4, 0, 4, 2])
    out = linalg._cols(src, idx)
    assert out.flags.c_contiguous
    assert np.array_equal(out, a[:, idx])


@pytest.mark.parametrize("kind", ["C", "F", "csr", "csc"])
def test_cols_gathers_in_f_order(kind):
    # the selected sets go to LAPACK with their columns contiguous, from
    # C- and F-order operands alike
    a = np.random.default_rng(5).standard_normal((70000, 6))
    src = {"C": a, "F": np.asfortranarray(a),
           "csr": scipy.sparse.csr_matrix(a),
           "csc": scipy.sparse.csc_matrix(a)}[kind]
    idx = np.array([4, 0, 4, 2])
    out = linalg._cols(src, idx, "F")
    assert out.flags.f_contiguous
    assert np.array_equal(out, a[:, idx])
