"""Sketching operators: CountSketch embeddings and sign sketches.

Deterministic structure is asserted exactly; norm/subspace preservation is
checked Monte-Carlo against the calibrated success fractions.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from optcur import sketch
from optcur.linalg import pinv

from conftest import lowrank_noise, random_orthonormal


# ---------------------------------------------------------------------------
# construction


def test_make_sse_single_column():
    w = sketch.make_sse(1, 5, np.random.default_rng(0))
    dense = w.as_csr().toarray()
    assert dense.shape == (5, 1)
    assert np.sum(np.abs(dense)) == 1.0
    assert np.abs(dense).max() == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60), st.integers(1, 30), st.integers(0, 10 ** 6))
def test_make_sse_one_nonzero_per_column(n, xi, seed):
    w = sketch.make_sse(n, xi, np.random.default_rng(seed))
    dense = w.as_csr().toarray()
    assert np.all(np.count_nonzero(dense, axis=0) == 1)
    assert np.all(np.isin(dense[dense != 0], [-1.0, 1.0]))


def test_make_sse_seed_determinism():
    w1 = sketch.make_sse(30, 7, np.random.default_rng(99))
    w2 = sketch.make_sse(30, 7, np.random.default_rng(99))
    assert np.array_equal(w1.h, w2.h)
    assert np.array_equal(w1.y, w2.y)


def test_make_sse_rejects_bad_width():
    with pytest.raises(ValueError):
        sketch.make_sse(5, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# apply: W A is the CSR product as_csr() @ A


def test_sse_product_zero():
    w = sketch.make_sse(6, 4, np.random.default_rng(1))
    out = w.as_csr() @ np.zeros((6, 3))
    assert out.shape == (4, 3)
    assert np.all(out == 0.0)


def test_sse_product_single_entry():
    w = sketch.make_sse(6, 4, np.random.default_rng(2))
    i, j = 3, 1
    a = np.zeros((6, 3))
    a[i, j] = 1.0
    out = w.as_csr() @ a
    assert out[w.h[i], j] == w.y[i]
    assert np.count_nonzero(out) == 1


def test_sse_product_sparse_matches_dense(rng):
    csr = scipy.sparse.random(40, 7, density=0.2, random_state=5, format="csr")
    w = sketch.make_sse(40, 11, np.random.default_rng(4)).as_csr()
    assert np.allclose((w @ csr).toarray(), w @ csr.toarray())


def test_sse_product_frobenius_preservation():
    # xi = 400 preserves the Frobenius norm of a 500 x 4 matrix within
    # (1 +- 0.5) in at least 95/100 seeds
    a = np.random.default_rng(7).standard_normal((500, 4))
    fro = np.sum(a * a)
    hits = 0
    for seed in range(100):
        w = sketch.make_sse(500, 400, np.random.default_rng(seed))
        wa = w.as_csr() @ a
        hits += 0.5 * fro <= np.sum(wa * wa) <= 1.5 * fro
    assert hits >= 95


def test_apply_sse_compressed_preserves_column_geometry(rng):
    a = rng.standard_normal((30, 5))
    w = sketch.make_sse(30, 10 ** 6, rng)  # huge width: most buckets empty
    comp = sketch.apply_sse_compressed(w, a)
    assert comp.shape[0] <= 30
    # column Gram (hence norms and right singular structure) is identical to
    # the full-width apply, whose empty rows contribute nothing
    full_gram_diag = np.sum(a * a, axis=0)  # one bucket per column here
    assert np.allclose(np.sum(comp * comp, axis=0), full_gram_diag, atol=1e-9)


def test_apply_sse_compressed_matches_sse_product_gram(rng):
    a = rng.standard_normal((25, 4))
    w = sketch.make_sse(25, 13, rng)
    full = w.as_csr() @ a
    comp = sketch.apply_sse_compressed(w, a)
    assert np.allclose(comp.T @ comp, full.T @ full, atol=1e-10)


# ---------------------------------------------------------------------------
# sign sketch / JLT: a sign sketch of height jlt_rows(n) on B (m x n)


def jlt(b, rng):
    m, n = b.shape
    return sketch.make_sign_sketch(sketch.jlt_rows(n), m, rng).S @ b


def test_jlt_row_count_formula():
    # failure probability 1/n: s = ceil(8 * (4 + 2) * ln n)
    assert sketch.jlt_rows(100) == int(np.ceil(48.0 * np.log(100)))


def test_jlt_zero_matrix():
    out = jlt(np.zeros((10, 4)), np.random.default_rng(0))
    assert out.shape == (sketch.jlt_rows(4), 4)
    assert np.all(out == 0.0)


def test_sign_sketch_entries():
    sk = sketch.make_sign_sketch(5, 9, np.random.default_rng(11))
    assert np.all(np.isin(sk.S, [1.0 / np.sqrt(5), -1.0 / np.sqrt(5)]))
    unscaled = sketch.make_sign_sketch(5, 9, np.random.default_rng(11),
                                       scaled=False)
    assert np.all(np.isin(unscaled.S, [1.0, -1.0]))


def test_jlt_column_norm_preservation():
    # all 50 column norms of a 300 x 50 matrix within [1/2, 3/2] in
    # at least 99/100 seeds
    b = np.random.default_rng(13).standard_normal((300, 50))
    true_sq = np.sum(b * b, axis=0)
    hits = 0
    for seed in range(100):
        sb = jlt(b, np.random.default_rng(seed))
        ratio = np.sum(sb * sb, axis=0) / true_sq
        hits += np.all((ratio >= 0.5) & (ratio <= 1.5))
    assert hits >= 99


# ---------------------------------------------------------------------------
# embedding properties


def test_subspace_embedding_singular_values():
    # rank-rho subspace, xi = 40 rho^2 / eps^2, eps = 0.5: all singular
    # values of W @ basis within [1 - eps, 1 + eps] in >= 95/100 seeds
    rho, eps = 4, 0.5
    rng0 = np.random.default_rng(17)
    basis = random_orthonormal(300, rho, rng0)
    xi = int(np.ceil(40.0 * rho * rho / (eps * eps)))
    hits = 0
    for seed in range(100):
        w = sketch.make_sse(300, xi, np.random.default_rng(seed))
        s = np.linalg.svd(w.as_csr() @ basis, compute_uv=False)
        hits += (s.min() >= 1.0 - eps) and (s.max() <= 1.0 + eps)
    assert hits >= 95


def test_sketched_regression_cost():
    # argmin ||W A X - W B|| has unsketched cost <= (1 + eps) * optimum in
    # >= 90/100 seeds at the subspace-embedding width
    eps = 0.5
    rng0 = np.random.default_rng(23)
    a = rng0.standard_normal((200, 4))
    b = rng0.standard_normal((200, 3))
    x_opt = np.asarray(pinv(a)) @ b
    opt_cost = np.sum((a @ x_opt - b) ** 2)
    d = a.shape[1] + b.shape[1]
    xi = int(np.ceil(40.0 * d * d / (eps * eps)))
    hits = 0
    for seed in range(100):
        w = sketch.make_sse(200, xi, np.random.default_rng(seed))
        wa = w.as_csr() @ a
        wb = w.as_csr() @ b
        x = np.asarray(pinv(wa)) @ wb
        hits += np.sum((a @ x - b) ** 2) <= (1.0 + eps) * opt_cost
    assert hits >= 90
