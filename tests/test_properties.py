"""End-to-end properties of `decompose` over small inputs of every kind the
API admits: dense and CSR, zero and duplicate columns, low rank, scales
2^-300 to 2^300, and every variant with adaptive draws that fit."""

import numpy as np
import scipy.sparse
from hypothesis import given, settings, strategies as st

from optcur import cur, linalg


@st.composite
def cases(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(4 * k + 1, 40))
    n = draw(st.integers(4 * k + 1, 40))
    # the deterministic picker scores (4m)^2 draws of c2 rows, so its draws
    # stay few enough that the property runs in seconds
    variant = draw(st.sampled_from(cur.VARIANTS))
    most = 4 if variant == "deterministic" else 12
    cfg = cur.CurConfig(
        k=k, epsilon=draw(st.sampled_from([0.25, 0.5, 1.0])), variant=variant,
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        fidelity=draw(st.sampled_from(["paper", "heuristic"])),
        c2=draw(st.integers(1, min(n - 4 * k, most))),
        r2=draw(st.integers(1, min(m - 4 * k, most))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(0, 6))
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    a += draw(st.sampled_from([0.0, 1e-8, 0.1])) * rng.standard_normal((m, n))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        a[:, j] = 0.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=3)):
        a[:, j] = a[:, i]
    a = np.ldexp(a, draw(st.sampled_from([-300, -40, 0, 40, 300])))
    if draw(st.booleans()):
        a = scipy.sparse.csr_matrix(a)
    return a, cfg


def _arrays(dec):
    return (dec.col_indices, dec.col_scales, dec.row_indices, dec.row_scales,
            dec.C, dec.U, dec.R)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_decompose_keeps_its_invariants_on_every_admitted_input(case):
    a, cfg = case
    try:
        dec = cur.decompose(a, cfg)
        rep = cur.evaluate(a, dec)
    except linalg.NumericalError:
        return  # the typed error; anything else fails the property
    x = a.toarray() if scipy.sparse.issparse(a) else a
    # C and R are A's raw columns and rows, bit for bit
    assert np.ascontiguousarray(dec.C).tobytes() == np.ascontiguousarray(
        x[:, dec.col_indices]).tobytes()
    assert np.ascontiguousarray(dec.R).tobytes() == np.ascontiguousarray(
        x[dec.row_indices]).tobytes()
    assert all(np.all(np.isfinite(y)) for y in _arrays(dec))
    assert np.isfinite(rep.err_sq) and np.isfinite(rep.opt_sq)
    # no decomposition beats the best rank-k matrix
    assert rep.err_sq >= rep.opt_sq - 1e-9 * linalg.frobenius_sq(x)
    # the seed alone fixes every byte
    again = cur.decompose(a, cfg)
    for y, z in zip(_arrays(dec), _arrays(again)):
        assert np.asarray(y).tobytes() == np.asarray(z).tobytes()
