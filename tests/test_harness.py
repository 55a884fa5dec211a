"""Harness layer: Matrix Market I/O, the adversarial instance generator,
brute-force column oracles, and the command-line interface."""

import json
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

from optcur import cli, cur, linalg, mmio, subset_select
from optcur.instances import (gen_adversarial, brute_force_best_columns,
                              span_restricted_residual_sq)


# ---------------------------------------------------------------------------
# Matrix Market I/O


def test_round_trip_dense(tmp_path, rng):
    a = rng.standard_normal((3, 3))
    path = tmp_path / "a.mtx"
    mmio.write_matrix(path, a)
    back = mmio.read_matrix(path)
    assert isinstance(back, linalg.DenseMatrix)
    assert np.array_equal(np.asarray(back), a)  # 17 digits: bit-exact


def test_round_trip_sparse(tmp_path):
    a = scipy.sparse.random(6, 5, density=0.3, random_state=0, format="csr")
    path = tmp_path / "a.mtx"
    mmio.write_matrix(path, a)
    back = mmio.read_matrix(path)
    assert isinstance(back, linalg.SparseMatrix)
    assert np.array_equal(back.csr.toarray(), a.toarray())


def test_coordinate_one_based_mapping(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 3 2\n1 1 5.0\n2 3 -1.5\n")
    m = mmio.read_matrix(path)
    dense = np.asarray(m.csr.toarray())
    assert dense[0, 0] == 5.0 and dense[1, 2] == -1.5
    assert m.nnz == 2


def test_symmetric_expansion(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 2\n1 1 2.0\n3 1 7.0\n")
    dense = np.asarray(mmio.read_matrix(path).csr.toarray())
    assert dense[0, 0] == 2.0
    assert dense[2, 0] == 7.0 and dense[0, 2] == 7.0


def test_array_column_major(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 2\n1\n2\n3\n4\n")
    assert np.array_equal(np.asarray(mmio.read_matrix(path)),
                          [[1.0, 3.0], [2.0, 4.0]])


def test_comments_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% a comment\n1 1 1\n1 1 3.5\n")
    assert np.asarray(mmio.read_matrix(path).csr.toarray())[0, 0] == 3.5


@pytest.mark.parametrize("content,lineno", [
    ("%%Matrix matrix coordinate real general\n1 1 1\n1 1 1.0\n", 1),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0\n", 1),
    ("%%MatrixMarket matrix coordinate real general\n1 1\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", 3),
    ("%%MatrixMarket matrix array real general\n2 2\n1\nbad\n", 4),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n\n3\n4\n", 4),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n1.5 2\n3\n4\n", 4),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n", 5),
    ("%%MatrixMarket matrix array real general\n2 2\nx\n2\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.0 1 1.0\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1\n1 1 1\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n", 4),
    # the first bad line wins, whatever is wrong with it
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n3 1 1\n1 x 1\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 x 1\n3 1 1\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n"
     "99999999999999999999999 1 1.0\n", 3),
    # size lines: a symmetric matrix is square, no size is negative
    ("%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n6\n", 2),
    ("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n", 2),
    ("%%MatrixMarket matrix array real general\n-1 2\n", 2),
    ("%%MatrixMarket matrix array real general\n% c\n2 -2\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n-2 2 0\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n2 2 -1\n", 2),
])
def test_parse_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(mmio.MatrixMarketError) as err:
        mmio.read_matrix(path)
    assert err.value.lineno == lineno


@pytest.mark.parametrize("content,lineno", [
    ("%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n4\nbad\n6\n", 7),
    ("%%MatrixMarket matrix array real general\n% c\n3 2\n1\n2\n3\n4\n5\n", 9),
    ("%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n", 6),
    ("%%MatrixMarket matrix coordinate real general\n3 3 4\n"
     "1 1 1\n2 2 2\n3 3 3\n4 1 1\n", 6),
    ("%%MatrixMarket matrix coordinate real general\n3 3 5\n"
     "1 1 1\n2 2 2\n3 3 3\n1 x 1\n4 1 1\n", 6),
    ("%%MatrixMarket matrix coordinate real general\n3 3 5\n"
     "1 1 1\n2 2 2\n3 3 3\n", 6),
])
def test_parse_errors_carry_line_numbers_past_the_first_chunk(
        tmp_path, monkeypatch, content, lineno):
    # the body is parsed two lines at a time: line numbers count from the
    # start of the file, not of the chunk
    monkeypatch.setattr(mmio, "_CHUNK", 2)
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(mmio.MatrixMarketError) as err:
        mmio.read_matrix(path)
    assert err.value.lineno == lineno


def test_chunked_read_matches_one_chunk(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((7, 5))
    sparse = scipy.sparse.random(9, 6, density=0.4, random_state=8,
                                 format="csr")
    paths = [tmp_path / "d.mtx", tmp_path / "s.mtx", tmp_path / "y.mtx"]
    mmio.write_matrix(paths[0], dense)
    mmio.write_matrix(paths[1], sparse)
    paths[2].write_text("%%MatrixMarket matrix array real symmetric\n"
                        "3 3\n1\n-0.0\n2\n3\n4\n5\n")
    whole = [mmio.read_matrix(p) for p in paths]
    monkeypatch.setattr(mmio, "_CHUNK", 4)
    for p, w in zip(paths, whole):
        got = mmio.read_matrix(p)
        if isinstance(w, linalg.SparseMatrix):
            got, w = got.csr.toarray(), w.csr.toarray()
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(w).view(np.int64))


def test_truncated_coordinate_file(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 5\n1 1 1.0\n")
    with pytest.raises(mmio.MatrixMarketError):
        mmio.read_matrix(path)


# doubles whose %.17g text is easy to get wrong: negative zero, the smallest
# subnormal, the smallest normal, the largest double, an integer, inexact
# decimals
GOLDEN = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          3.0, 0.1, 1.0 / 3.0]
GOLDEN_TEXT = ["-0", "4.9406564584124654e-324", "2.2250738585072014e-308",
               "1.7976931348623157e+308", "3", "0.10000000000000001",
               "0.33333333333333331"]


def test_write_array_golden_bytes(tmp_path):
    a = np.array(GOLDEN + [-1.5]).reshape(2, 4).T  # column j holds 4j..4j+3
    path = tmp_path / "g.mtx"
    mmio.write_matrix(path, a)
    assert path.read_bytes() == (
        "%%MatrixMarket matrix array real general\n4 2\n"
        + "".join(t + "\n" for t in GOLDEN_TEXT + ["-1.5"])).encode()
    back = np.asarray(mmio.read_matrix(path))
    assert np.array_equal(back.view(np.int64), a.view(np.int64))


def test_write_coordinate_golden_bytes(tmp_path):
    rows = [0, 0, 1, 1, 2, 2, 2]
    cols = [0, 2, 1, 2, 0, 1, 2]
    a = scipy.sparse.csr_matrix((GOLDEN, (rows, cols)), shape=(3, 3))
    path = tmp_path / "g.mtx"
    mmio.write_matrix(path, a)
    assert path.read_bytes() == (
        "%%MatrixMarket matrix coordinate real general\n3 3 7\n"
        + "".join("%d %d %s\n" % (i + 1, j + 1, t)
                  for i, j, t in zip(rows, cols, GOLDEN_TEXT))).encode()
    back = mmio.read_matrix(path).csr
    # the stored -0.0 is an explicit zero, which SparseMatrix drops
    assert np.array_equal(back.data.view(np.int64),
                          np.array(GOLDEN[1:]).view(np.int64))
    assert np.array_equal(back.indices, cols[1:])


@pytest.mark.parametrize("shape", [(300, 500), (70001, 2)])
def test_write_array_in_chunks_matches_one_line_per_value(tmp_path, shape):
    # more values than one formatting chunk: several chunks of whole columns,
    # and columns taller than a chunk
    a = np.random.default_rng(5).standard_normal(shape)
    path = tmp_path / "big.mtx"
    mmio.write_matrix(path, a)
    body = path.read_text().splitlines()[2:]
    assert body == ["%.17g" % v for v in a.T.ravel()]


def test_reader_parses_values_as_float_does(tmp_path):
    rng = np.random.default_rng(6)
    x = (rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)).tolist()
    texts = ([repr(v) for v in x[:100]] + ["%.17g" % v for v in x[100:200]]
             + ["%.5e" % v for v in x[200:300]] + ["%.0f" % v for v in x[300:]])
    path = tmp_path / "a.mtx"
    path.write_text("%%%%MatrixMarket matrix array real general\n400 1\n%s\n"
                    % "\n".join(texts))
    back = np.asarray(mmio.read_matrix(path)).ravel()
    expected = np.array([float(t) for t in texts])
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))


def test_reader_accepts_what_float_accepts(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "1 3\n1_0\n 2.5 \n\t-0.0\t\n")
    back = np.asarray(mmio.read_matrix(path))
    assert np.array_equal(back, [[10.0, 2.5, 0.0]])
    assert np.signbit(back[0, 2])
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n+1 2 1_0\n 2  1   2.5 \n")
    assert np.array_equal(mmio.read_matrix(path).csr.toarray(),
                          [[0.0, 10.0], [2.5, 0.0]])


def test_symmetric_array_fills_both_triangles(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n"
                    "3 3\n1\n-0.0\n2\n3\n4\n5\n")
    back = np.asarray(mmio.read_matrix(path))
    assert np.array_equal(back, [[1, 0, 2], [0, 3, 4], [2, 4, 5]])
    assert np.signbit(back[1, 0]) and np.signbit(back[0, 1])


def test_symmetric_coordinate_keeps_duplicate_sum_order(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n2 1 0.1\n1 2 0.2\n2 1 0.3\n")
    back = mmio.read_matrix(path).csr.toarray()
    assert back[1, 0] == back[0, 1] == (0.1 + 0.2) + 0.3


# ---------------------------------------------------------------------------
# adversarial instances


def test_adversarial_structure():
    inst = gen_adversarial(3, 2, 1e-10)
    assert inst.t == (2 * 3 + 1) * 2
    assert inst.A.shape == (inst.t, inst.t)
    assert inst.ell == 6
    assert inst.B.shape == (2 * (3 + 1), 2 * 3)
    # B is k diagonal copies of D with nnz = k * 2n
    assert np.count_nonzero(inst.B) == 2 * 2 * 3
    assert inst.opt_sq == pytest.approx(6 * (1 + 2e-20 / 2), rel=1e-12)


def test_adversarial_spectrum_closed_form():
    # sigma_i^2 = n + alpha^2/k for i <= 2k, alpha^2/k beyond (up to the
    # structural zero rows)
    for n, k in [(2, 1), (4, 1), (3, 2), (5, 3), (20, 3)]:
        alpha = 1e-3  # large enough that the tail is resolvable in doubles
        inst = gen_adversarial(n, k, alpha)
        s2 = np.sort(np.linalg.svd(inst.A, compute_uv=False) ** 2)[::-1]
        top = n + alpha * alpha / k
        tail = alpha * alpha / k
        assert np.allclose(s2[:2 * k], top, rtol=1e-9)
        nonzero_tail = s2[2 * k:2 * k * n]
        assert np.allclose(nonzero_tail, tail, rtol=1e-6)


def test_adversarial_argument_errors():
    with pytest.raises(ValueError):
        gen_adversarial(1, 1)
    with pytest.raises(ValueError):
        gen_adversarial(3, 0)
    with pytest.raises(ValueError):
        gen_adversarial(3, 1, 0.0)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_rank_k_spanning_subset(rng):
    a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    subset, best = brute_force_best_columns(a, 2, 2)
    assert best <= 1e-16 * np.sum(a * a)


def test_brute_force_monotone_in_c(rng):
    a = rng.standard_normal((6, 6))
    vals = [brute_force_best_columns(a, c, 2)[1] for c in (2, 3, 4)]
    assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9


def test_brute_force_budget():
    with pytest.raises(ValueError):
        brute_force_best_columns(np.ones((2, 40)), 15, 1)


def test_span_restricted_matches_subspace_oracle(rng):
    a = rng.standard_normal((8, 7))
    c = a[:, :4]
    res = span_restricted_residual_sq(a, c, 2)
    from optcur import subspace
    sf = subspace.best_subspace_svd(a, c, 2)
    b = sf.Y @ sf.Delta  # Pi_{C,k}(A) = B B^T A
    direct = np.sum((a - b @ (b.T @ a)) ** 2)
    assert res == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# CLI


def write_test_matrix(tmp_path, seed=151):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((40, 35, )).astype(float) * 0.1
         + rng.standard_normal((40, 3)) @ rng.standard_normal((3, 35)))
    path = tmp_path / "input.mtx"
    mmio.write_matrix(path, a)
    return path


def run_cli(args):
    return cli.main([str(x) for x in args])


def test_decompose_then_verify(tmp_path):
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--variant", "deterministic",
                    "--fidelity", "heuristic", "--out-dir", out])
    assert code == 0
    for name in ("C.mtx", "U.mtx", "R.mtx", "indices.json", "report.json"):
        assert (out / name).exists()
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["config"]["fidelity"] == "heuristic"
    assert "seed" in report["config"]
    assert run_cli(["verify", "--input", inp,
                    "--decomposition", out]) == 0


def test_near_rank_k_report_is_json_that_verify_accepts(tmp_path, capsys):
    # the optimum is about 7e-15 of ||A||^2; it was read as 0, so
    # report.json held "ratio": Infinity and verify exited 3
    rng = np.random.default_rng(1)
    a = (rng.standard_normal((100, 2)) @ rng.standard_normal((2, 100))
         + 1e-7 * rng.standard_normal((100, 100)))
    inp, out = tmp_path / "input.mtx", tmp_path / "out"
    mmio.write_matrix(inp, a)
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "0.5", "--fidelity", "heuristic",
                    "--out-dir", out]) == 0

    def no_constant(name):
        raise ValueError("not JSON: %s" % name)

    report = json.loads((out / "report.json").read_text(),
                        parse_constant=no_constant)
    assert 1.0 <= report["evaluate"]["ratio"] <= 1.2
    assert run_cli(["verify", "--input", inp,
                    "--decomposition", out]) == 0
    capsys.readouterr()


def test_deterministic_artifacts_byte_identical(tmp_path):
    inp = write_test_matrix(tmp_path)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run_cli(["decompose", "--input", inp, "--rank", "2",
                        "--epsilon", "1.0", "--variant", "deterministic",
                        "--fidelity", "heuristic", "--out-dir", out]) == 0
        outs.append(out)
    for name in ("C.mtx", "U.mtx", "R.mtx", "indices.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_missing_rank_flag_exits_2(tmp_path, capsys):
    inp = write_test_matrix(tmp_path)
    assert run_cli(["decompose", "--input", inp, "--epsilon", "0.5"]) == 2
    capsys.readouterr()


def test_oversized_config_exits_2(tmp_path):
    inp = write_test_matrix(tmp_path)
    # paper-constants linear config cannot fit in a 40 x 35 matrix
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "0.5", "--variant", "linear",
                    "--out-dir", tmp_path / "x"]) == 2


def test_missing_input_exits_2(tmp_path):
    assert run_cli(["decompose", "--input", tmp_path / "nope.mtx",
                    "--rank", "2", "--epsilon", "0.5"]) == 2


def test_verify_detects_tampering(tmp_path):
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--variant", "deterministic",
                    "--fidelity", "heuristic", "--out-dir", out]) == 0
    u = np.asarray(mmio.read_matrix(out / "U.mtx"))
    mmio.write_matrix(out / "U.mtx", u * 2.0)
    assert run_cli(["verify", "--input", inp,
                    "--decomposition", out]) == 3


@pytest.mark.parametrize("name", ["C.mtx", "R.mtx"])
def test_verify_detects_one_tampered_entry_of_c_or_r(tmp_path, name):
    # %.17g round-trips C and R exactly, so one entry scaled by 1 + 1e-6 is
    # no longer a column (row) of A, though the error barely moves
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", out]) == 0
    x = np.array(mmio.read_matrix(out / name))
    x[0, 0] *= 1.0 + 1e-6
    mmio.write_matrix(out / name, x)
    assert run_cli(["verify", "--input", inp,
                    "--decomposition", out]) == 3


@pytest.mark.parametrize("case", ["past_the_end", "negative", "float",
                                  "missing", "not_a_list", "not_an_object"])
def test_verify_rejects_indices_that_name_no_column(tmp_path, capsys, case):
    # 35 on a 40 x 35 input used to end in an IndexError traceback, and a
    # missing or scalar entry, or a file holding no JSON object, in another
    # traceback; j - 35 wraps onto column j, and j.0 was read as j, so both
    # passed as consistent
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", out]) == 0
    with open(out / "indices.json") as fh:
        idx = json.load(fh)
    j = idx["col_indices"][0]
    if case == "missing":
        del idx["col_indices"]
    elif case == "not_a_list":
        idx["col_indices"] = j
    elif case == "not_an_object":
        idx = [idx["col_indices"], idx["row_indices"]]
    else:
        idx["col_indices"][0] = {"past_the_end": 35, "negative": j - 35,
                                 "float": float(j)}[case]
    with open(out / "indices.json", "w") as fh:
        json.dump(idx, fh)
    capsys.readouterr()
    assert run_cli(["verify", "--input", inp, "--decomposition", out]) == 3
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert res["consistent"] is False
    assert "col_indices" in res["error"]


def test_verify_exits_3_when_a_norm_overflows(tmp_path, capsys):
    # at 1e160 ||A||^2 overflows; evaluate used to report err_sq=inf,
    # opt_sq=0, ratio=0 and exact=True for a decomposition scaled to match
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", out]) == 0
    big = tmp_path / "big.mtx"
    mmio.write_matrix(big, np.asarray(mmio.read_matrix(inp)) * 1e160)
    for name, scale in (("C.mtx", 1e160), ("U.mtx", 1e-160),
                        ("R.mtx", 1e160)):
        path = out / name
        mmio.write_matrix(path, np.asarray(mmio.read_matrix(path)) * scale)
    capsys.readouterr()
    assert run_cli(["verify", "--input", big, "--decomposition", out]) == 3
    assert "norm not representable" in capsys.readouterr().err


@pytest.mark.parametrize("name,cut", [
    ("C", np.s_[:, 1:]), ("U", np.s_[1:]), ("U", np.s_[:, 1:]),
    ("R", np.s_[1:])], ids=["C-column", "U-row", "U-column", "R-row"])
def test_verify_rejects_artifacts_of_the_wrong_shape(tmp_path, capsys, name,
                                                     cut):
    # a U one row or column short ended in numpy's matmul error and exit 2
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", out]) == 0
    path = out / (name + ".mtx")
    mmio.write_matrix(path, np.asarray(mmio.read_matrix(path))[cut])
    capsys.readouterr()
    assert run_cli(["verify", "--input", inp, "--decomposition", out]) == 3
    captured = capsys.readouterr()
    res = json.loads(captured.out.splitlines()[-1])
    assert res["consistent"] is False
    assert res["error"].startswith(name + " is ")
    assert captured.err == ""


def _drop(key):
    return lambda d: {name: v for name, v in d.items() if name != key}


@pytest.mark.parametrize("file,edit,field", [
    ("indices.json", _drop("k"), "k"),
    ("indices.json", _drop("col_scales"), "col_scales"),
    ("report.json", _drop("evaluate"), "evaluate.ratio"),
    ("report.json", lambda d: dict(d, evaluate=dict(d["evaluate"],
                                                    ratio="1.0")),
     "evaluate.ratio"),
    ("report.json", lambda d: [d], "evaluate.ratio"),
    ("indices.json", lambda d: dict(d, k="2"), "k"),
    ("indices.json", lambda d: dict(d, row_scales="x"), "row_scales"),
    ("indices.json", lambda d: dict(d, k=0), "k"),
    ("indices.json", lambda d: dict(d, k=True), "k"),
    ("indices.json", lambda d: dict(d, col_scales=d["col_scales"][1:]),
     "col_scales"),
    ("indices.json", lambda d: dict(d, row_scales=[float("nan")]
                                    + d["row_scales"][1:]), "row_scales"),
], ids=["no-k", "no-col_scales", "no-evaluate", "ratio-str", "report-list",
        "k-str", "row_scales-str", "k-0", "k-true", "col_scales-short",
        "row_scales-nan"])
def test_verify_rejects_malformed_artifacts(tmp_path, capsys, file, edit,
                                            field):
    # a missing k, col_scales or evaluate, a string ratio and a report
    # holding a list used to end in a KeyError or TypeError traceback, and
    # k "2" and row_scales "x" passed as consistent
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", out]) == 0
    path = out / file
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert run_cli(["verify", "--input", inp, "--decomposition", out]) == 3
    captured = capsys.readouterr()
    res = json.loads(captured.out.splitlines()[-1])
    assert res["consistent"] is False
    assert field in res["error"]
    assert captured.err == ""


def test_gen_adversarial_cli(tmp_path):
    out = tmp_path / "adv.mtx"
    assert run_cli(["gen-adversarial", "--n", "3", "--k", "1",
                    "--out", out]) == 0
    a = np.asarray(mmio.read_matrix(out))
    assert a.shape == (7, 7)


def test_bench_cli(tmp_path):
    inp = write_test_matrix(tmp_path)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"input": str(inp), "rank": 2, "epsilon": 1.0,
         "variant": "deterministic", "fidelity": "heuristic"},
        {"input": str(inp), "rank": 2, "epsilon": 1.0,
         "variant": "linear", "fidelity": "heuristic", "trials": 2},
    ]))
    assert run_cli(["bench", "--suite", suite]) == 0


def test_bench_reports_a_numerical_failure_and_runs_on(tmp_path, capsys,
                                                       monkeypatch):
    # the first entry's decomposition fails: bench prints its input and the
    # error, still runs the second entry, and exits 3
    inp = str(write_test_matrix(tmp_path))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([dict(SUITE_ENTRY, input=inp)] * 2))
    decompose, calls = cur.decompose, []

    def failing_once(a, cfg, rng=None):
        calls.append(cfg)
        if len(calls) == 1:
            raise linalg.NumericalError("no admissible index at step 0")
        return decompose(a, cfg, rng)

    monkeypatch.setattr(cur, "decompose", failing_once)
    capsys.readouterr()
    assert run_cli(["bench", "--suite", suite]) == 3
    first, second = map(json.loads, capsys.readouterr().out.splitlines())
    assert first == {"input": inp, "error": "no admissible index at step 0"}
    assert second["input"] == inp and second["ratio"] >= 1.0 - 1e-12
    assert len(calls) == 2


def test_trials_keep_best_ratio(tmp_path):
    inp = write_test_matrix(tmp_path)
    mat = mmio.read_matrix(inp)
    cfg = cur.CurConfig(k=2, epsilon=1.0, fidelity="heuristic", seed=3)
    dec, rep, seed = cli._run_decompose(mat, cfg, 3)
    singles = []
    for trial in range(3):
        s = cli._derived_seed(3, trial)
        d = cur.decompose(mat, cfg, np.random.default_rng(s))
        singles.append(cur.evaluate(mat, d).ratio)
    assert rep.ratio == pytest.approx(min(singles), rel=1e-12)


def test_trials_draw_distinct_seeds(tmp_path, monkeypatch):
    mat = mmio.read_matrix(write_test_matrix(tmp_path))
    cfg = cur.CurConfig(k=2, epsilon=1.0, fidelity="heuristic", seed=7)
    picks = []
    decompose = cur.decompose

    def recording(a, c, rng=None):
        dec = decompose(a, c, rng)
        picks.append(tuple(dec.col_indices))
        return dec

    monkeypatch.setattr(cur, "decompose", recording)
    cli._run_decompose(mat, cfg, 4)
    seeds = [cli._derived_seed(7, t) for t in range(4)]
    assert seeds[0] == 7 and len(set(seeds)) == 4
    assert len(picks) == 4 and len(set(picks)) >= 2


def test_report_names_the_winning_seed(tmp_path):
    # on this input trial 2 of 4 wins: report.json records its seed, the
    # seed reproduces the indices, and no other seed is recorded
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--seed", "0", "--trials", "4", "--out-dir", out]) == 0
    report = json.loads((out / "report.json").read_text())
    winner = report["config"]["winning_seed"]
    assert winner == cli._derived_seed(0, 2)
    assert "seed" not in report["diagnostics"]
    idx = json.loads((out / "indices.json").read_text())
    cfg = cur.CurConfig(k=2, epsilon=1.0, fidelity="heuristic")
    dec = cur.decompose(mmio.read_matrix(inp), cfg,
                        np.random.default_rng(winner))
    assert idx["col_indices"] == dec.col_indices.tolist()
    assert idx["row_indices"] == dec.row_indices.tolist()


def test_cli_runs_as_a_module(tmp_path):
    # `python -m optcur.cli` exits with main()'s code
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    inp, out = write_test_matrix(tmp_path), tmp_path / "out"
    runs = [(["gen-adversarial", "--n", "3", "--k", "1",
              "--out", tmp_path / "adv.mtx"], 0),
            (["decompose", "--input", inp, "--rank", "2", "--epsilon", "1.0",
              "--fidelity", "heuristic", "--out-dir", out], 0),
            (["verify", "--input", inp, "--decomposition", out], 0),
            (["decompose", "--input", inp, "--rank", "2", "--epsilon", "1.0",
              "--bogus"], 2)]
    outputs = []
    for args, code in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "optcur.cli"] + [str(x) for x in args],
            env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        outputs.append(proc.stdout)
    assert json.loads(outputs[2])["consistent"] is True
    assert "unrecognized arguments: --bogus" in proc.stderr


@pytest.mark.parametrize("variant", ["linear", "deterministic"])
def test_dense_variants_read_a_coordinate_file_as_its_array(tmp_path,
                                                            variant):
    # a coordinate file is read as a SparseMatrix, which the dense variants
    # densify: the artifacts are those of the same matrix in an array file
    dense = write_test_matrix(tmp_path)
    coord = tmp_path / "coord.mtx"
    a = np.asarray(mmio.read_matrix(dense))
    mmio.write_matrix(coord, scipy.sparse.csr_matrix(a))
    assert isinstance(mmio.read_matrix(coord), linalg.SparseMatrix)
    outs = []
    for inp in (dense, coord):
        out = tmp_path / inp.stem
        assert run_cli(["decompose", "--input", inp, "--rank", "2",
                        "--epsilon", "1.0", "--variant", variant,
                        "--fidelity", "heuristic", "--out-dir", out]) == 0
        outs.append(out)
    for name in ("C.mtx", "U.mtx", "R.mtx", "indices.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_lower_bound_sweep_script_runs(monkeypatch, capsys):
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "lower_bound_sweep.py")
    monkeypatch.setattr(sys, "argv", [script, "--n", "3", "--k", "1",
                                      "--max-c", "2"])
    runpy.run_path(script, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("instance: t=") and len(lines) == 4


def test_linalg_error_exits_3(tmp_path, monkeypatch):
    inp = write_test_matrix(tmp_path)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cur, "decompose", failing)
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", tmp_path / "out"]) == 3


def test_numerical_error_inside_decompose_exits_3(tmp_path, capsys,
                                                  monkeypatch):
    # every leverage draw repeats one index, so each redraw of the first
    # stage loses rank and decompose raises NumericalError: exit 3, one line
    # on stderr and no output directory
    inp = write_test_matrix(tmp_path)
    real = subset_select.rand_sampling

    def repeating(x, r, rng):
        pair = real(x, r, rng)
        return subset_select.SamplingPair(
            indices=np.full(r, pair.indices[0]),
            scales=np.full(r, pair.scales[0]))

    monkeypatch.setattr(subset_select, "rand_sampling", repeating)
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "numerical failure: leverage-sampled factor lost rank repeatedly\n")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["array", "coordinate"])
def test_a_nan_entry_exits_2(tmp_path, capsys, fmt):
    # a NaN parses as a double, so it is the finiteness check on the input
    # that rejects it: exit 2, one line on stderr and no output directory
    a = np.random.default_rng(157).standard_normal((40, 35))
    inp = tmp_path / "nan.mtx"
    mmio.write_matrix(inp, scipy.sparse.csr_matrix(a) if fmt == "coordinate"
                      else a)
    lines = inp.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1] + ["nan"])
    inp.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "finite" in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


SUITE_ENTRY = {"input": None, "rank": 2, "epsilon": 1.0,
               "variant": "linear", "fidelity": "heuristic"}


@pytest.mark.parametrize("case", ["decompose-0", "decompose-neg", "bench-0",
                                  "no-input", "no-rank", "no-epsilon",
                                  "unknown-key", "trials-0-after-good",
                                  "trials-str-after-good",
                                  "trials-true-after-good",
                                  "missing-input-after-good",
                                  "null-input-after-good", "suite-object",
                                  "number-after-good", "list-after-good"])
def test_bad_trials_and_suite_entries_exit_2(tmp_path, capsys, case):
    # a trial count below 1, a suite that is not a list of objects, and a
    # suite entry without a required key, with an unknown one, with a bad
    # trial count or a missing input file are argument errors: exit 2, and
    # nothing runs or is written
    inp = write_test_matrix(tmp_path)
    out = tmp_path / "out"
    if case.startswith("decompose"):
        trials = "0" if case == "decompose-0" else "-3"
        assert run_cli(["decompose", "--input", inp, "--rank", "2",
                        "--epsilon", "1.0", "--fidelity", "heuristic",
                        "--trials", trials, "--out-dir", out]) == 2
        assert not out.exists()
        return
    good = dict(SUITE_ENTRY, input=str(inp))
    if case == "bench-0":
        entries = [dict(good, trials=0)]
    elif case == "unknown-key":  # a misspelt "variant"
        entries = [good, dict(good, varient="sparse")]
    elif case == "trials-0-after-good":
        entries = [good, dict(good, trials=0)]
    elif case == "trials-str-after-good":
        entries = [good, dict(good, trials="2")]
    elif case == "trials-true-after-good":  # a bool is no trial count
        entries = [good, dict(good, trials=True)]
    elif case == "missing-input-after-good":
        entries = [good, dict(good, input=str(tmp_path / "missing.mtx"))]
    elif case == "null-input-after-good":
        entries = [good, dict(good, input=None)]
    elif case == "suite-object":
        entries = {"input": str(inp)}
    elif case == "number-after-good":
        entries = [good, 5]
    elif case == "list-after-good":
        entries = [good, ["input", "rank", "epsilon"]]
    else:
        bad = dict(good)
        del bad[case[len("no-"):]]
        entries = [good, bad]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli(["bench", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if case in ("suite-object", "number-after-good", "list-after-good"):
        assert "not a JSON" in captured.err


@pytest.mark.parametrize(
    "key,value,after_good",
    [("rank", "2", False), ("rank", 2.5, False), ("epsilon", "0.5", False),
     ("rank", "2", True)],
    ids=["rank-2", "rank-2.5", "epsilon-0.5", "rank-2-after-good"])
def test_mistyped_suite_entry_exits_2(tmp_path, capsys, key, value,
                                      after_good):
    # a rank that is not an integer or an epsilon that is not a number is
    # an argument error, not a traceback, and no entry runs before it
    suite = tmp_path / "suite.json"
    entry = dict(SUITE_ENTRY, input=str(write_test_matrix(tmp_path)))
    entries = [dict(entry, **{key: value})]
    suite.write_text(json.dumps([entry] * after_good + entries))
    assert run_cli(["bench", "--suite", suite]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seed", ["1", 1.5, -1, True, [1]])
@pytest.mark.parametrize("after_good", [False, True])
def test_suite_seed_that_is_no_integer_from_0_exits_2(tmp_path, capsys,
                                                      seed, after_good):
    # CurConfig checks the seed, so bench rejects it with the other entry
    # checks, before any entry runs, and prints no traceback
    suite = tmp_path / "suite.json"
    entry = dict(SUITE_ENTRY, input=str(write_test_matrix(tmp_path)))
    suite.write_text(json.dumps([entry] * after_good
                                + [dict(entry, seed=seed)]))
    assert run_cli(["bench", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be an integer >= 0\n"


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_gen_adversarial_rejects_a_non_finite_alpha(tmp_path, capsys, alpha):
    out = tmp_path / "adv.mtx"
    # "--alpha=-inf", as argparse reads "-inf" alone as an option
    assert run_cli(["gen-adversarial", "--n", "3", "--k", "1",
                    "--alpha=" + alpha, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite alpha > 0" in captured.err
    assert not out.exists()
    with pytest.raises(ValueError):
        gen_adversarial(3, 1, float(alpha))


def test_public_surface():
    # a public name added or dropped shows here as a reviewed diff
    import optcur
    assert sorted(optcur.__all__) == [
        "AdversarialInstance", "CurConfig", "CurDecomposition", "DenseMatrix",
        "EvalReport", "MatrixMarketError", "NumericalError",
        "SamplingPair", "SignSketch", "SparseEmbedding",
        "SparseMatrix", "SubspaceFactor", "SvdFactorization",
        "adaptive", "adaptive_cols",
        "adaptive_rows_d", "approx_subspace_svd",
        "approx_svd", "audit", "best_subspace_svd",
        "brute_force_best_columns", "bss_sampling", "bss_sampling_sparse",
        "cur", "cur_deterministic", "cur_input_sparsity", "cur_linear_time",
        "decompose", "deterministic_svd", "evaluate", "frobenius_sq",
        "gen_adversarial", "instances", "linalg", "make_sse", "mmio", "pinv",
        "rand_sampling", "randomized_svd", "rank_constrained_u",
        "read_matrix", "sketch", "sparse_svd", "subset_select", "subspace",
        "svd", "truncate", "write_matrix"]
