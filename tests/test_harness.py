"""Harness layer: Matrix Market I/O, the adversarial instance generator,
brute-force column oracles, and the command-line interface."""

import json
import os

import numpy as np
import pytest
import scipy.sparse

from optcur import cli, cur, linalg, mmio
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


def test_linalg_error_exits_3(tmp_path, monkeypatch):
    inp = write_test_matrix(tmp_path)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cur, "decompose", failing)
    assert run_cli(["decompose", "--input", inp, "--rank", "2",
                    "--epsilon", "1.0", "--fidelity", "heuristic",
                    "--out-dir", tmp_path / "out"]) == 3


SUITE_ENTRY = {"input": None, "rank": 2, "epsilon": 1.0,
               "variant": "linear", "fidelity": "heuristic"}


@pytest.mark.parametrize("case", ["decompose-0", "decompose-neg", "bench-0",
                                  "no-input", "no-rank", "no-epsilon"])
def test_bad_trials_and_suite_entries_exit_2(tmp_path, capsys, case):
    # a trial count below 1 and a suite entry without a required key are
    # argument errors: exit 2, and nothing runs or is written
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
    else:
        bad = dict(good)
        del bad[case[len("no-"):]]
        entries = [good, bad]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli(["bench", "--suite", suite]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key,value", [("rank", "2"), ("rank", 2.5),
                                       ("epsilon", "0.5")])
def test_mistyped_suite_entry_exits_2(tmp_path, capsys, key, value):
    # a rank that is not an integer or an epsilon that is not a number is
    # an argument error, not a traceback
    suite = tmp_path / "suite.json"
    entry = dict(SUITE_ENTRY, input=str(write_test_matrix(tmp_path)))
    suite.write_text(json.dumps([dict(entry, **{key: value})]))
    assert run_cli(["bench", "--suite", suite]) == 2
    assert capsys.readouterr().out == ""


def test_public_surface():
    # a public name added or dropped shows here as a reviewed diff
    import optcur
    assert sorted(optcur.__all__) == [
        "AdversarialInstance", "CurConfig", "CurDecomposition", "DenseMatrix",
        "EvalReport", "FactorZ", "MatrixMarketError", "NumericalError",
        "SamplingPair", "SignSketch", "SparseEmbedding",
        "SparseMatrix", "SubspaceFactor", "SvdFactorization",
        "WeightedSelection", "adaptive", "adaptive_cols",
        "adaptive_cols_sparse", "adaptive_rows_d", "approx_subspace_svd",
        "approx_svd", "audit", "best_subspace_svd",
        "brute_force_best_columns", "bss_sampling", "bss_sampling_sparse",
        "cur", "cur_deterministic", "cur_input_sparsity", "cur_linear_time",
        "decompose", "deterministic_svd", "evaluate", "frobenius_sq",
        "gen_adversarial", "instances", "linalg", "make_sse", "mmio", "pinv",
        "rand_sampling", "randomized_svd", "rank_constrained_u",
        "read_matrix", "sketch", "sparse_svd", "subset_select", "subspace",
        "svd", "truncate", "write_matrix"]
