"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import optcur  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Reduced copies of each workload: same kind and variant, small enough that
# a call takes well under a second.
SMALL = {
    "linear-paper": dict(m=120, n=120, config=dict(
        workloads.WORKLOADS["linear-paper"].config, c2=100, r2=100)),
    "sparse-large": dict(m=600, n=500, noise=0.02),
    # the CLI has no c/r overrides: heuristic k=5, eps=0.2 needs n >= 220
    "cli-roundtrip": dict(m=260, n=240),
}


def small(name, **extra):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name],
                               **extra)


def as_dense(a):
    return a.toarray() if hasattr(a, "toarray") else a


@pytest.mark.parametrize("name", sorted(SMALL))
def test_instances_repeat_per_seed(name, tmp_path):
    wl = small(name)
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first = workloads.make_instances(wl, 3, str(dirs[0]))
    again = workloads.make_instances(wl, 3, str(dirs[1]))
    other = workloads.make_instances(wl, 4, str(dirs[2]))
    for x, y, z in zip(first, again, other):
        assert np.array_equal(as_dense(x.a), as_dense(y.a))
        assert x.seed == y.seed
        assert not np.array_equal(as_dense(x.a), as_dense(z.a))
    if wl.kind == "cli":
        with open(first[0].path) as fa, open(again[0].path) as fb:
            assert fa.read() == fb.read()


def test_dense_mtx_round_trips(tmp_path):
    a = np.random.default_rng(0).standard_normal((7, 5))
    a[0, 0], a[1, 1] = -0.0, 5e-324
    path = str(tmp_path / "a.mtx")
    workloads.write_dense_mtx(path, a)
    back = np.asarray(optcur.read_matrix(path))
    assert np.array_equal(back.view(np.int64), a.view(np.int64))


def test_sparse_generator_memory_is_order_nnz():
    m = n = 20000
    density = 1e-4  # nnz about 8e4 out of 4e8 entries
    tracemalloc.start()
    try:
        a = workloads.sparse_lowrank(m, n, density, 5,
                                     np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.shape == (m, n)
    assert 1.9 * density * m * n < a.nnz <= 2 * density * m * n
    assert peak < 2000 * a.nnz  # a dense m x n product needs 3.2 GB


def test_sparse_generator_matches_test_helper_distribution():
    a = workloads.sparse_lowrank(400, 300, 0.05, 5, np.random.default_rng(1))
    # uniform [0, 1) values on half the entries, zero-mean rank-5 products
    # on the other half
    fill = a.nnz / (400 * 300)
    assert 0.09 < fill <= 0.1
    assert abs(a.data.mean() - 0.25) < 0.1


def span(i, parent, name, start, end):
    return [i, parent, name, start, end, 0, None]


def test_self_time_arithmetic():
    spans = [
        span(0, None, "cur.decompose", 0.0, 10.0),
        span(1, 0, "approx_svd.randomized_svd", 1.0, 4.0),
        span(2, 1, "linalg.svd", 2.0, 3.5),
        span(3, 0, "linalg.qr", 5.0, 6.0),
        span(4, 0, "subspace.best_subspace_svd", 6.0, 9.0),
        span(5, 4, "linalg.qr", 6.5, 7.0),
        span(6, None, "cur.evaluate", 10.0, 12.0),
        span(7, 6, "cur.optimal_residual_sq", 10.5, 11.5),
        span(8, 7, "linalg.svd", 10.6, 11.4),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 3 - 1 - 3, 3 - 1.5, 1.5, 1.0,
                                 3 - 0.5, 0.5, 2 - 1, 1 - 0.8, 0.8])
    m = tracing.layer_metrics(spans, 2, traced_s=6.0, untraced_s=5.5)
    assert m["linalg.s"] == pytest.approx((1.5 + 1.0 + 0.5 + 0.8) / 2)
    assert m["cur.glue_s"] == pytest.approx((3 + 1 + 0.2) / 2)
    assert m["approx_svd.s"] == pytest.approx(1.5 / 2)
    assert m["subspace.s"] == pytest.approx(2.5 / 2)
    assert m["linalg.svd_s"] == pytest.approx((1.5 + 0.8) / 2)
    assert m["linalg.svd_calls"] == 1.0
    assert m["cur.opt_residual_s"] == pytest.approx(0.5)
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    layers = sum(m[k] for k in tracing.SELF_TIME)
    assert layers == pytest.approx(12.0 / 2)


def test_tracer_patches_and_restores_every_binding():
    original = optcur.cur.randomized_svd
    tracer = tracing.Tracer()
    with tracer:
        assert optcur.cur.randomized_svd is not original
        assert optcur.randomized_svd is optcur.cur.randomized_svd
        assert optcur.linalg.as_array is optcur.cur.as_array
    assert optcur.cur.randomized_svd is original
    assert optcur.randomized_svd is original
    assert optcur.approx_svd.randomized_svd is original


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_of_each_workload(name, tmp_path):
    wl = small(name)
    pool = workloads.make_instances(wl, 0, str(tmp_path))
    plain = workloads.run_call(wl, pool[0], 2)
    assert plain.failures == []
    assert plain.decompose_s > 0 and plain.evaluate_s > 0
    assert plain.ratio <= workloads.bound_factor(wl.config["variant"],
                                                 wl.config["epsilon"])
    tracer = tracing.Tracer()
    tracer.call_id = 0
    with tracer:
        traced = workloads.run_call(wl, pool[0])
    assert traced.failures == [] and traced.digest == plain.digest
    seconds = traced.decompose_s + traced.evaluate_s
    m = tracing.layer_metrics(tracer.spans, 1, seconds, seconds)
    layers = sum(m[k] for k in tracing.SELF_TIME) + m["mmio.read_s"] \
        + m["mmio.write_s"]
    # spans start and end inside the timed region
    assert 0.5 * seconds < layers <= seconds
    assert m["approx_svd.calls"] >= 1 and m["linalg.svd_calls"] >= 1
    if wl.kind == "cli":
        assert m["mmio.read_mb"] > 0 and m["mmio.write_mb"] > 0


def test_tampered_c_counts_as_failure():
    wl = small("linear-paper")
    inst = workloads.make_instances(wl, 0)[0]
    cfg = optcur.CurConfig(**wl.config)
    dec = optcur.decompose(inst.a, cfg, np.random.default_rng(inst.seed))
    rep = optcur.evaluate(inst.a, dec)
    assert workloads.check_library(wl, inst.a, dec, rep) == []
    c = dec.C.copy()
    c[0, 0] += 1e-9
    bad = dataclasses.replace(dec, C=c)
    assert workloads.check_library(wl, inst.a, bad,
                                   optcur.evaluate(inst.a, bad))


def test_tampered_c_file_fails_verify(tmp_path):
    wl = small("cli-roundtrip")
    inst = workloads.make_instances(wl, 0, str(tmp_path))[0]
    assert workloads.run_call(wl, inst).failures == []
    c_path = os.path.join(inst.out_dir, "C.mtx")
    with open(c_path) as fh:
        lines = fh.readlines()
    lines[2] = repr(float(lines[2]) + 1.0) + "\n"
    with open(c_path, "w") as fh:
        fh.writelines(lines)
    _, failures, _ = workloads.verify_call(wl, inst)
    assert failures


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", worker.END_TO_END),
                       ("per_layer", tracing.LAYER_METRICS)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(table)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
