"""One benchmark process: set up a workload, then measure it or just exit.

Started by run.py.  Prints one JSON line: the wall-clock time at which set-up
ended (``ready_at``) and, for ``--role measure``, the run's metrics.  The full
record of a measuring run (environment, every call, and in trace mode every
span) goes to ``perfbench/results/``.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import optcur
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
# A run stops starting calls after this long so the process ends in time.
HARD_STOP_S = 140.0
# (name, unit, better) of every end-to-end metric; run.py adds setup_s.
END_TO_END = (("setup_s", "s", "lower"), ("decompose_s", "s", "lower"),
              ("evaluate_s", "s", "lower"), ("ratio", "ratio", "lower"),
              ("peak_rss_mb", "MB", "lower"))


def blas_info():
    """BLAS libraries loaded in this process, with their thread counts."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "blas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                getter = getattr(lib, prefix + "_get_num_threads" + suffix, None)
                config = getattr(lib, prefix + "_get_config" + suffix, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def git_commit():
    # The ceiling keeps git from searching the directories above the
    # checkout when the checkout is not a repository of its own.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "optcur", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "optcur_commit": git_commit(),
            "optcur_src_sha256": h.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "blas": blas_info(),
            "machine": platform.machine()}


def median(xs):
    return statistics.median(xs) if xs else None


def measure(wl, pool, seconds, trace):
    """Closed loop of calls, one at a time, cycling through the pool.

    In trace mode each instance is called untraced and then traced, so the
    tracing overhead is measured on identical work.
    """
    tracer = tracing.Tracer() if trace else None
    calls = []
    need = len(pool) * (2 if trace else 1)
    start = time.perf_counter()
    while len(calls) < need or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        i = len(calls)
        inst = pool[(i // 2 if trace else i) % len(pool)]
        traced = trace and i % 2 == 1
        if traced:
            tracer.call_id = i
            with tracer:
                out = workloads.run_call(wl, inst)
        else:
            # trace mode pairs one evaluate with each decompose, as traced
            out = workloads.run_call(wl, inst,
                                     1 if trace else wl.evaluate_repeats)
        calls.append(dict(vars(out), instance=inst.index, traced=traced))
    return calls, tracer


def call_seconds(c):
    return c["decompose_s"] + c["evaluate_s"]


def end_to_end(calls):
    done = [c for c in calls if c["evaluate_s"] is not None]
    ratios = {}
    for c in done:
        if c["ratio"] is not None:
            ratios.setdefault(c["instance"], c["ratio"])
    return {
        "decompose_s": median([c["decompose_s"] for c in done]),
        "evaluate_s": median([c["evaluate_s"] for c in done]),
        # one ratio per instance: each instance repeats the same work
        "ratio": median(list(ratios.values())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(calls, tracer):
    traced = [c for c in calls if c["traced"] and not c["failures"]]
    plain = [c for c in calls if not c["traced"] and not c["failures"]]
    if not traced or not plain:
        return None
    ok = {c["call_id"] for c in traced}
    spans = [s for s in tracer.spans if s[tracing.CALL] in ok]
    # spans of failed calls are dropped; ids must stay list positions
    remap = {s[tracing.ID]: k for k, s in enumerate(spans)}
    spans = [[remap[s[0]], remap.get(s[1]), *s[2:]] for s in spans]
    return tracing.layer_metrics(
        spans, len(traced),
        statistics.fmean(call_seconds(c) for c in traced),
        statistics.fmean(call_seconds(c) for c in plain))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("measure", "probe"), required=True)
    args = p.parse_args(argv)

    if not os.path.abspath(optcur.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print("perfbench: optcur imported from %s, not from this checkout"
              % optcur.__file__, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(RESULTS, "work-%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        pool = workloads.make_instances(wl, args.seed, work_dir)
        ready_at = time.time()
        if args.role == "probe":
            print(json.dumps({"ready_at": ready_at}))
            return 0
        calls, tracer = measure(wl, pool, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for i, c in enumerate(calls):
        c["call_id"] = i
    if args.trace:
        values, table = per_layer(calls, tracer), tracing.LAYER_METRICS
    else:
        values, table = end_to_end(calls), END_TO_END[1:]
    metrics = None if values is None else {
        name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    failed = sum(1 for c in calls if c["failures"])
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (wl.name, args.seed,
                                                         args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "config": vars(wl),
                   "environment": environment(), "calls": calls,
                   "metrics": metrics}, fh, indent=1, default=str)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "call", "info"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({"ready_at": ready_at, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
