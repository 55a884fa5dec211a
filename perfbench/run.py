"""optcur benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark uses the optcur sources in
its ``src/``.  The workload is measured in one fresh worker process, a closed
loop of one call at a time with one BLAS thread.  With ``--trace 0`` four more
workers only set up, so set-up time is a median of five.  The last line of
standard output is the JSON result; the full record of the run is written
under ``perfbench/results/``.  Exit status is not 0, and no result is
printed, when a worker cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("linear-paper", "sparse-large", "cli-roundtrip")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, workers included


def child_env():
    env = dict(os.environ)
    # One BLAS thread: on the shared 2-core machine the baseline was taken on,
    # a second thread made every workload slower and its timings noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def run_worker(args, role, deadline):
    """Start one worker; return (its result, seconds from start to ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    started = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s worker passed the deadline" % role)
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited with %d" % (role, proc.returncode))
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready_at"] - started


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "optcur", "__init__.py")):
        print("perfbench: no optcur sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, setup = run_worker(args, "measure", deadline)
        setups = [setup]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, "probe", deadline)[1])
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if metrics is not None and not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if metrics is None or any(m["value"] is None for m in metrics.values()):
        print("perfbench: no successful call to measure", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
