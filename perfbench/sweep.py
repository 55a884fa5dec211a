"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads linear-paper,cli-roundtrip \
        --seeds 0-9 --seconds 32 [--trace 1] [--out summary.json]

Runs one seed at a time, never two runs at once.  For every metric it reports
the median and quartiles over the seeds and the spread (Q3 - Q1) / median, the
figure BENCHMARK.json's bounds are judged against.
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


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    summary = {}
    for wl in args.workloads.split(","):
        runs, values = [], {}
        for seed in args.seeds:
            started = time.monotonic()
            res = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - started
            if res.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (wl, seed, res.returncode,
                                                   res.stderr[-2000:]))
                runs.append({"seed": seed, "exit": res.returncode})
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall,
                         **{k: out[k] for k in ("correct", "attempted",
                                                "failed")}})
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %.1f s, %d calls, %d failed" % (
                wl, seed, wall, out["attempted"], out["failed"]), flush=True)
        summary[wl] = {"runs": runs, "metrics": {
            name: summarise(v) for name, v in values.items()}}
        for name, s in summary[wl]["metrics"].items():
            print("  %-30s median %-12.6g spread %s" % (
                name, s["median"],
                "-" if s["spread"] is None else "%.3f" % s["spread"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
