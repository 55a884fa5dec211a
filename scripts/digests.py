#!/usr/bin/env python3
"""Print the digests that show whether a change kept the bytes of results.

One line per perfbench instance of seeds 0 and 1: the digest that
perfbench's ``run_call`` takes of one call, over the indices and U of a
library call, or over ``indices.json`` and ``U.mtx`` of a CLI call.  Then
one line per variant of acceptance criterion 9: the sha256 prefix of its
``C.mtx``, ``U.mtx``, ``R.mtx`` and ``indices.json``.  The bits can depend
on the BLAS thread count; the digests recorded in CHANGES.md are at one:

    OPENBLAS_NUM_THREADS=1 python3 scripts/digests.py

Run from anywhere; the script uses the optcur sources of its own checkout.
Exit status 1 when a call fails.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import numpy as np  # noqa: E402

from optcur import cli, mmio  # noqa: E402
from test_acceptance import lowrank_noise, sparse_instance  # noqa: E402
from workloads import WORKLOADS, make_instances, run_call  # noqa: E402

SEEDS = (0, 1)


def criterion_9_digests(work_dir):
    """{variant: digest} of criterion 9's CLI runs, on its inputs and flags."""
    rng = np.random.default_rng(90_000)
    dense = os.path.join(work_dir, "dense.mtx")
    mmio.write_matrix(dense, lowrank_noise(60, 50, 3, 0.3, rng))
    sparse = os.path.join(work_dir, "sparse.mtx")
    mmio.write_matrix(sparse, sparse_instance(300, 250, 0.03, 3, 90_001))
    out = {}
    for variant, inp in (("deterministic", dense), ("linear", dense),
                         ("sparse", sparse)):
        out_dir = os.path.join(work_dir, variant)
        with contextlib.redirect_stdout(io.StringIO()):  # its report
            code = cli.main(["decompose", "--input", inp, "--rank", "2",
                             "--epsilon", "1.0", "--variant", variant,
                             "--seed", "7", "--fidelity", "heuristic",
                             "--out-dir", out_dir])
        if code != 0:
            raise RuntimeError("criterion 9 %s: exit %d" % (variant, code))
        h = hashlib.sha256()
        for name in ("C.mtx", "U.mtx", "R.mtx", "indices.json"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
        out[variant] = h.hexdigest()[:16]
    return out


def main():
    print("OPENBLAS_NUM_THREADS=%s" % os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset"))
    failed = False
    with tempfile.TemporaryDirectory() as work_dir:
        for name, wl in WORKLOADS.items():
            for seed in SEEDS:
                for inst in make_instances(wl, seed, work_dir):
                    res = run_call(wl, inst)
                    print("%s seed %d instance %d %s%s" % (
                        name, seed, inst.index, res.digest,
                        "".join(" FAILED: " + f for f in res.failures)))
                    failed = failed or bool(res.failures)
        for variant, digest in criterion_9_digests(work_dir).items():
            print("criterion-9 %s %s" % (variant, digest))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
