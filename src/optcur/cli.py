"""Command-line surface.

Subcommands: decompose, verify, gen-adversarial, bench.
Exit codes: 0 success, 2 argument error, 3 numerical failure.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import cur, instances, linalg, mmio
from .linalg import NumericalError, as_array

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_NUMERICAL = 3
_SUITE_KEYS = {"input", "rank", "epsilon", "variant", "seed", "fidelity",
               "trials"}


def _derived_seed(seed, trial):
    """Seed of trial `trial`: `seed` itself for trial 0, then independent
    31-bit seeds spawned from it."""
    if not trial:
        return seed
    child = np.random.SeedSequence(seed, spawn_key=(trial,))
    return int(child.generate_state(1)[0]) % (2 ** 31)


def _run_decompose(a, cfg, trials):
    """Run `trials` independent attempts, keep the best evaluate() ratio."""
    opt_sq = cur.optimal_residual_sq(a, cfg.k)
    best = None
    for trial in range(trials):
        seed = _derived_seed(cfg.seed, trial)
        rng = np.random.default_rng(seed)
        dec = cur.decompose(a, cfg, rng)
        rep = cur.evaluate(a, dec, opt_sq=opt_sq)
        if best is None or rep.ratio < best[1].ratio:
            best = (dec, rep, seed)
        if cfg.variant == "deterministic":
            break
    return best


def cmd_decompose(args):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1, not %d" % args.trials)
    mat = mmio.read_matrix(args.input)
    cfg = cur.CurConfig(k=args.rank, epsilon=args.epsilon,
                        variant=args.variant, seed=args.seed,
                        fidelity=args.fidelity)
    t0 = time.perf_counter()
    dec, rep, used_seed = _run_decompose(mat, cfg, args.trials)
    elapsed = time.perf_counter() - t0

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    for name, x in zip("CUR", (dec.C, dec.U, dec.R)):
        mmio.write_matrix(os.path.join(out_dir, name + ".mtx"), x)
    # json writes np.float64 as the float it is; arrays and other numpy
    # scalars go through tolist
    with open(os.path.join(out_dir, "indices.json"), "w") as fh:
        json.dump({
            "k": dec.k,
            "col_indices": dec.col_indices, "col_scales": dec.col_scales,
            "row_indices": dec.row_indices, "row_scales": dec.row_scales,
        }, fh, indent=1, sort_keys=True, default=lambda o: o.tolist())
    report = {
        "input": {"path": args.input, "rows": mat.shape[0],
                  "cols": mat.shape[1], "nnz": mat.nnz},
        "config": {"k": cfg.k, "epsilon": cfg.epsilon, "variant": cfg.variant,
                   "seed": cfg.seed, "fidelity": cfg.fidelity,
                   "trials": args.trials, "winning_seed": used_seed,
                   "c": cfg.c_total, "r": cfg.r_total},
        "evaluate": rep.as_dict(),
        "diagnostics": dec.diagnostics,
        "wall_clock_seconds": elapsed,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True,
                  default=lambda o: o.tolist())
    print(json.dumps(rep.as_dict()))
    return EXIT_OK


def _artifact_error(mat, c, u, r, idx, report):
    """Why C, U, R, indices.json `idx` and report.json `report` describe no
    decomposition of `mat`, or None; checked before any gather."""
    idx = idx if isinstance(idx, dict) else {}
    for side, size in (("col", mat.shape[1]), ("row", mat.shape[0])):
        ids, scales = idx.get(side + "_indices"), idx.get(side + "_scales")
        if not (isinstance(ids, list) and all(
                type(i) is int and 0 <= i < size for i in ids)):
            return "%s_indices are not integers in [0, %d)" % (side, size)
        if not (isinstance(scales, list) and len(scales) == len(ids) and all(
                type(x) is int or type(x) is float and np.isfinite(x)
                for x in scales)):
            return "%s_scales are not %d finite numbers" % (side, len(ids))
    nc, nr = len(idx["col_indices"]), len(idx["row_indices"])
    for name, x, shape in (("C", c, (mat.shape[0], nc)), ("U", u, (nc, nr)),
                           ("R", r, (nr, mat.shape[1]))):
        if x.shape != shape:
            return "%s is %dx%d, not %dx%d" % ((name,) + x.shape + shape)
    if not (type(idx.get("k")) is int and idx["k"] >= 1):
        return "k is not an integer >= 1"
    ev = report.get("evaluate") if isinstance(report, dict) else None
    if not (isinstance(ev, dict) and type(ev.get("ratio")) in (int, float)):
        return "report.json has no numeric evaluate.ratio"


def cmd_verify(args):
    mat = mmio.read_matrix(args.input)
    ddir = args.decomposition
    c, u, r = (as_array(mmio.read_matrix(os.path.join(ddir, name + ".mtx")))
               for name in "CUR")
    with open(os.path.join(ddir, "indices.json")) as fh:
        idx = json.load(fh)
    with open(os.path.join(ddir, "report.json")) as fh:
        report = json.load(fh)
    error = _artifact_error(mat, c, u, r, idx, report)
    if error is not None:
        print(json.dumps({"consistent": False, "error": error}))
        return EXIT_NUMERICAL
    dec = cur.CurDecomposition(
        col_indices=np.array(idx["col_indices"], dtype=int),
        col_scales=np.array(idx["col_scales"]),
        row_indices=np.array(idx["row_indices"], dtype=int),
        row_scales=np.array(idx["row_scales"]),
        C=c, U=u, R=r, k=idx["k"])
    rep = cur.evaluate(mat, dec)
    stored = report["evaluate"]
    drift = abs(rep.ratio - stored["ratio"])
    ok = drift <= 1e-9 * max(1.0, abs(stored["ratio"]))
    # the emitted C/R must be exactly the columns/rows of the input: %.17g
    # round-trips every value
    a = linalg._operand(mat)
    a_cols = linalg._cols(a, dec.col_indices)
    a_rows = linalg._cols(a.T, dec.row_indices).T
    ok = ok and np.array_equal(a_cols, c) and np.array_equal(a_rows, r)
    print(json.dumps({"recomputed": rep.as_dict(),
                      "stored_ratio": stored["ratio"],
                      "ratio_drift": drift, "consistent": bool(ok)}))
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_gen_adversarial(args):
    inst = instances.gen_adversarial(args.n, args.k, args.alpha)
    mmio.write_matrix(args.out, inst.A)
    print(json.dumps({"t": inst.t, "ell": inst.ell, "opt_sq": inst.opt_sq}))
    return EXIT_OK


def cmd_bench(args):
    with open(args.suite) as fh:
        entries = json.load(fh)
    # every entry's keys, config, trials and input file are checked first
    if not isinstance(entries, list):
        raise ValueError("suite is not a JSON list of objects")
    cfgs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError("suite entry %d is not a JSON object" % i)
        missing = sorted({"input", "rank", "epsilon"} - set(entry))
        if missing:
            raise ValueError("suite entry %d lacks %s" % (i, ", ".join(missing)))
        unknown = sorted(set(entry) - _SUITE_KEYS)
        if unknown:
            raise ValueError("suite entry %d has unknown %s"
                             % (i, ", ".join(unknown)))
        cfgs.append(cur.CurConfig(k=entry["rank"], epsilon=entry["epsilon"],
                                  variant=entry.get("variant", "linear"),
                                  seed=entry.get("seed", 0),
                                  fidelity=entry.get("fidelity", "heuristic")))
        trials = entry.get("trials", 1)
        if not cur._is_int(trials, 1):
            raise ValueError("suite entry %d has trials %r" % (i, trials))
        path = entry["input"]
        if not isinstance(path, str) or not os.path.isfile(path):
            raise FileNotFoundError("suite entry %d: no file %r" % (i, path))
    failures = 0
    for entry, cfg in zip(entries, cfgs):
        mat = mmio.read_matrix(entry["input"])
        t0 = time.perf_counter()
        try:
            dec, rep, seed = _run_decompose(mat, cfg, entry.get("trials", 1))
            print(json.dumps({
                "input": entry["input"], "variant": cfg.variant,
                "seed": seed, "seconds": time.perf_counter() - t0,
                **rep.as_dict()}))
        except NumericalError as exc:
            failures += 1
            print(json.dumps({"input": entry["input"], "error": str(exc)}))
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def build_parser():
    p = argparse.ArgumentParser(
        prog="optcur",
        description="Relative-error CUR decompositions and verification tools")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="compute a CUR decomposition")
    d.add_argument("--input", required=True)
    d.add_argument("--rank", type=int, required=True)
    d.add_argument("--epsilon", type=float, required=True)
    d.add_argument("--variant", choices=cur.VARIANTS, default="linear")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--trials", type=int, default=1)
    d.add_argument("--fidelity", choices=("paper", "heuristic"),
                   default="paper")
    d.add_argument("--out-dir", default="optcur-out")
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="recompute the error of a stored decomposition")
    v.add_argument("--input", required=True)
    v.add_argument("--decomposition", required=True)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gen-adversarial", help="emit the hard block instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--alpha", type=float, default=1e-10)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_adversarial)

    b = sub.add_parser("bench", help="run a JSON suite of decompositions")
    b.add_argument("--suite", required=True)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_ARGS
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
