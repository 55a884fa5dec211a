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


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _derived_seed(seed, trial):
    """Seed of trial `trial`: `seed` itself for trial 0, then independent
    31-bit seeds spawned from it."""
    if not trial:
        return seed
    child = np.random.SeedSequence(seed, spawn_key=(trial,))
    return int(child.generate_state(1)[0]) % (2 ** 31)


def _run_decompose(a, cfg, trials):
    """Run `trials` independent attempts, keep the best evaluate() ratio."""
    if not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer, not %r" % (trials,))
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
    mat = mmio.read_matrix(args.input)
    cfg = cur.CurConfig(k=args.rank, epsilon=args.epsilon,
                        variant=args.variant, seed=args.seed,
                        fidelity=args.fidelity)
    t0 = time.perf_counter()
    dec, rep, used_seed = _run_decompose(mat, cfg, args.trials)
    elapsed = time.perf_counter() - t0

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    mmio.write_matrix(os.path.join(out_dir, "C.mtx"), dec.C)
    mmio.write_matrix(os.path.join(out_dir, "U.mtx"), dec.U)
    mmio.write_matrix(os.path.join(out_dir, "R.mtx"), dec.R)
    with open(os.path.join(out_dir, "indices.json"), "w") as fh:
        json.dump(_json_safe({
            "k": dec.k,
            "col_indices": dec.col_indices, "col_scales": dec.col_scales,
            "row_indices": dec.row_indices, "row_scales": dec.row_scales,
        }), fh, indent=1, sort_keys=True)
    report = {
        "input": {"path": args.input, "rows": mat.shape[0],
                  "cols": mat.shape[1], "nnz": mat.nnz},
        "config": {"k": cfg.k, "epsilon": cfg.epsilon, "variant": cfg.variant,
                   "seed": cfg.seed, "fidelity": cfg.fidelity,
                   "trials": args.trials, "winning_seed": used_seed,
                   "c": cfg.c_total, "r": cfg.r_total},
        "evaluate": rep.as_dict(),
        "diagnostics": _json_safe(dec.diagnostics),
        "wall_clock_seconds": elapsed,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(_json_safe(report), fh, indent=1, sort_keys=True)
    print(json.dumps(_json_safe(rep.as_dict())))
    return EXIT_OK


def cmd_verify(args):
    mat = mmio.read_matrix(args.input)
    ddir = args.decomposition
    c = as_array(mmio.read_matrix(os.path.join(ddir, "C.mtx")))
    u = as_array(mmio.read_matrix(os.path.join(ddir, "U.mtx")))
    r = as_array(mmio.read_matrix(os.path.join(ddir, "R.mtx")))
    with open(os.path.join(ddir, "indices.json")) as fh:
        idx = json.load(fh)
    with open(os.path.join(ddir, "report.json")) as fh:
        report = json.load(fh)
    dec = cur.CurDecomposition(
        col_indices=np.array(idx["col_indices"], dtype=int),
        col_scales=np.array(idx["col_scales"]),
        row_indices=np.array(idx["row_indices"], dtype=int),
        row_scales=np.array(idx["row_scales"]),
        C=c, U=u, R=r, k=int(idx["k"]))
    rep = cur.evaluate(mat, dec)
    stored = report["evaluate"]
    drift = abs(rep.ratio - stored["ratio"])
    ok = drift <= 1e-9 * max(1.0, abs(stored["ratio"]))
    # the emitted C/R must be actual columns/rows of the input
    a = linalg._operand(mat)
    a_cols = linalg._cols(a, dec.col_indices)
    a_rows = linalg._cols(a.T, dec.row_indices).T
    ok = ok and np.allclose(a_cols, c, atol=1e-12) \
        and np.allclose(a_rows, r, atol=1e-12)
    print(json.dumps({"recomputed": _json_safe(rep.as_dict()),
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
    # every entry is checked for its required keys before any runs
    for i, entry in enumerate(entries):
        missing = sorted({"input", "rank", "epsilon"} - set(entry))
        if missing:
            raise ValueError("suite entry %d lacks %s" % (i, ", ".join(missing)))
    failures = 0
    for entry in entries:
        mat = mmio.read_matrix(entry["input"])
        cfg = cur.CurConfig(k=entry["rank"], epsilon=entry["epsilon"],
                            variant=entry.get("variant", "linear"),
                            seed=entry.get("seed", 0),
                            fidelity=entry.get("fidelity", "heuristic"))
        t0 = time.perf_counter()
        try:
            dec, rep, seed = _run_decompose(mat, cfg, entry.get("trials", 1))
            print(json.dumps(_json_safe({
                "input": entry["input"], "variant": cfg.variant,
                "seed": seed, "seconds": time.perf_counter() - t0,
                **rep.as_dict()})))
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
    d.add_argument("--out-dir",
                   default=os.environ.get("OPTCUR_OUT_DIR", "optcur-out"))
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
