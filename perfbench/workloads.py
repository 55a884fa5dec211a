"""The benchmark's workloads: seeded inputs, the timed calls and their checks.

Each workload is a small pool of instances drawn from ``--seed``.  A call is
one user-visible round trip on one instance: ``decompose`` then ``evaluate``
for the library workloads, ``optcur decompose`` then ``optcur verify`` for the
CLI one.  Every call is checked; a call that raises or fails a check counts as
failed.
"""

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

import optcur
from optcur import audit, cli


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "dense" | "sparse" | "cli"
    m: int
    n: int
    rank: int  # rank of the planted signal
    noise: float  # dense: noise scale; sparse: fill of each pattern
    pool: int  # instances per run, visited in turn
    # evaluates timed as one block after each decompose, so that a short
    # evaluate is timed over as much machine time as a decompose
    evaluate_repeats: int
    config: dict = field(default_factory=dict)  # CurConfig keyword arguments


# Sizes are scaled so that a call takes one to three seconds on one core of
# a 2-core machine and a run holds ten or more calls; each keeps the layer
# split of the full-size instance noted beside it.
WORKLOADS = {w.name: w for w in (
    # Paper constants at 4000^2 draw c = r = 3608 = 0.9 n; the same c/n ratio
    # (hence the same duplicate-draw and rank-deficiency behaviour) at 1000^2.
    Workload("linear-paper", "dense", 1000, 1000, 5, 0.02, 3, 1,
             dict(k=2, epsilon=0.9, variant="linear", fidelity="paper",
                  c2=892, r2=892)),
    # m must exceed the CountSketch height 40 (k^2 + k) / eps^2 = 4800 so the
    # sketched approx-SVD path runs, as it does at 20000^2.
    Workload("sparse-large", "sparse", 5000, 3000, 5, 0.003, 3, 40,
             dict(k=5, epsilon=0.5, variant="sparse", fidelity="heuristic")),
    Workload("cli-roundtrip", "cli", 800, 800, 5, 0.02, 1, 1,
             dict(k=5, epsilon=0.2, variant="linear", fidelity="heuristic")),
)}


def bound_factor(variant, epsilon):
    """The paper's guarantee on ||A - CUR||^2 / ||A - A_k||^2 per variant."""
    return {"linear": 1.0 + 20.0 * epsilon,
            "sparse": (1.0 + epsilon) * (1.0 + 60.0 * epsilon)}[variant]


def lowrank_noise(m, n, rank, noise, rng):
    """Random rank-`rank` signal plus i.i.d. Gaussian noise of scale `noise`
    (the recipe of the test suite's ``lowrank_noise``)."""
    signal = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return signal + noise * rng.standard_normal((m, n))


def sparse_lowrank(m, n, density, rank, rng):
    """The test suite's ``sparse_instance`` distribution in O(nnz) memory.

    Uniform [0, 1) values on one random pattern, plus a rank-`rank` Gaussian
    product on an independent pattern.  The product is evaluated only at that
    pattern's positions instead of as a dense m x n matrix.
    """
    base = scipy.sparse.random(m, n, density=density, random_state=rng,
                               format="coo")
    mask = scipy.sparse.random(m, n, density=density, random_state=rng,
                               format="coo")
    left = rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, n))
    vals = np.einsum("ij,ji->i", left[mask.row], right[:, mask.col])
    lowrank = scipy.sparse.csr_matrix((vals, (mask.row, mask.col)),
                                      shape=(m, n))
    return (base.tocsr() + lowrank).tocsr()


def write_dense_mtx(path, a):
    """Array-format Matrix Market file; repr() round-trips every double."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write("%d %d\n" % a.shape)
        fh.write("\n".join(map(repr, a.T.ravel().tolist())))
        fh.write("\n")


@dataclass
class Instance:
    index: int
    a: object  # ndarray or csr_matrix
    seed: int  # seed of the decomposition's generator
    path: str = None  # cli: input file
    out_dir: str = None  # cli: artifacts of the last call


def make_instances(wl, seed, work_dir=None):
    """The workload's instance pool for `seed`; cli inputs go to work_dir."""
    pool = []
    for i in range(wl.pool):
        rng = np.random.default_rng([seed, i])
        if wl.kind == "sparse":
            a = sparse_lowrank(wl.m, wl.n, wl.noise, wl.rank, rng)
        else:
            a = lowrank_noise(wl.m, wl.n, wl.rank, wl.noise, rng)
        inst = Instance(i, a, int(np.random.SeedSequence([seed, i, 1])
                                  .generate_state(1)[0] >> 1))
        if wl.kind == "cli":
            inst.path = os.path.join(work_dir, "A%d.mtx" % i)
            inst.out_dir = os.path.join(work_dir, "out%d" % i)
            write_dense_mtx(inst.path, a)
        pool.append(inst)
    return pool


@dataclass
class Outcome:
    decompose_s: float = None
    evaluate_s: float = None  # mean over the block of evaluates
    ratio: float = None
    digest: str = None
    failures: list = field(default_factory=list)


def _digest(*arrays):
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()[:16]


def check_library(wl, a, dec, rep):
    """Failures of one library call: the variant's bound and raw C/R."""
    failures = []
    eps = wl.config["epsilon"]
    bound = bound_factor(wl.config["variant"], eps)
    if not rep.err_sq <= bound * rep.opt_sq * (1.0 + 1e-9):
        failures.append("ratio %.6g above bound %.6g" % (rep.ratio, bound))
    if scipy.sparse.issparse(a):
        cols = a[:, dec.col_indices].toarray()
        rows = a[dec.row_indices].toarray()
    else:
        cols = a[:, dec.col_indices]
        rows = a[dec.row_indices]
    if not np.array_equal(cols, dec.C):
        failures.append("C is not the columns col_indices of A")
    if not np.array_equal(rows, dec.R):
        failures.append("R is not the rows row_indices of A")
    return failures


def library_call(wl, inst, repeats):
    """decompose, then a block of `repeats` evaluates, via the public API."""
    out = Outcome()
    cfg = optcur.CurConfig(**wl.config)
    rng = np.random.default_rng(inst.seed)
    audited = (audit.forbid_dense(wl.m * wl.n) if wl.kind == "sparse"
               else contextlib.nullcontext())
    t0 = time.perf_counter()
    with audited:
        dec = optcur.decompose(inst.a, cfg, rng)
    t1 = time.perf_counter()
    for _ in range(repeats):
        rep = optcur.evaluate(inst.a, dec)
    t2 = time.perf_counter()
    out.decompose_s, out.evaluate_s = t1 - t0, (t2 - t1) / repeats
    out.ratio = rep.ratio
    out.digest = _digest(dec.col_indices.astype(np.int64),
                         dec.row_indices.astype(np.int64), dec.U)
    out.failures = check_library(wl, inst.a, dec, rep)
    return out


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


def verify_call(wl, inst):
    """`optcur verify` on the stored artifacts: (seconds, failures, ratio)."""
    t0 = time.perf_counter()
    code, res = _cli(["verify", "--input", inst.path,
                      "--decomposition", inst.out_dir])
    seconds = time.perf_counter() - t0
    failures = []
    if code != 0 or res is None or res.get("consistent") is not True:
        failures.append("verify exit %s, consistent=%s"
                        % (code, None if res is None else res.get("consistent")))
    ratio = None if res is None else res["recomputed"]["ratio"]
    bound = bound_factor(wl.config["variant"], wl.config["epsilon"])
    if ratio is not None and not ratio <= bound * (1.0 + 1e-9):
        failures.append("ratio %.6g above bound %.6g" % (ratio, bound))
    return seconds, failures, ratio


def cli_call(wl, inst):
    """`optcur decompose` then `optcur verify`, in process."""
    out = Outcome()
    c = wl.config
    argv = ["decompose", "--input", inst.path, "--rank", str(c["k"]),
            "--epsilon", repr(c["epsilon"]), "--variant", c["variant"],
            "--fidelity", c["fidelity"], "--seed", str(inst.seed),
            "--out-dir", inst.out_dir]
    t0 = time.perf_counter()
    code, _ = _cli(argv)
    out.decompose_s = time.perf_counter() - t0
    if code != 0:
        out.failures.append("decompose exit %s" % code)
        return out
    out.evaluate_s, out.failures, out.ratio = verify_call(wl, inst)
    h = hashlib.sha256()
    for name in ("indices.json", "U.mtx"):
        with open(os.path.join(inst.out_dir, name), "rb") as fh:
            h.update(fh.read())
    out.digest = h.hexdigest()[:16]
    return out


def run_call(wl, inst, repeats=1):
    """One checked call; an exception is recorded as a failure."""
    try:
        if wl.kind == "cli":
            return cli_call(wl, inst)
        return library_call(wl, inst, repeats)
    except Exception as exc:  # the loop must go on and count the failure
        return Outcome(failures=["%s: %s" % (type(exc).__name__, exc)])
