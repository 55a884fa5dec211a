"""End-to-end CUR pipelines and decomposition evaluation.

All three variants follow the same proto-structure: an approximate SVD factor
gives leverage-style scores, a dual-set sparsification compresses the sampled
candidates to 4k columns, adaptive sampling tops the set up to c columns, a
rank-k factor inside the selected column span produces Z2, and the row side
mirrors the procedure against Z2.  The intersection matrix folds all scale
factors, so the emitted C and R hold raw columns/rows of A.
`decompose` runs it for every variant, with the leaves of its `_SLOTS` row.
The input-sparsity variant runs the linear leaves on a CSR operand; it
sketches only where a sketch shrinks a dimension, the factor and the core.
"""

import contextlib
import time
from dataclasses import asdict, dataclass, field, replace
from numbers import Integral, Real
from types import SimpleNamespace

import numpy as np

from . import adaptive, linalg, subset_select, subspace
from .approx_svd import deterministic_svd, randomized_svd, sparse_svd
from .linalg import (NumericalError, _check_finite, _cols, _matmul, _operand,
                     as_array, as_sparse)

_RETRIES = 5  # redraws of a first stage that lost rank, per phase


def _is_int(x, low):
    """Whether x is an integer >= low; a bool is not one."""
    return not isinstance(x, bool) and isinstance(x, Integral) and x >= low


@dataclass(frozen=True)
class CurConfig:
    k: int
    epsilon: float
    variant: str = "linear"
    seed: int = 0
    fidelity: str = "paper"  # paper | heuristic
    # adaptive draws; None means the per-variant default
    c2: int = None
    r2: int = None

    def __post_init__(self):
        if not _is_int(self.k, 1):
            raise ValueError("k must be an integer >= 1")
        if not _is_int(self.seed, 0):
            raise ValueError("seed must be an integer >= 0")
        if not all(x is None or _is_int(x, 1) for x in (self.c2, self.r2)):
            raise ValueError("c2 and r2 must each be None or an integer >= 1")
        if (isinstance(self.epsilon, bool)
                or not isinstance(self.epsilon, Real)
                or not 0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must be a real number in (0, 1]")
        if self.variant not in VARIANTS:
            raise ValueError("variant must be one of %s" % (VARIANTS,))
        if self.fidelity not in ("paper", "heuristic"):
            raise ValueError("fidelity must be 'paper' or 'heuristic'")

    def _adaptive_factor(self):
        c2 = 8.0 if self.fidelity == "heuristic" else _SLOTS[self.variant].paper_c2
        return c2 * self.k / self.epsilon

    # the BSS widths and leverage draws follow from k and eps
    @property
    def c1_val(self):
        return 4 * self.k

    r1_val = c1_val

    @property
    def c2_val(self):
        return int(np.ceil(self._adaptive_factor())) if self.c2 is None else self.c2

    @property
    def r2_val(self):
        return int(np.ceil(self._adaptive_factor())) if self.r2 is None else self.r2

    @property
    def h1_val(self):
        return int(np.ceil(16.0 * self.k * np.log(20.0 * self.k)))

    @property
    def h2_val(self):
        return int(np.ceil(8.0 * self.k * np.log(20.0 * self.k)))

    @property
    def c_total(self):
        return self.c1_val + self.c2_val

    @property
    def r_total(self):
        return self.r1_val + self.r2_val


@dataclass(frozen=True)
class CurDecomposition:
    col_indices: np.ndarray
    col_scales: np.ndarray
    row_indices: np.ndarray
    row_scales: np.ndarray
    C: np.ndarray  # m x c, raw columns of A
    U: np.ndarray  # c x r
    R: np.ndarray  # r x n, raw rows of A
    k: int
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EvalReport:
    err_sq: float
    opt_sq: float
    ratio: float
    c: int
    r: int
    rank_u: int
    exact: bool

    def as_dict(self):
        return asdict(self)


def _check_dims(cfg, m, n):
    for x, need, size, what in (("c", cfg.c_total, n, "columns"),
                                ("r", cfg.r_total, m, "rows")):
        if need > size:
            msg = ("config requires %s = 4k + %s2 = %d %s (k = %d) but A has "
                   "only %d" % (x, x, need, what, cfg.k, size))
            if cfg.fidelity == "paper":
                msg += "; use heuristic fidelity or a smaller %s2" % x
            raise ValueError(msg)


def _levered_bss_stage(a, z, az, h, r_bss, rng):
    """First stage of the randomized variants, over the columns of A.

    h leverage draws from the row norms of z (n x k); their rescaled columns
    are compressed by dual-set sparsification against the sampled residual
    E Omega D, where az = A z, to r_bss weighted picks.  Returns the picked
    scaled columns, their indices and scales, or None when the sampled
    leverage matrix lost rank.

    E Omega D, gathered in C order, is the one m x h buffer of the stage:
    scaled and reduced by az @ msmall in place, a block of rows at a time.
    BSS reads its exact norms; only the r_bss picks are gathered again.
    """
    pair = subset_select.rand_sampling(z, min(h, a.shape[1]), rng)
    msmall = pair.pick_rows(z).T  # k x h
    f = linalg.svd(msmall)
    if f.rank < z.shape[1]:
        return None
    v_m = f.V_A  # right singular vectors of the sampled leverage matrix
    resid = _cols(a, pair.indices)
    resid *= pair.scales
    for rows in linalg._blocks(*resid.shape):
        resid[rows] -= az[rows] @ msmall
    sel = subset_select.bss_sampling(v_m, resid.T, r_bss)
    idx = pair.indices[sel.indices]
    scales = pair.scales[sel.indices]
    return _cols(a, idx) * scales * sel.scales, idx, scales * sel.scales


def _exact_bss_cols(a, z, az, r_bss):
    """First stage of the deterministic variant: dual set = the exact residual
    columns of A - (A z) z^T, formed in the buffer of (A z) z^T."""
    resid = az @ z.T
    np.subtract(a, resid, out=resid)
    sel = subset_select.bss_sampling(z, resid.T, r_bss)
    return a[:, sel.indices] * sel.scales, sel.indices, sel.scales


# A variant is one row: the slots it fills in `decompose`, and `paper_c2`,
# its adaptive draws per k/eps at paper fidelity.  `_side` runs the same
# `first` and `adapt` leaf on A for the columns and on A^T for the rows.
# Leaves are looked up by name when called, so wrappers installed on module
# attributes (as perfbench's tracer does) see every call.  `sketched`
# selects the CountSketch subspace solver.
_LINEAR = SimpleNamespace(
    paper_c2=1620.0,
    prepare=as_array,
    factor=lambda a, k, rng: randomized_svd(a, k, 1.0, rng),
    first=_levered_bss_stage,
    adapt=lambda a, z, v, c2, rng: adaptive.adaptive_cols(a, v, c2, rng),
    sketched=False)
_SLOTS = {
    "linear": _LINEAR,
    # linear's leaves on a CSR operand, with the two sketches that shrink a
    # dimension: the factor's CountSketch and the subspace solver's
    "sparse": SimpleNamespace(**dict(
        vars(_LINEAR), paper_c2=4820.0, prepare=as_sparse,
        factor=lambda a, k, rng: sparse_svd(a, k, 1.0, rng), sketched=True)),
    # the adaptive target is A Z Z^T: A_k on the column side, where Z1 holds
    # the top right singular vectors of A (any k of them when rank(A) <= k)
    "deterministic": SimpleNamespace(
        paper_c2=10.0,
        prepare=as_array,
        factor=lambda a, k, rng: linalg._top_k(a, k, vectors=True)[1],
        first=lambda a, z, az, h, r, rng: _exact_bss_cols(a, z, az, r),
        adapt=lambda a, z, v, c2, rng:
        adaptive.adaptive_rows_d(a.T, z, v.T, c2),
        sketched=False),
}
VARIANTS = tuple(_SLOTS)


def _side(a, z, slots, h, r1, r2, rng, diag):
    """One selection phase over the columns of A; the row phase is this phase
    on A^T against Z2.

    The first stage compresses to r1 weighted columns, drawing again while it
    reports a rank loss; adaptive sampling then adds r2 raw columns.  Returns
    the indices and their scales.
    """
    az = _matmul(a, z)
    for _ in range(_RETRIES + 1):
        stage = slots.first(a, z, az, h, r1, rng)
        if stage is not None:
            break
        diag["retries_used"] += 1
    else:
        raise NumericalError("leverage-sampled factor lost rank repeatedly")
    scaled, idx, scales = stage
    extra = slots.adapt(a, z, scaled, r2, rng)
    return (np.concatenate([idx, extra]),
            np.concatenate([scales, np.ones(len(extra))]))


def _distinct(idx, scales):
    """Collapse repeated draws: the distinct indices, each draw's position
    among them, and the weights w_j = s_j^2 / (sum of s^2 over the draws of
    the same index).

    The draws of one index are scaled copies s_j a of one raw column a, so
    the scaled columns are C~ S^T, with C~ the distinct raw columns and S
    holding s_j at (j, index of draw j).  The minimum-norm inverse of S^T is
    S (S^T S)^-1, which sends row l of a core for C~ to each draw j of
    index l with factor s_j / sum s^2; folding the draw's own scale s_j
    into U leaves the factor w_j."""
    uniq, pos = np.unique(idx, return_inverse=True)
    sq = scales * scales
    return uniq, pos, sq / np.bincount(pos, weights=sq)[pos]


@contextlib.contextmanager
def _timed(diag, stage):
    t0 = time.perf_counter()
    yield
    diag["stage_seconds"][stage] = time.perf_counter() - t0


def decompose(a, cfg, rng=None):
    """The CUR pipeline every variant runs, with the slots of cfg.variant:
    factor Z1, column phase, rank-k core Z2 in span(C), row phase on A^T,
    intersection U with all scale factors folded in.  The deterministic
    leaves never draw from rng."""
    slots = _SLOTS[cfg.variant]
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    a = slots.prepare(a)
    _check_finite(a)
    _check_dims(cfg, *a.shape)
    k = cfg.k
    diag = {"variant": cfg.variant, "fidelity": cfg.fidelity,
            "retries_used": 0, "stage_seconds": {}, "sketch_caps": []}

    with _timed(diag, "approx_svd"):
        z1 = slots.factor(a, k, rng)
    with _timed(diag, "columns"):
        col_idx, col_scales = _side(
            a, z1, slots, cfg.h1_val, cfg.c1_val, cfg.c2_val, rng, diag)

    # Repeated draws add no direction: the core Z2 and the intersection are
    # computed on the distinct raw columns and rows, so no factorization
    # sees the exact rank loss that repeats cause.
    with _timed(diag, "subspace"):
        cols, col_pos, col_w = _distinct(col_idx, col_scales)
        diag["distinct_cols"] = int(cols.size)
        c_raw = _cols(a, cols, "F")  # LAPACK's layout
        if cols.size <= k:  # span(C~) has rank <= k: Z2 spans all of it
            sf = subspace._factor(a, c_raw, k)
        elif slots.sketched:
            sf = subspace.approx_subspace_svd(a, c_raw, k, cfg.epsilon, rng)
            if not sf.sketched:
                diag["sketch_caps"].append("subspace_svd_exact")
        else:
            sf = subspace.best_subspace_svd(a, c_raw, k)
        z2 = sf.Z2  # orthonormal, and C~ M = Z2

    with _timed(diag, "rows"):
        row_idx, row_scales = _side(
            a.T, z2, slots, cfg.h2_val, cfg.r1_val, cfg.r2_val, rng, diag)
        rows, row_pos, row_w = _distinct(row_idx, row_scales)
        diag["distinct_rows"] = int(rows.size)
        r_raw = _cols(a.T, rows, "F").T

    # the intersection M (Z2^T A) R^+ solves min_Y ||C M Y R - A|| exactly;
    # Z2^T A costs k nnz(A), as any k x m left factor would
    with _timed(diag, "intersection"):
        u_raw = sf.M @ linalg.apply_right_pinv(_matmul(z2.T, a), r_raw)
        # spread each entry over the draws of its column and row, with the
        # sampling scale factors folded in, so C and R stay raw
        u = col_w[:, None] * u_raw[np.ix_(col_pos, row_pos)] * row_w[None, :]

    return CurDecomposition(
        col_indices=col_idx, col_scales=col_scales,
        row_indices=row_idx, row_scales=row_scales,
        C=c_raw[:, col_pos], U=u, R=r_raw[row_pos], k=k, diagnostics=diag)


def cur_linear_time(a, cfg, rng=None):
    """Randomized linear-time CUR: leverage sampling + dual-set compression +
    adaptive sampling on both sides, exact subspace-restricted rank-k core."""
    return decompose(a, replace(cfg, variant="linear"), rng)


def cur_input_sparsity(a, cfg, rng=None):
    """Input-sparsity CUR: the linear pipeline on a CSR operand with a
    CountSketch factor and core; no dense m x n intermediate is formed."""
    return decompose(a, replace(cfg, variant="sparse"), rng)


def cur_deterministic(a, cfg):
    """Deterministic CUR with the always-valid (1 + 8 eps) guarantee."""
    return decompose(a, replace(cfg, variant="deterministic"))


def deterministic_column_stage(a, k, c1):
    """The BSS column stage of the deterministic pipeline: Z1 from the exact
    rank-k factor, dual set = residual columns, c1 weighted picks."""
    a = as_array(a)
    z1 = deterministic_svd(a, k)
    return _exact_bss_cols(a, z1, a @ z1, c1)


def optimal_residual_sq(a, k):
    """||A - A_k||_F^2, measured by `_residual_sq` (see `evaluate`)."""
    return _optimal_residual_sq(a, k, _representable(linalg.frobenius_sq(a)))


def _representable(norm_sq):
    """norm_sq, or NumericalError when it overflowed to inf or NaN."""
    if not np.isfinite(norm_sq):
        raise NumericalError("norm not representable: %r" % (norm_sq,))
    return norm_sq


def _optimal_residual_sq(a, k, fro):
    """||A - (A V) V^T||^2 for the top-k right singular vectors V, whose
    Gram value is fro minus the top-k sigma^2 of the same call; A V is formed
    only for the direct sum."""
    s, v = linalg._top_k(a, k, vectors=True)
    return _residual_sq(a, lambda: _matmul(a, v), v.T, fro,
                        float(np.sum(s * s)))


def cur_error_sq(a, dec):
    """||A - C U R||_F^2; see `_error_sq`.  NumericalError when ||A||^2 or
    the error overflows, as in `evaluate`."""
    fro = _representable(linalg.frobenius_sq(a))
    return _error_sq(a, dec, linalg._range_probe(dec.U), fro)


def _error_sq(a, dec, probe, fro):
    """||A - C U R||_F^2 as ||A - P T||^2, with U = Q B from
    `linalg._range_probe(U)` as `probe` (Q = None for the identity), P S the
    QR of C Q and T = S B R, so rank(U) bounds the cost; fro = ||A||^2."""
    q, b = probe
    p, s = np.linalg.qr(dec.C if q is None else dec.C @ q)
    return _residual_sq(a, p, s @ b @ dec.R, fro)


def _residual_sq(a, p, t, fro, pt_sq=None):
    """||A - P T||_F^2 with fro = ||A||_F^2, for P with orthonormal columns,
    or for P T the projection of A with pt_sq = ||P T||^2 given and p a
    callable that forms P.

    The Gram value ||A||^2 - 2<A, P T> + ||P T||^2, fro - 2<P^T A, T> +
    ||T||^2 or fro - pt_sq, carries a rounding error of about
    eps (||A||^2 + ||P T||^2), so when it is at most 1e-3 of that scale
    (fewer than 12 correct digits) the residual is summed directly, a block
    of rows at a time (on dense A in as many flops).  A result at most
    1e-16 ||A||^2 reads 0; NumericalError when it is not finite."""
    a = _operand(a)
    if pt_sq is None:
        pt_sq = float(np.sum(t * t))
        err_sq = fro - 2.0 * float(np.sum(_matmul(p.T, a) * t)) + pt_sq
    else:
        err_sq = fro - pt_sq
    if err_sq <= 1e-3 * (fro + pt_sq):
        p = p() if callable(p) else p
        err_sq = 0.0
        for rows in linalg._blocks(*a.shape):
            block = _cols(a.T, np.arange(rows.start, rows.stop)).T - p[rows] @ t
            err_sq += float(np.sum(block * block))
    return err_sq if _representable(err_sq) > 1e-16 * fro else 0.0


def evaluate(a, dec, opt_sq=None):
    """Exact error report for a decomposition; U is probed and ||A||^2
    summed once, and both are shared by the error and the optimum, which
    `_residual_sq` measures alike."""
    fro = _representable(linalg.frobenius_sq(a))
    q, b = linalg._range_probe(dec.U)
    err_sq = _error_sq(a, dec, (q, b), fro)
    if opt_sq is None:
        opt_sq = _optimal_residual_sq(a, dec.k, fro)
    ratio = (err_sq / opt_sq if opt_sq > 0.0
             else float("inf") if err_sq else 0.0)
    rank_u = linalg._rank(linalg.singular_values(b), b.shape)
    return EvalReport(err_sq=float(err_sq), opt_sq=float(opt_sq),
                      ratio=float(ratio), c=dec.C.shape[1], r=dec.R.shape[0],
                      rank_u=rank_u, exact=err_sq == 0.0)
