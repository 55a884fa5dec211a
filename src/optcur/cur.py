"""End-to-end CUR pipelines and decomposition evaluation.

All three variants follow the same proto-structure: an approximate SVD factor
gives leverage-style scores, a dual-set sparsification compresses the sampled
candidates to 4k columns, adaptive sampling tops the set up to c columns, a
rank-k factor inside the selected column span produces Z2, and the row side
mirrors the procedure against Z2.  The intersection matrix folds all scale
factors, so the emitted C and R hold raw columns/rows of A.
`_pipeline` runs it for every variant, with the leaves named in `_SLOTS`.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, field
from numbers import Integral, Real
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from . import adaptive, linalg, subset_select, subspace
from .approx_svd import deterministic_svd, randomized_svd, sparse_svd
from .linalg import (NumericalError, _check_finite, _cols, _matmul, _operand,
                     as_array, as_sparse)
from .sketch import make_sse

VARIANTS = ("linear", "sparse", "deterministic")
_RETRIES = 5  # redraws of a first stage that lost rank, per phase


@dataclass(frozen=True)
class CurConfig:
    k: int
    epsilon: float
    variant: str = "linear"
    seed: int = 0
    fidelity: str = "paper"  # paper | heuristic
    # constant overrides; None means the per-variant default
    c1: int = None
    c2: int = None
    h1: int = None
    h2: int = None
    r1: int = None
    r2: int = None
    xi_u: int = None

    def __post_init__(self):
        if (isinstance(self.k, bool) or not isinstance(self.k, Integral)
                or self.k < 1):
            raise ValueError("k must be an integer >= 1")
        if (isinstance(self.epsilon, bool)
                or not isinstance(self.epsilon, Real)
                or not 0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must be a real number in (0, 1]")
        if self.variant not in VARIANTS:
            raise ValueError("variant must be one of %s" % (VARIANTS,))
        if self.fidelity not in ("paper", "heuristic"):
            raise ValueError("fidelity must be 'paper' or 'heuristic'")

    def _adaptive_factor(self):
        if self.fidelity == "heuristic":
            return 8.0 * self.k / self.epsilon
        return {"linear": 1620.0, "sparse": 4820.0,
                "deterministic": 10.0}[self.variant] * self.k / self.epsilon

    @property
    def c1_val(self):
        return 4 * self.k if self.c1 is None else self.c1

    @property
    def c2_val(self):
        return int(np.ceil(self._adaptive_factor())) if self.c2 is None else self.c2

    @property
    def r1_val(self):
        return 4 * self.k if self.r1 is None else self.r1

    @property
    def r2_val(self):
        return int(np.ceil(self._adaptive_factor())) if self.r2 is None else self.r2

    @property
    def h1_val(self):
        if self.h1 is not None:
            return self.h1
        return int(np.ceil(16.0 * self.k * np.log(20.0 * self.k)))

    @property
    def h2_val(self):
        if self.h2 is not None:
            return self.h2
        return int(np.ceil(8.0 * self.k * np.log(20.0 * self.k)))

    @property
    def xi_u_val(self):
        if self.xi_u is not None:
            return self.xi_u
        return int(np.ceil(40.0 * self.k * self.k / (self.epsilon ** 2)))

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
        return {"err_sq": self.err_sq, "opt_sq": self.opt_sq,
                "ratio": self.ratio, "c": self.c, "r": self.r,
                "rank_u": self.rank_u, "exact": self.exact}


def _check_dims(cfg, m, n):
    if cfg.c_total > n:
        raise ValueError(
            "config requires c = %d columns but A has only %d; "
            "use heuristic fidelity or overrides" % (cfg.c_total, n))
    if cfg.r_total > m:
        raise ValueError(
            "config requires r = %d rows but A has only %d" % (cfg.r_total, m))


def _levered_bss_stage(a, z, az, h, r_bss, rng, sparse_eps=None):
    """First stage of the randomized variants, over the columns of A.

    h leverage draws from the row norms of z (n x k); their rescaled columns
    are compressed by dual-set sparsification against the sampled residual
    E Omega D, where az = A z, to r_bss weighted picks.  Returns the picked
    scaled columns, their indices and scales, or None when the sampled
    leverage matrix lost rank.
    """
    pair = subset_select.rand_sampling(z, min(h, a.shape[1]), rng)
    msmall = pair.pick_rows(z).T  # k x h
    k = z.shape[1]
    _, s, vt = scipy.linalg.svd(msmall, full_matrices=False)
    if linalg._rank(s, msmall.shape) < k:
        return None
    v_m = vt[:k].T  # right singular vectors of the sampled leverage matrix
    pick = _cols(a, pair.indices) * pair.scales
    resid = pick - az @ msmall  # E Omega D, one column per sample
    if sparse_eps is None:
        sel = subset_select.bss_sampling(v_m, resid.T, r_bss)
    else:
        sel = subset_select.bss_sampling_sparse(v_m, resid.T, r_bss,
                                                sparse_eps, rng)
    step_idx, step_w = sel.stepped()
    return (pick[:, step_idx] * step_w, pair.indices[step_idx],
            pair.scales[step_idx] * step_w)


def _exact_bss_cols(a, z, az, r_bss):
    """First stage of the deterministic variant: dual set = the exact residual
    columns of A - (A z) z^T."""
    idx, w = subset_select.bss_sampling(z, (a - az @ z.T).T, r_bss).stepped()
    return a[:, idx] * w, idx, w


# The slots each variant fills in `_pipeline`.  `_side` runs the same `first`
# and `adapt` leaf on A for the columns and on A^T for the rows.  Leaves are
# looked up by name when called, so wrappers installed on module attributes
# (as perfbench's tracer does) see every call.  `sketched` selects the
# CountSketch subspace solver and the sketched U regression.
_SLOTS = {
    "linear": SimpleNamespace(
        prepare=as_array,
        factor=lambda a, k, rng: randomized_svd(a, k, 1.0, rng).Z,
        first=_levered_bss_stage,
        adapt=lambda a, z, v, c2, rng: adaptive.adaptive_cols(a, v, c2, rng),
        sketched=False),
    "sparse": SimpleNamespace(
        prepare=as_sparse,
        factor=lambda a, k, rng: sparse_svd(a, k, 1.0, rng).Z,
        first=functools.partial(_levered_bss_stage, sparse_eps=0.5),
        adapt=lambda a, z, v, c2, rng:
        adaptive.adaptive_cols_sparse(a, v, c2, rng),
        sketched=True),
    # the adaptive target is A Z Z^T: A_k on the column side, where Z1 holds
    # the top right singular vectors of A (any k of them when rank(A) <= k)
    "deterministic": SimpleNamespace(
        prepare=as_array,
        factor=lambda a, k, rng: linalg._top_k(a, k, vectors=True)[1],
        first=lambda a, z, az, h, r, rng: _exact_bss_cols(a, z, az, r),
        adapt=lambda a, z, v, c2, rng:
        adaptive.adaptive_rows_d(a.T, z, v.T, c2),
        sketched=False),
}


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


def _pipeline(a, cfg, rng, variant):
    """The CUR pipeline every variant runs, with the slots of `variant`:
    factor Z1, column phase, rank-k core Z2 in span(C), row phase on A^T,
    intersection U with all scale factors folded in."""
    slots = _SLOTS[variant]
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    a = slots.prepare(a)
    _check_finite(a)
    m, n = a.shape
    _check_dims(cfg, m, n)
    k = cfg.k
    diag = {"variant": variant, "seed": cfg.seed, "fidelity": cfg.fidelity,
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
        c_raw = _cols(a, cols)
        if slots.sketched:
            sf = subspace.approx_subspace_svd(a, c_raw, k, cfg.epsilon, rng)
            if not sf.sketched:
                diag["sketch_caps"].append("subspace_svd_exact")
        else:
            sf = subspace.best_subspace_svd(a, c_raw, k)
        z2 = sf.Y @ sf.Delta  # orthonormal, and C~ M = Z2

    with _timed(diag, "rows"):
        row_idx, row_scales = _side(
            a.T, z2, slots, cfg.h2_val, cfg.r1_val, cfg.r2_val, rng, diag)
        rows, row_pos, row_w = _distinct(row_idx, row_scales)
        diag["distinct_rows"] = int(rows.size)
        r_raw = _cols(a.T, rows).T

    # the intersection M (L A) R^+: L = Z2^T for min_Y ||C M Y R - A||, and
    # L = (W Z2)^+ W for the CountSketch regression min_Y ||W (C M Y R - A)||
    # when the width xi_u compresses the row dimension; W A is never formed
    with _timed(diag, "intersection"):
        left = z2.T
        if slots.sketched and cfg.xi_u_val < m:
            w = make_sse(m, cfg.xi_u_val, rng).as_csr()
            left = _matmul(linalg.pinv(_matmul(w, z2)), w)
        elif slots.sketched:
            diag["sketch_caps"].append("u_regression_exact")
        u_raw = sf.M @ linalg.apply_right_pinv(_matmul(left, a), r_raw)
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
    return _pipeline(a, cfg, rng, "linear")


def cur_input_sparsity(a, cfg, rng=None):
    """Input-sparsity CUR: every stage works on sketches or sampled slices;
    no dense m x n intermediate is ever materialized."""
    return _pipeline(a, cfg, rng, "sparse")


def cur_deterministic(a, cfg):
    """Deterministic CUR with the always-valid (1 + 8 eps) guarantee."""
    return _pipeline(a, cfg, None, "deterministic")


def deterministic_column_stage(a, k, c1):
    """The BSS column stage of the deterministic pipeline: Z1 from the exact
    rank-k factor, dual set = residual columns, c1 weighted picks."""
    a = as_array(a)
    z1 = deterministic_svd(a, k).Z
    return _exact_bss_cols(a, z1, a @ z1, c1)


def decompose(a, cfg, rng=None):
    """Dispatch on cfg.variant."""
    if cfg.variant == "linear":
        return cur_linear_time(a, cfg, rng)
    if cfg.variant == "sparse":
        return cur_input_sparsity(a, cfg, rng)
    return cur_deterministic(a, cfg)


def top_sigma_sq(a, k):
    """Sum of the top-k squared singular values (sparse-aware)."""
    s = linalg._top_k(a, k)
    return float(np.sum(s * s))


def optimal_residual_sq(a, k):
    """||A - A_k||_F^2 as ||A||^2 minus the top-k sigma^2; a difference
    within the rounding of that subtraction, max(m, n) eps ||A||^2, is 0."""
    return _optimal_residual_sq(a, k, linalg.frobenius_sq(a))


def _optimal_residual_sq(a, k, fro):
    opt = fro - top_sigma_sq(a, k)
    return opt if opt > max(_operand(a).shape) * 2.0 ** -52 * fro else 0.0


def cur_error_sq(a, dec):
    """||A - C U R||_F^2; see `_error_sq`."""
    return _error_sq(a, dec, linalg._range_probe(dec.U), linalg.frobenius_sq(a))


def _error_sq(a, dec, probe, fro):
    """||A - C U R||_F^2 as ||A - P T||^2, P = C Q and T = B R, with U = Q B
    from `linalg._range_probe(U)` as `probe`, so rank(U) bounds the cost, and
    fro = ||A||^2.

    The Gram form ||A||^2 - 2<P^T A, T> + ||P T||^2 carries a rounding error
    of about eps * (||A||^2 + ||P T||^2), so an error below 1e-3 of that
    scale would keep fewer than 12 correct digits; it is summed directly
    instead, a block of rows at a time (on dense A in as many flops)."""
    a = _operand(a)
    q, b = probe
    p = dec.C @ q
    t = b @ dec.R
    cross = float(np.sum(_matmul(p.T, a) * t))
    norm_pt = float(np.sum((p.T @ p) @ t * t))
    err_sq = fro - 2.0 * cross + norm_pt
    if err_sq > 1e-3 * (fro + norm_pt):
        return err_sq
    step = max(1, (1 << 16) // max(a.shape[1], 1))
    err_sq = 0.0
    for i in range(0, a.shape[0], step):
        rows = slice(i, i + step)
        block = _cols(a.T, rows).T - p[rows] @ t
        err_sq += float(np.sum(block * block))
    return err_sq


def evaluate(a, dec, opt_sq=None):
    """Exact error report for a decomposition; U is probed and ||A||^2
    summed once, and both are shared by the error and the optimum."""
    fro = linalg.frobenius_sq(a)
    q, b = linalg._range_probe(dec.U)
    err_sq = max(_error_sq(a, dec, (q, b), fro), 0.0)
    if opt_sq is None:
        opt_sq = _optimal_residual_sq(a, dec.k, fro)
    exact = err_sq <= 1e-16 * fro
    if opt_sq > 0.0:
        ratio = err_sq / opt_sq
    else:
        ratio = 0.0 if exact else float("inf")
    rank_u = linalg._rank(linalg.singular_values(b), b.shape)
    return EvalReport(err_sq=float(err_sq), opt_sq=float(opt_sq),
                      ratio=float(ratio), c=dec.C.shape[1], r=dec.R.shape[0],
                      rank_u=rank_u, exact=bool(exact))
