"""End-to-end CUR pipelines: configuration, structural invariants, error
bounds at small scale, and evaluation reports."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from optcur import audit, cur, linalg

from conftest import lowrank_noise


def reconstructible(a, dec):
    a = np.asarray(a.toarray() if scipy.sparse.issparse(a) else a)
    cols_ok = np.allclose(a[:, dec.col_indices], dec.C, atol=1e-12)
    rows_ok = np.allclose(a[dec.row_indices], dec.R, atol=1e-12)
    in_range = (np.all((dec.col_indices >= 0)
                       & (dec.col_indices < a.shape[1]))
                and np.all((dec.row_indices >= 0)
                           & (dec.row_indices < a.shape[0])))
    return cols_ok and rows_ok and in_range


def first_stage_residual_sq(a, dec, cfg):
    """||A - P A||_F^2, P the projector onto the first-stage columns: the
    first c1 indices of the decomposition."""
    q = linalg.orthonormal_basis(a[:, dec.col_indices[:cfg.c1_val]])
    return linalg.frobenius_sq(a - q @ (q.T @ a))


def sparse_instance(m, n, density, rank, seed):
    base = scipy.sparse.random(m, n, density=density, random_state=seed,
                               format="csr")
    rng = np.random.default_rng(seed)
    lr = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    mask = scipy.sparse.random(m, n, density=density, random_state=seed + 1,
                               format="csr")
    mask.data[:] = 1.0
    return (base + mask.multiply(lr)).tocsr()


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_per_variant():
    for variant, factor in (("linear", 1620), ("sparse", 4820),
                            ("deterministic", 10)):
        cfg = cur.CurConfig(k=2, epsilon=0.5, variant=variant)
        assert cfg.c1_val == 8 and cfg.r1_val == 8
        assert cfg.c2_val == int(np.ceil(factor * 2 / 0.5))
        assert cfg.r2_val == cfg.c2_val
        assert cfg.c_total == cfg.c1_val + cfg.c2_val
    cfg = cur.CurConfig(k=2, epsilon=0.5, fidelity="heuristic")
    assert cfg.c2_val == 32  # 8 k / eps
    assert cfg.h1_val == int(np.ceil(16 * 2 * np.log(40)))
    assert cfg.h2_val == int(np.ceil(8 * 2 * np.log(40)))
    assert cfg.xi_u_val == int(np.ceil(40 * 4 / 0.25))


def test_config_validation():
    with pytest.raises(ValueError):
        cur.CurConfig(k=0, epsilon=0.5)
    with pytest.raises(ValueError):
        cur.CurConfig(k=2, epsilon=0.0)
    with pytest.raises(ValueError):
        cur.CurConfig(k=2, epsilon=1.5)
    with pytest.raises(ValueError):
        cur.CurConfig(k=2, epsilon=0.5, variant="other")
    with pytest.raises(ValueError):
        cur.CurConfig(k=2, epsilon=0.5, fidelity="exact")
    # k an integer and epsilon a real number, neither a bool; numpy scalars
    # of those kinds are accepted
    for k, eps in [("2", 0.5), (2.5, 0.5), (2.0, 0.5), (True, 0.5),
                   (2, "0.5"), (2, True)]:
        with pytest.raises(ValueError):
            cur.CurConfig(k=k, epsilon=eps)
    cfg = cur.CurConfig(k=np.int64(2), epsilon=np.float64(0.5))
    assert cfg.c_total == cur.CurConfig(k=2, epsilon=0.5).c_total


def test_config_overrides():
    cfg = cur.CurConfig(k=2, epsilon=0.5, c2=7, r2=9, h1=50, xi_u=13)
    assert cfg.c2_val == 7 and cfg.r2_val == 9
    assert cfg.h1_val == 50 and cfg.xi_u_val == 13


def test_dimension_insufficiency_errors(rng):
    a = lowrank_noise(30, 25, 3, 0.2, rng)
    cfg = cur.CurConfig(k=2, epsilon=0.5)  # paper linear: c = 6488
    with pytest.raises(ValueError):
        cur.cur_linear_time(a, cfg)


# ---------------------------------------------------------------------------
# deterministic pipeline


def test_deterministic_bound_and_structure():
    rng0 = np.random.default_rng(101)
    a = lowrank_noise(40, 40, 5, 0.3, rng0)
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="deterministic")
    dec = cur.cur_deterministic(a, cfg)
    rep = cur.evaluate(a, dec)
    assert rep.ratio <= 9.0  # 1 + 8 eps at eps = 1
    assert rep.rank_u <= 2
    assert reconstructible(a, dec)
    assert rep.c == cfg.c_total and rep.r == cfg.r_total
    # component bound after the first column stage
    assert first_stage_residual_sq(a, dec, cfg) <= 10.0 * rep.opt_sq + 1e-9


def test_deterministic_exact_rank_k(rng):
    a = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 30))
    # exact SVD factor needs k < rank, so embed a rank-3 matrix, k = 2
    a += 1e-8 * rng.standard_normal((30, 1)) @ rng.standard_normal((1, 30))
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="deterministic")
    dec = cur.cur_deterministic(a, cfg)
    rep = cur.evaluate(a, dec)
    assert rep.err_sq <= rep.opt_sq + 1e-12 * np.sum(a * a)


def test_deterministic_repeat_identical():
    a = lowrank_noise(30, 30, 4, 0.4, np.random.default_rng(103))
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="deterministic")
    d1 = cur.cur_deterministic(a, cfg)
    d2 = cur.cur_deterministic(a, cfg)
    assert np.array_equal(d1.col_indices, d2.col_indices)
    assert np.array_equal(d1.row_indices, d2.row_indices)
    assert np.array_equal(d1.U, d2.U)


# ---------------------------------------------------------------------------
# linear-time pipeline


def test_linear_bound_small(rng):
    a = lowrank_noise(120, 100, 4, 0.2, np.random.default_rng(107))
    cfg = cur.CurConfig(k=3, epsilon=0.5, fidelity="heuristic")
    dec = cur.cur_linear_time(a, cfg, np.random.default_rng(0))
    rep = cur.evaluate(a, dec)
    assert rep.ratio <= 1.0 + 20 * 0.5
    assert rep.rank_u <= 3
    assert reconstructible(a, dec)


def test_linear_exact_rank_k():
    rng0 = np.random.default_rng(109)
    a = rng0.standard_normal((80, 2)) @ rng0.standard_normal((2, 70))
    cfg = cur.CurConfig(k=2, epsilon=0.5, fidelity="heuristic")
    dec = cur.cur_linear_time(a, cfg, np.random.default_rng(1))
    rep = cur.evaluate(a, dec)
    assert rep.exact
    assert rep.err_sq <= 1e-16 * np.sum(a * a)


def test_linear_cur_identity():
    # C U R equals the two-sided projection: column side onto span(C U)
    # (which carries the rank-k core), row side onto the row space of R
    rng0 = np.random.default_rng(113)
    a = lowrank_noise(60, 50, 3, 0.3, rng0)
    cfg = cur.CurConfig(k=2, epsilon=0.5, fidelity="heuristic")
    dec = cur.cur_linear_time(a, cfg, np.random.default_rng(2))
    cur_mat = dec.C @ dec.U @ dec.R
    q1 = linalg.orthonormal_basis(dec.C @ dec.U)
    q2 = linalg.orthonormal_basis(dec.R.T)
    projected = q1 @ (q1.T @ a @ q2) @ q2.T
    assert np.allclose(cur_mat, projected, atol=1e-8)


@pytest.mark.parametrize("variant", ["linear", "sparse"])
def test_repeated_draws_share_one_core_entry(variant, monkeypatch):
    # 40 column draws of 50 repeat some columns: the subspace step sees each
    # distinct column once, and the draws of one index split its row of U
    # in proportion to their squared scales
    a = lowrank_noise(60, 50, 3, 0.3, np.random.default_rng(113))
    if variant == "sparse":
        a = scipy.sparse.csr_matrix(a)
    cfg = cur.CurConfig(k=2, epsilon=0.5, variant=variant,
                        fidelity="heuristic")
    widths = []
    for name in ("best_subspace_svd", "approx_subspace_svd"):
        real = getattr(cur.subspace, name)
        monkeypatch.setattr(
            cur.subspace, name,
            lambda a, v, *rest, real=real: widths.append(v.shape[1])
            or real(a, v, *rest))
    dec = cur.decompose(a, cfg, np.random.default_rng(2))
    cols = np.unique(dec.col_indices)
    assert cols.size < dec.C.shape[1]
    assert widths == [cols.size]
    for j in cols:
        draws = np.flatnonzero(dec.col_indices == j)
        sq = dec.col_scales[draws] ** 2
        share = sq / np.sum(sq)
        np.testing.assert_allclose(
            dec.U[draws], share[:, None] * dec.U[draws].sum(axis=0),
            rtol=1e-12, atol=1e-15 * np.abs(dec.U).max())
    assert reconstructible(a, dec)


def test_linear_c1_component_bound_monte_carlo():
    # first-stage residual <= 1620 * opt in >= 60/100 seeds
    rng0 = np.random.default_rng(127)
    a = lowrank_noise(60, 50, 2, 0.5, rng0)
    cfg = cur.CurConfig(k=2, epsilon=1.0, fidelity="heuristic")
    opt = cur.optimal_residual_sq(a, 2)
    hits = 0
    for seed in range(100):
        dec = cur.cur_linear_time(a, cfg, np.random.default_rng(seed))
        hits += first_stage_residual_sq(a, dec, cfg) <= 1620.0 * opt
    assert hits >= 60


def test_linear_seeded_reproducibility():
    a = lowrank_noise(60, 50, 3, 0.3, np.random.default_rng(131))
    cfg = cur.CurConfig(k=2, epsilon=0.5, fidelity="heuristic", seed=5)
    d1 = cur.cur_linear_time(a, cfg)
    d2 = cur.cur_linear_time(a, cfg)
    assert np.array_equal(d1.col_indices, d2.col_indices)
    assert np.array_equal(d1.U, d2.U)


# ---------------------------------------------------------------------------
# input-sparsity pipeline


def test_sparse_bound_small():
    a = sparse_instance(400, 300, 0.02, 3, 11)
    cfg = cur.CurConfig(k=3, epsilon=0.5, variant="sparse",
                        fidelity="heuristic")
    dec = cur.cur_input_sparsity(a, cfg, np.random.default_rng(0))
    rep = cur.evaluate(a, dec)
    assert rep.ratio <= 2.0
    assert rep.rank_u <= 3
    assert reconstructible(a, dec)


def test_sparse_no_dense_materialization():
    a = sparse_instance(400, 300, 0.02, 3, 13)
    cfg = cur.CurConfig(k=3, epsilon=0.5, variant="sparse",
                        fidelity="heuristic")
    with audit.forbid_dense(400 * 300):
        dec = cur.cur_input_sparsity(a, cfg, np.random.default_rng(1))
    assert dec.C.shape == (400, cfg.c_total)


def test_sparse_sketched_u_regression():
    # force the sketched intersection path (xi_u below the row count) and
    # check the result still meets the relative-error target and rank cap;
    # the regression applies (W Z2)^+ W to A, never forming the dense W A
    a = sparse_instance(600, 500, 0.02, 3, 17)
    cfg = cur.CurConfig(k=3, epsilon=0.5, variant="sparse",
                        fidelity="heuristic", xi_u=400)
    with audit.forbid_dense(cfg.xi_u_val * a.shape[1]):
        dec = cur.cur_input_sparsity(a, cfg, np.random.default_rng(3))
    assert "u_regression_exact" not in dec.diagnostics["sketch_caps"]
    rep = cur.evaluate(a, dec)
    assert rep.ratio <= 2.5
    assert rep.rank_u <= 3


def test_sparse_exact_rank_k():
    rng0 = np.random.default_rng(137)
    left = scipy.sparse.random(300, 2, density=0.5, random_state=19).toarray()
    right = scipy.sparse.random(2, 250, density=0.5, random_state=23).toarray()
    a = scipy.sparse.csr_matrix(left @ right)
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="sparse",
                        fidelity="heuristic")
    dec = cur.cur_input_sparsity(a, cfg, rng0)
    rep = cur.evaluate(a, dec)
    assert rep.err_sq <= 1e-16 * linalg.frobenius_sq(a)


def test_decompose_dispatch():
    a = lowrank_noise(50, 40, 3, 0.3, np.random.default_rng(139))
    for variant in ("linear", "deterministic"):
        cfg = cur.CurConfig(k=2, epsilon=1.0, variant=variant,
                            fidelity="heuristic")
        dec = cur.decompose(a, cfg, np.random.default_rng(0))
        assert dec.diagnostics["variant"] == variant
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="sparse",
                        fidelity="heuristic")
    dec = cur.decompose(scipy.sparse.csr_matrix(a), cfg,
                        np.random.default_rng(0))
    assert dec.diagnostics["variant"] == "sparse"
    assert dec.diagnostics["fidelity"] == "heuristic"


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_exact_flag_and_ratio(rng):
    a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
    # trivial decomposition: every column and every row
    u = np.asarray(linalg.pinv(a)) @ a @ np.asarray(linalg.pinv(a))
    dec = cur.CurDecomposition(
        col_indices=np.arange(6), col_scales=np.ones(6),
        row_indices=np.arange(6), row_scales=np.ones(6),
        C=a, U=u, R=a, k=2)
    rep = cur.evaluate(a, dec)
    assert rep.exact
    assert rep.ratio <= 1e-9  # opt is only numerically zero here
    # the truly-zero-opt branch reports ratio 0 for an exact reconstruction
    assert cur.evaluate(a, dec, opt_sq=0.0).ratio == 0.0
    d = rep.as_dict()
    assert set(d) == {"err_sq", "opt_sq", "ratio", "c", "r", "rank_u",
                      "exact"}


def test_evaluate_error_never_beats_opt(rng):
    a = lowrank_noise(40, 30, 3, 0.5, rng)
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="deterministic",
                        fidelity="heuristic")
    rep = cur.evaluate(a, cur.cur_deterministic(a, cfg))
    assert rep.err_sq >= rep.opt_sq - 1e-9


def test_cur_error_sq_sparse_matches_dense():
    a = sparse_instance(100, 80, 0.05, 2, 29)
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="sparse",
                        fidelity="heuristic")
    dec = cur.cur_input_sparsity(a, cfg, np.random.default_rng(4))
    direct = np.sum((a.toarray() - dec.C @ dec.U @ dec.R) ** 2)
    assert cur.cur_error_sq(a, dec) == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize("variant", cur.VARIANTS)
def test_result_independent_of_input_representation(variant):
    # the same matrix given dense or as CSR yields the same bits
    rng = np.random.default_rng(163)
    a = lowrank_noise(32, 30, 3, 0.3, rng)
    a[rng.random(a.shape) < 0.6] = 0.0
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant=variant,
                        fidelity="heuristic", c2=6, r2=6)
    dense = cur.decompose(a, cfg, np.random.default_rng(5))
    csr = cur.decompose(scipy.sparse.csr_matrix(a), cfg,
                        np.random.default_rng(5))
    for name in ("col_indices", "row_indices", "U"):
        assert getattr(dense, name).tobytes() == getattr(csr, name).tobytes()


@pytest.mark.parametrize("variant", cur.VARIANTS)
@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_nonfinite_input_raises_value_error(variant, kind):
    a = lowrank_noise(60, 50, 3, 0.3, np.random.default_rng(8))
    a[7, 11] = np.nan
    if kind == "csr":
        a = scipy.sparse.csr_matrix(a)
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant=variant,
                        fidelity="heuristic")
    with pytest.raises(ValueError):
        cur.decompose(a, cfg, np.random.default_rng(0))


def test_evaluate_repeatable_on_csr():
    a = sparse_instance(50, 40, 0.2, 2, 31)
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant="sparse",
                        fidelity="heuristic")
    dec = cur.decompose(a, cfg, np.random.default_rng(1))
    bits = {np.float64(cur.evaluate(a, dec).opt_sq).tobytes()
            for _ in range(3)}
    assert len(bits) == 1


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize("rank", [0, 1, 3])
def test_top_sigma_sq_matches_singular_values(kind, rank, monkeypatch):
    rng = np.random.default_rng(40 + rank)
    a = rng.standard_normal((40, rank)) @ rng.standard_normal((rank, 30))
    sigma = np.linalg.svd(a, compute_uv=False)
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a

    def no_vectors(*args, **kwargs):
        raise AssertionError("singular vectors are not needed")

    monkeypatch.setattr(linalg, "svd", no_vectors)
    for k in (3, 29, 30):
        top = cur.top_sigma_sq(x, k)
        expected = float(np.sum(sigma[:k] ** 2))
        assert top == pytest.approx(expected, rel=1e-12, abs=1e-300)
        assert cur.optimal_residual_sq(x, k) >= 0.0


def test_duplicate_row_draws_keep_rank_k_core():
    # The c = r = 220 draws from 800 rows repeat 32 rows, so R is exactly
    # rank-deficient.  When U came from the least-squares fallback of
    # linalg.apply_right_pinv with machine epsilon as its rank cutoff, it
    # kept a rounding-error direction here: max|U| reached 8.6e8 and U had
    # numerical rank 1.  (The cli-roundtrip benchmark instance at seed 0.)
    a = lowrank_noise(800, 800, 5, 0.02, np.random.default_rng([0, 0]))
    cfg = cur.CurConfig(k=5, epsilon=0.2, variant="linear",
                        fidelity="heuristic")
    dec = cur.decompose(a, cfg, np.random.default_rng(1915600865))
    assert len(set(dec.row_indices.tolist())) < dec.R.shape[0]
    rep = cur.evaluate(a, dec)
    assert rep.rank_u == cfg.k
    assert rep.ratio >= 1.0 - 1e-12
    assert rep.ratio <= 1.0 + 20.0 * cfg.epsilon
    assert np.abs(dec.U).max() <= 1e-2


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize("variant", ["linear", "sparse"])
def test_rank_one_decomposition_meets_bound(variant, kind):
    a = lowrank_noise(120, 100, 3, 0.2, np.random.default_rng(151))
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    eps = 0.5
    bound = {"linear": 1.0 + 20.0 * eps,
             "sparse": (1.0 + eps) * (1.0 + 60.0 * eps)}[variant]
    cfg = cur.CurConfig(k=1, epsilon=eps, variant=variant,
                        fidelity="heuristic")
    for seed in range(3):
        dec = cur.decompose(x, cfg, np.random.default_rng(seed))
        rep = cur.evaluate(x, dec)
        assert 1.0 - 1e-12 <= rep.ratio <= bound
        assert rep.rank_u <= 1
        assert reconstructible(a, dec)


def test_rank_deficient_triangles_factored_once(monkeypatch):
    # An exactly rank-2 input makes both the QR triangle of the distinct
    # columns and that of R^T singular.  Each such triangle may reach a
    # factorization (SVD, QR, least squares) at most once per decompose.
    a = (np.random.default_rng(157).standard_normal((80, 2))
         @ np.random.default_rng(163).standard_normal((2, 70)))
    seen = []

    def counting(real):
        def wrapper(x, *args, **kwargs):
            x_arr = np.asarray(x)
            if (x_arr.ndim == 2 and x_arr.shape[0] == x_arr.shape[1] > 1
                    and np.array_equal(x_arr, np.triu(x_arr))):
                seen.append(x_arr.tobytes())
            return real(x, *args, **kwargs)
        return wrapper

    for name in ("svd", "qr", "lstsq"):
        monkeypatch.setattr(scipy.linalg, name,
                            counting(getattr(scipy.linalg, name)))
    cfg = cur.CurConfig(k=2, epsilon=0.5, fidelity="heuristic")
    dec = cur.decompose(a, cfg, np.random.default_rng(4))
    assert seen
    assert len(set(seen)) == len(seen)
    monkeypatch.undo()
    assert cur.evaluate(a, dec).exact


@pytest.mark.parametrize("variant", ["linear", "sparse"])
@pytest.mark.parametrize("wide", [True, False])
def test_more_distinct_draws_than_the_other_side(variant, wide):
    # with c1 + c2 > m (or r1 + r2 > n) the distinct columns of a 40 x 100
    # input (rows of its transpose) can outnumber its rows
    over = dict(c1=8, c2=60, r1=8, r2=20)
    a = lowrank_noise(40, 100, 5, 0.1, np.random.default_rng(173))
    if not wide:
        a = a.T
        over = dict(c1=8, c2=20, r1=8, r2=60)
    cfg = cur.CurConfig(k=2, epsilon=0.5, variant=variant,
                        fidelity="heuristic", **over)
    dec = cur.decompose(a, cfg, np.random.default_rng(0))
    rep = cur.evaluate(a, dec)
    assert reconstructible(a, dec)
    assert rep.rank_u <= 2 and rep.ratio <= 1.0 + 20 * 0.5


def _spectrum_instance(m, n, sigma, rng):
    """U diag(sigma) V^T with random orthonormal U and V."""
    u = np.linalg.qr(rng.standard_normal((m, len(sigma))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(sigma))))[0]
    return (u * sigma) @ v.T


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize("case", ["noisy", "clustered", "rank_below_k",
                                  "rank_0"])
def test_optimal_residual_sq_matches_gesdd(case, kind):
    # above 400 rows and columns the dense input takes the ARPACK path too;
    # ||A||^2 - sum sigma_i^2 cancels about 1e-16 of ||A||^2 either way
    rng = np.random.default_rng(71)
    m, n, k = 460, 430, 3
    if case == "noisy":
        a = lowrank_noise(m, n, 5, 0.05, rng)
    elif case == "clustered":  # sigma_3 = sigma_4 = sigma_5
        a = _spectrum_instance(m, n, [9.0, 6.0, 2.0, 2.0, 2.0, 0.5], rng)
    elif case == "rank_below_k":
        a = _spectrum_instance(m, n, [4.0, 1.0], rng)
    else:
        a = np.zeros((m, n))
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    sigma = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesdd")
    expected = float(np.sum(sigma[k:] ** 2))
    got = cur.optimal_residual_sq(x, k)
    assert abs(got - expected) <= 1e-12 * max(np.sum(a * a), 1e-300)
    assert got >= 0.0


def test_evaluate_skips_full_spectrum_of_a(monkeypatch):
    a = lowrank_noise(500, 500, 4, 0.05, np.random.default_rng(73))
    cfg = cur.CurConfig(k=2, epsilon=1.0, fidelity="heuristic")
    dec = cur.decompose(a, cfg, np.random.default_rng(0))
    shapes = []

    def recording(real):
        def wrapper(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real(x, *args, **kwargs)
        return wrapper

    for name in ("singular_values", "_lapack_svd"):
        monkeypatch.setattr(linalg, name, recording(getattr(linalg, name)))
    rep = cur.evaluate(a, dec)
    assert a.shape not in shapes
    monkeypatch.undo()
    assert rep.opt_sq == pytest.approx(
        np.sum(np.linalg.svd(a, compute_uv=False)[2:] ** 2), rel=1e-10)


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_sparse_variant_on_all_zero_input_is_exact(kind):
    a = np.zeros((80, 60))
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    cfg = cur.CurConfig(k=2, epsilon=0.5, variant="sparse",
                        fidelity="heuristic")
    dec = cur.decompose(x, cfg, np.random.default_rng(0))
    rep = cur.evaluate(x, dec)
    assert rep.exact and rep.ratio == 0.0
    assert np.all(np.isfinite(dec.U))
    assert reconstructible(a, dec)


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize("variant", cur.VARIANTS)
@pytest.mark.parametrize("case", ["gram", "exact", "small"])
def test_cur_error_sq_matches_direct_sum(case, variant, kind):
    # "gram": a noisy input, whose error the Gram form gives; "exact": a
    # rank-2 input at k = 2, whose error is below rounding and is summed by
    # row blocks; "small": c = r = 12 <= 32, where the range probe of U is
    # the trivial (I, U).  Few adaptive draws keep the derandomized top-up,
    # which enumerates a hash family of about (4m)^2 members, at seconds.
    rng = np.random.default_rng(167)
    if case == "exact":
        a = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 36))
        a[rng.random(40) < 0.3] = 0.0
    else:
        a = lowrank_noise(40, 36, 4, 0.3, rng)
        a[rng.random(a.shape) < 0.3] = 0.0
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    first = 8 if case == "small" else 30
    cfg = cur.CurConfig(k=2, epsilon=0.5, variant=variant,
                        fidelity="heuristic", c1=first, r1=first, c2=4, r2=4)
    dec = cur.decompose(x, cfg, np.random.default_rng(2))
    assert (min(dec.C.shape[1], dec.R.shape[0]) <= 32) == (case == "small")
    fro = linalg.frobenius_sq(a)
    direct = float(np.sum((a - dec.C @ dec.U @ dec.R) ** 2))
    assert (direct > 1e-3 * fro) == (case != "exact")
    assert cur.cur_error_sq(x, dec) == pytest.approx(
        direct, rel=1e-12, abs=1e-24 * fro)


def test_evaluate_probes_u_once(monkeypatch):
    a = lowrank_noise(120, 100, 3, 0.2, np.random.default_rng(173))
    cfg = cur.CurConfig(k=2, epsilon=0.5, fidelity="heuristic")
    dec = cur.decompose(a, cfg, np.random.default_rng(0))
    calls = []
    real = linalg._range_probe

    def counting(u, *args, **kwargs):
        calls.append(np.shape(u))
        return real(u, *args, **kwargs)

    monkeypatch.setattr(linalg, "_range_probe", counting)
    rep = cur.evaluate(a, dec)
    assert calls == [dec.U.shape]
    assert rep.rank_u == 2


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_evaluate_sums_fro_once(kind, monkeypatch):
    # ||A||^2 is summed once and shared: the report equals the public
    # error and optimum, which each sum it themselves, bit for bit
    a = lowrank_noise(120, 100, 3, 0.2, np.random.default_rng(181))
    x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
    cfg = cur.CurConfig(k=2, epsilon=0.5, fidelity="heuristic")
    dec = cur.decompose(x, cfg, np.random.default_rng(0))
    calls = []
    real = linalg.frobenius_sq

    def counting(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(linalg, "frobenius_sq", counting)
    rep = cur.evaluate(x, dec)
    assert [s for s in calls if s == a.shape] == [a.shape]  # not U's probe
    assert rep.err_sq == cur.cur_error_sq(x, dec)
    assert rep.opt_sq == cur.optimal_residual_sq(x, 2)


@pytest.mark.parametrize("variant", cur.VARIANTS)
def test_power_of_two_scaling_keeps_indices(variant):
    # 2^j A must give the same draws and 2^-j U: every floor is relative
    # (two adaptive draws keep the derandomized top-up at seconds)
    a = lowrank_noise(80, 60, 5, 0.1, np.random.default_rng(179))
    few = dict(c2=2, r2=2) if variant == "deterministic" else {}
    cfg = cur.CurConfig(k=2, epsilon=0.5, variant=variant,
                        fidelity="heuristic", **few)
    base = cur.decompose(a, cfg, np.random.default_rng(1))
    for j in (-300, -100, 40, 300):
        dec = cur.decompose(np.ldexp(a, j), cfg, np.random.default_rng(1))
        assert dec.col_indices.tobytes() == base.col_indices.tobytes()
        assert dec.row_indices.tobytes() == base.row_indices.tobytes()
        u = np.ldexp(dec.U, j)
        if variant == "sparse":  # ARPACK rescales its input past 2^+-255
            assert np.abs(u - base.U).max() <= 1e-12 * np.abs(base.U).max()
        else:
            assert u.tobytes() == base.U.tobytes()


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize("variant", cur.VARIANTS)
def test_rank_at_most_k_gives_exact_cur(variant, kind):
    rng = np.random.default_rng(181)
    cfg = cur.CurConfig(k=2, epsilon=1.0, variant=variant,
                        fidelity="heuristic")
    for rank in (0, 1, 2):
        a = rng.standard_normal((50, rank)) @ rng.standard_normal((rank, 40))
        x = scipy.sparse.csr_matrix(a) if kind == "csr" else a
        dec = cur.decompose(x, cfg, np.random.default_rng(0))
        rep = cur.evaluate(x, dec)
        assert rep.exact and rep.ratio == 0.0
        assert rep.rank_u == rank
        assert reconstructible(a, dec)
