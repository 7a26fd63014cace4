"""Krylov solvers against independent reference implementations."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kryblur.operators import (
    BlurOperator,
    FlipComposedOperator,
    apply_flip,
    bccb_eigenvalues,
    materialize_dense,
)
from kryblur.preconditioners import (
    CirculantOperator,
    ComposedOperator,
    DiagonalOperator,
    IdentityOperator,
    circulant_abs_tikhonov,
    circulant_sqrt,
    circulant_tikhonov,
    sparsity_weights,
)
from kryblur import operators, preconditioners, solvers
from kryblur.problems import make_gaussian_psf, make_problem, make_two_motion_psf, natural_scene, phantom, star_field
from kryblur.solvers import (
    LinearMap,
    SolveRecord,
    StoppingRule,
    discrepancy_stop,
    fgmres,
    flsqr,
    gmres,
    lsqr,
    minres,
    minres_sym_prec,
)

from oracles import (
    dense_tikhonov_solve,
    random_nonsymmetric,
    random_symmetric,
    reference_cgls,
    reference_fgmres,
    reference_flexible_gk,
    reference_gmres,
    reference_lsqr,
    reference_minres,
    reference_psnr,
)


def _unit_rhs(size, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(size)
    return b / np.linalg.norm(b)


@pytest.fixture
def iterates(monkeypatch):
    """A copy of every iterate the solvers record, in order."""
    seen = []
    push = solvers._History.push

    def recording_push(self, x, *args):
        seen.append(np.array(x, copy=True))
        return push(self, x, *args)

    monkeypatch.setattr(solvers._History, "push", recording_push)
    return seen


@pytest.fixture
def bases(monkeypatch):
    """The orthonormal rows of every basis a solver grew by DCGS2, read after
    the solve, each with its Hbar (``A V = V Hbar``, or ``A Z = V Hbar`` for
    the flexible solvers; None for the FLSQR basis V): rows ``:k + 1`` are
    final once the update of the block after step k has run."""
    last = {}
    update = solvers._Dcgs2.update

    def recording_update(self, *args):
        last[id(self.basis)] = (self, self.k + 1)
        return update(self, *args)

    monkeypatch.setattr(solvers._Dcgs2, "update", recording_update)
    return lambda: [(gs.basis[:k], None if gs.h is None else gs.h[:k, :k - 1])
                    for gs, k in last.values()]


@pytest.fixture
def blocks(monkeypatch):
    """``(applied, taken)`` for every block DCGS2 reduced: how many rows the
    block brought (for s-step GMRES, images the operator was applied for),
    and how many steps it took.  The flexible solvers' blocks are ``(1, 1)``."""
    seen = []
    reduce = solvers._Dcgs2.reduce

    def recording_reduce(self, k, lagged, t):
        taken = reduce(self, k, lagged, t)
        seen.append((t, taken))
        return taken

    monkeypatch.setattr(solvers._Dcgs2, "reduce", recording_reduce)
    return seen


def _orthogonality_loss(rows):
    return np.linalg.norm(np.eye(len(rows)) - rows @ rows.T, 2)


# ---------------------------------------------------------------------------
# StoppingRule / SolveRecord / discrepancy_stop


def test_stopping_rule_validation():
    with pytest.raises(ValueError, match="max_iter"):
        StoppingRule(max_iter=0)
    with pytest.raises(ValueError, match="eta"):
        StoppingRule(eta=0.99)
    with pytest.raises(ValueError, match="noise_norm"):
        StoppingRule(dp_enabled=True)
    with pytest.raises(ValueError, match="nonnegative"):
        StoppingRule(dp_enabled=True, noise_norm=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        StoppingRule(noise_norm=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["eta", "noise_norm"])
def test_stopping_rule_refuses_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .* and finite"):
        StoppingRule(**{field: value})


@pytest.mark.parametrize("value", [np.nan, 2.5, 3.0, "3", -1], ids=str)
def test_stopping_rule_refuses_a_max_iter_that_is_no_positive_integer(value):
    # a float budget would only fail at range() inside the solve
    with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
        StoppingRule(max_iter=value)
    assert StoppingRule(max_iter=np.int64(3)).max_iter == 3


def test_discrepancy_stop_examples():
    rule = StoppingRule(dp_enabled=True, eta=1.01, noise_norm=1.0)
    assert discrepancy_stop(1.0, rule)
    assert not discrepancy_stop(1.02, rule)
    assert discrepancy_stop(1.0, StoppingRule(eta=1.01, noise_norm=1.0))
    with pytest.raises(ValueError, match="noise_norm"):
        discrepancy_stop(1.0, StoppingRule())


def test_discrepancy_with_zero_noise_fires_only_on_exact_solve():
    rule = StoppingRule(dp_enabled=True, eta=1.01, noise_norm=0.0)
    assert not discrepancy_stop(1e-300, rule)
    assert discrepancy_stop(0.0, rule)


def test_record_series_lengths_and_best_index():
    mat = random_nonsymmetric(16, 1)
    b = _unit_rhs(16, 2)
    truth = np.linalg.solve(mat, b)
    rec = gmres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=10), x_true=truth)
    k = rec.iterations
    assert len(rec.res_norm) == k
    assert len(rec.rre) == len(rec.psnr) == k
    assert 1 <= rec.best_index <= k
    assert rec.rre[rec.best_index - 1] == min(rec.rre)


def test_record_metrics_and_best_iterate_past_semiconvergence(iterates):
    # the one-pass RRE and PSNR agree with the metrics module, and the best
    # iterate's buffer holds that iterate, not a later one
    prob = make_problem(star_field(16, seed=3), make_gaussian_psf(5, 1.5), "zero", 0.05, 5)
    rec = lsqr(prob.operator, prob.b, StoppingRule(max_iter=40), x_true=prob.x_true)
    assert rec.best_index < rec.iterations == len(iterates)
    x_true = prob.x_true.ravel()
    for x, got_rre, got_psnr in zip(iterates, rec.rre, rec.psnr):
        want_rre = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
        assert abs(got_rre - want_rre) <= 1e-14 * got_rre
        assert abs(got_psnr - reference_psnr(x, x_true)) <= 1e-12
    np.testing.assert_array_equal(rec.x_best, iterates[rec.best_index - 1])


# ---------------------------------------------------------------------------
# LinearMap plumbing


def test_linear_map_from_matrix_requires_square():
    with pytest.raises(ValueError, match="square"):
        LinearMap.from_matrix(np.ones((2, 3)))


def test_linear_map_missing_adjoint():
    m = LinearMap(4, lambda x: x)
    with pytest.raises(ValueError, match="adjoint"):
        m.apply_adjoint(np.ones(4))


def test_rhs_size_mismatch():
    m = LinearMap.from_matrix(np.eye(4))
    with pytest.raises(ValueError, match="entries"):
        gmres(m, np.ones(5), StoppingRule(max_iter=2))


@pytest.mark.parametrize("solver", [minres, gmres, fgmres, lsqr, flsqr])
def test_nonfinite_rhs_rejected(solver):
    b = _unit_rhs(8, 2)
    b[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solver(LinearMap.from_matrix(np.eye(8)), b, rule=StoppingRule(max_iter=2))


@pytest.mark.parametrize("solver", [minres, gmres, fgmres, lsqr, flsqr])
def test_nonfinite_truth_rejected(solver):
    truth = np.ones(8)
    truth[0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        solver(LinearMap.from_matrix(np.eye(8)), _unit_rhs(8, 2),
               rule=StoppingRule(max_iter=2), x_true=truth)


# ---------------------------------------------------------------------------
# MINRES


def test_minres_identity_converges_first_iteration():
    ident = LinearMap(16, lambda x: x, lambda x: x)
    b = np.random.default_rng(1).standard_normal(16)
    rec = minres(ident, b, StoppingRule(max_iter=5))
    assert rec.iterations == 1
    assert rec.stop_reason == "breakdown"
    assert np.abs(rec.x_stop - b).max() <= 1e-12
    assert rec.res_norm[0] <= 1e-12 * np.linalg.norm(b)


def test_minres_matches_reference_small_dense():
    for size, seed in ((16, 1), (32, 2), (64, 3)):
        mat = random_symmetric(size, seed)
        b = _unit_rhs(size, seed + 100)
        iters = size - 4
        rec = minres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=iters))
        want, _ = reference_minres(mat, b, iters)
        diff = max(abs(a - w) for a, w in zip(rec.res_norm, want))
        assert diff <= 1e-10, f"size {size}: residual mismatch {diff:.2e}"


def test_minres_rejects_nonsymmetric_map():
    mat = random_nonsymmetric(16, 4)
    with pytest.raises(ValueError, match="symmetric"):
        minres(LinearMap.from_matrix(mat), np.ones(16), StoppingRule(max_iter=3))


def test_minres_flip_blur_residuals_nonincreasing():
    prob = make_problem(star_field(8, seed=3), make_gaussian_psf(3, 1.0), "zero", 0.02, 5)
    fop = FlipComposedOperator(prob.operator)
    rec = minres(fop, apply_flip(prob.b.ravel()), StoppingRule(max_iter=20))
    res = rec.res_norm
    assert all(res[i + 1] <= res[i] + 1e-12 * res[0] for i in range(len(res) - 1))
    assert res[-1] <= res[0]


@pytest.mark.parametrize("solver, rhs, seed", [
    pytest.param(solver, rhs, seed, id=f"{prefix}{rhs}-{seed}")
    for solver, prefix in ((minres, ""), (lsqr, "lsqr-"))
    for rhs in ("random", "range") for seed in range(6)
])
def test_minres_singular_map_iterates_stay_bounded(solver, rhs, seed):
    # eigenvalues (1, -1.5, 2, 0.5, -0.8, 0, 0, 0): T_6 is singular and the
    # Krylov space exhausted, so gamma at step 6 is rounding noise and MINRES
    # must stop on the least-squares iterate of step 5; with b in the range
    # that iterate is exact and the run must not drift past it.  LSQR must
    # stop by breakdown at step 6 too (alpha_6 is rounding noise against
    # ||B_5||_F), on the minimum-norm least-squares solution.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    mat = (q * np.array([1.0, -1.5, 2.0, 0.5, -0.8, 0.0, 0.0, 0.0])) @ q.T
    b = _unit_rhs(8, seed + 10)
    if rhs == "range":
        b = mat @ np.linalg.lstsq(mat, b, rcond=None)[0]
    rec = solver(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=20))
    x_min = np.linalg.lstsq(mat, b, rcond=None)[0]
    least = np.linalg.norm(b - mat @ x_min)
    direct = np.linalg.norm(b - mat @ rec.x_stop)
    assert rec.stop_reason == "breakdown"
    assert rec.iterations == 5
    if solver is lsqr:
        assert np.linalg.norm(rec.x_stop - x_min) <= 1e-10
    assert np.linalg.norm(rec.x_stop) <= 10.0
    assert np.linalg.norm(rec.x_best) <= 10.0
    assert abs(direct - least) <= 1e-12
    assert abs(rec.res_norm[-1] - direct) <= 1e-12


# ---------------------------------------------------------------------------
# minres_sym_prec


def test_minres_sym_prec_identity_reduces_to_minres():
    prob = make_problem(star_field(8, seed=3), make_gaussian_psf(3, 1.0), "zero", 0.02, 5)
    fop = FlipComposedOperator(prob.operator)
    yb = apply_flip(prob.b.ravel())
    rule = StoppingRule(max_iter=15)
    plain = minres(fop, yb, rule)
    ident_half = CirculantOperator(np.ones((8, 5)))
    reduced = minres_sym_prec(fop, yb, ident_half, rule)
    diff = max(abs(a - w) for a, w in zip(reduced.res_norm, plain.res_norm))
    assert diff <= 1e-12
    # the identity circulant still round-trips through the FFT, so the
    # iterates in near-null directions drift a little more than the residuals
    assert np.abs(reduced.x_stop - plain.x_stop).max() <= 1e-9


def test_minres_sym_prec_matches_dense_oracle(iterates):
    psf = make_gaussian_psf(3, 1.0)
    n = 8
    prob = make_problem(star_field(8, seed=3), psf, "zero", 0.02, 11)
    fop = FlipComposedOperator(prob.operator)
    yb = apply_flip(prob.b.ravel())
    p_half = circulant_sqrt(circulant_abs_tikhonov(bccb_eigenvalues(psf, n), 0.01))
    iters = 12
    rec = minres_sym_prec(fop, yb, p_half, StoppingRule(max_iter=iters))

    dense_s = materialize_dense(prob.operator)[::-1, :]  # flip rows: Y @ T
    dense_half = materialize_dense(p_half, cap=n)
    system = dense_half @ dense_s @ dense_half
    _, zs = reference_minres(system, dense_half @ yb, iters)
    assert len(iterates) == rec.iterations
    for got, z in zip(iterates, zs):
        want = dense_half @ z
        assert np.abs(got - want).max() <= 1e-9
    # recorded true residuals belong to the ORIGINAL flipped system
    for got_res, x in zip(rec.res_norm, iterates):
        direct = np.linalg.norm(yb - dense_s @ x)
        assert abs(got_res - direct) <= 1e-10 * max(1.0, direct)


def test_minres_sym_prec_size_mismatch():
    prob = make_problem(np.ones((8, 8)), make_gaussian_psf(3, 1.0), "zero", 0.0, 1)
    half = CirculantOperator(np.ones((4, 3)))
    with pytest.raises(ValueError, match="size"):
        minres_sym_prec(FlipComposedOperator(prob.operator),
                        np.zeros(64), half, StoppingRule(max_iter=2))


def test_minres_preconditioning_reaches_best_faster():
    # Star-field deblurring: the smoothed reciprocal-magnitude preconditioner
    # must reach an at-least-as-good best reconstruction in strictly fewer
    # iterations than the unpreconditioned flip-symmetrized run.
    psf = make_gaussian_psf(7, 2.0)
    prob = make_problem(star_field(32, seed=1), psf, "zero", 0.05, 42)
    fop = FlipComposedOperator(prob.operator)
    yb = apply_flip(prob.b.ravel())
    rule = StoppingRule(max_iter=60)
    plain = minres(fop, yb, rule, x_true=prob.x_true)
    p_half = circulant_sqrt(circulant_abs_tikhonov(bccb_eigenvalues(psf, 32), 1e-2))
    prec = minres_sym_prec(fop, yb, p_half, rule, x_true=prob.x_true)
    assert min(prec.rre) <= min(plain.rre)
    assert int(np.argmin(prec.rre)) < int(np.argmin(plain.rre))


# ---------------------------------------------------------------------------
# GMRES


def test_gmres_identity_converges_first_iteration():
    ident = LinearMap(16, lambda x: x)
    b = np.random.default_rng(1).standard_normal(16)
    rec = gmres(ident, b, StoppingRule(max_iter=5))
    assert rec.iterations == 1 and rec.stop_reason == "breakdown"
    assert np.abs(rec.x_stop - b).max() <= 1e-12


def test_gmres_matches_reference_small_dense():
    for size, seed in ((16, 1), (32, 2), (64, 3)):
        mat = random_nonsymmetric(size, seed)
        b = _unit_rhs(size, seed + 100)
        iters = size - 4
        rec = gmres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=iters))
        want, _ = reference_gmres(mat, b, iters)
        diff = max(abs(a - w) for a, w in zip(rec.res_norm, want))
        assert diff <= 1e-10, f"size {size}: residual mismatch {diff:.2e}"


def test_gmres_happy_breakdown_is_exact_solve():
    mat = np.diag(np.arange(1.0, 9.0))
    b = np.zeros(8)
    b[0] = 1.0
    rec = gmres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=5))
    assert rec.stop_reason == "breakdown"
    assert rec.iterations == 1
    assert rec.res_norm[-1] <= 1e-13


def test_gmres_zero_rhs_stops_immediately():
    rec = gmres(LinearMap.from_matrix(np.eye(4)), np.zeros(4), StoppingRule(max_iter=3))
    assert rec.iterations == 0 and rec.stop_reason == "breakdown"
    assert np.all(rec.x_stop == 0.0)


def test_gmres_flip_side_improves_best_error():
    # Motion blur with reflective boundaries: running on the flipped system
    # (which is closer to normal) gives a strictly better best reconstruction.
    psf = make_two_motion_psf(7, 45.0, 135.0)
    prob = make_problem(natural_scene(64, seed=7), psf, "reflective", 0.01, 42)
    rule = StoppingRule(max_iter=40)
    plain = gmres(prob.operator, prob.b.ravel(), rule, x_true=prob.x_true)
    fop = FlipComposedOperator(prob.operator)
    flipped = gmres(fop, apply_flip(prob.b.ravel()), rule, x_true=prob.x_true)
    assert min(flipped.rre) < min(plain.rre)


def _assert_residuals_match_dense(rec, iterates, prob):
    # Every recorded residual, ||beta e1 - Hbar y|| with the new rows weighted
    # by their Gram, equals the residual of the unflipped system recomputed
    # with the dense matrix.
    dense = materialize_dense(prob.operator)
    b = prob.b.ravel()
    b_norm = np.linalg.norm(b)
    assert rec.iterations == len(iterates) > 0
    for res, x in zip(rec.res_norm, iterates):
        direct = np.linalg.norm(b - dense @ x)
        assert abs(res - direct) <= 1e-10 * max(1.0, direct)
        assert abs(res - direct) <= 1e-10 * b_norm


def test_gmres_flip_isometry_residuals(iterates):
    # On (YA, Yb) the recorded residual equals the unflipped system residual.
    prob = make_problem(star_field(8, seed=3), make_gaussian_psf(3, 1.0), "zero", 0.02, 5)
    fop = FlipComposedOperator(prob.operator)
    rec = gmres(fop, apply_flip(prob.b.ravel()), StoppingRule(max_iter=15))
    _assert_residuals_match_dense(rec, iterates, prob)


@pytest.mark.parametrize("method", ["YA", "YAP", "YAPW", "skip-first"])
def test_flip_residuals_match_dense_on_reflective_motion_blur(method, iterates):
    # The paper's setting: two-motion blur, reflective boundaries, 40 steps
    # of the flipped GMRES family, including a skipped degenerate direction.
    psf = make_two_motion_psf(7, 45.0, 135.0)
    prob = make_problem(natural_scene(32, seed=7), psf, "reflective", 0.01, 42)
    symbol = bccb_eigenvalues(psf, 32)
    fop = FlipComposedOperator(prob.operator)
    rhs = apply_flip(prob.b.ravel())
    rule = StoppingRule(max_iter=40)

    def supplier(k, x_prev):
        circ = circulant_abs_tikhonov(symbol, 0.1 * 0.8 ** k)
        if method == "skip-first":
            return DiagonalOperator(np.zeros(x_prev.size)) if k == 0 else circ
        weights = sparsity_weights(x_prev) if np.any(x_prev) else IdentityOperator(x_prev.size)
        return ComposedOperator(weights, circ)

    if method == "YA":
        rec = gmres(fop, rhs, rule)
    elif method == "YAP":
        rec = gmres(fop, rhs, rule, right_prec=circulant_abs_tikhonov(symbol, 0.1))
    else:
        rec = fgmres(fop, rhs, supplier, rule)
    assert rec.skipped == ([1] if method == "skip-first" else [])
    assert rec.iterations == 40
    _assert_residuals_match_dense(rec, iterates, prob)


@pytest.mark.parametrize("method", ["AP GMRES", "APW FLSQR"])
def test_unflipped_residuals_match_dense_on_reflective_motion_blur(method, iterates):
    # The same scene without the flip: Tikhonov-filtered GMRES, and FLSQR
    # with a decaying Tikhonov filter after sparsity weights, as the driver
    # builds them for these labels.
    psf = make_two_motion_psf(7, 45.0, 135.0)
    prob = make_problem(natural_scene(32, seed=7), psf, "reflective", 0.01, 42)
    symbol = bccb_eigenvalues(psf, 32)
    rule = StoppingRule(max_iter=40)

    def supplier(k, x_prev):
        circ = circulant_tikhonov(symbol, 0.1 * 0.8 ** k)
        return ComposedOperator(sparsity_weights(x_prev), circ) if np.any(x_prev) else circ

    if method == "AP GMRES":
        rec = gmres(prob.operator, prob.b.ravel(), rule,
                    right_prec=circulant_tikhonov(symbol, 0.1))
    else:
        rec = flsqr(prob.operator, prob.b.ravel(), supplier, rule)
    assert rec.iterations == 40
    _assert_residuals_match_dense(rec, iterates, prob)


def test_mapped_basis_is_a_private_mapping():
    # A shared anonymous mapping is shmem, which transparent huge pages only
    # reach under a separate setting; the Krylov bases are mapped privately.
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("the system has no /proc/self/maps")
    buf = solvers._mapped(2, 1 << 20)  # 16 MiB: past the huge-page advice
    buf[:] = 1.0
    addr = buf.__array_interface__["data"][0]
    for line in maps.read_text().splitlines():
        span, perms = line.split()[:2]
        lo, hi = (int(v, 16) for v in span.split("-"))
        if lo <= addr < hi:
            assert perms.endswith("p"), line
            return
    pytest.fail(f"no mapping in /proc/self/maps covers {addr:#x}")


def test_gmres_right_preconditioned_residual_identity(iterates):
    psf = make_gaussian_psf(3, 1.0)
    prob = make_problem(star_field(8, seed=3), psf, "zero", 0.02, 5)
    dense = materialize_dense(prob.operator)
    b = prob.b.ravel()
    prec = circulant_tikhonov(bccb_eigenvalues(psf, 8), 0.05)
    rec = gmres(prob.operator, b, StoppingRule(max_iter=15), right_prec=prec)
    assert len(iterates) == rec.iterations
    for res, x in zip(rec.res_norm, iterates):
        direct = np.linalg.norm(b - dense @ x)
        assert abs(res - direct) <= 1e-8 * max(1.0, direct)


@pytest.mark.parametrize("solver", [gmres, lsqr])
def test_gmres_right_prec_size_mismatch(solver):
    op, calls = _counting_map(np.eye(16))
    with pytest.raises(ValueError, match="size"):
        solver(op, np.ones(16), StoppingRule(max_iter=2), right_prec=IdentityOperator(9))
    assert calls == {"apply": 0, "apply_adjoint": 0}


_SOLVERS = {"minres": minres, "gmres": gmres, "fgmres": fgmres, "lsqr": lsqr, "flsqr": flsqr,
            "minres_sym_prec": lambda A, b, **kw: minres_sym_prec(
                A, b, IdentityOperator(16), **kw)}


@pytest.mark.parametrize("method", list(_SOLVERS))
def test_wrong_size_x_true_rejected_before_any_application(method):
    op, calls = _counting_map(random_symmetric(16, 2))
    with pytest.raises(ValueError, match="x_true"):
        _SOLVERS[method](op, _unit_rhs(16, 3), rule=StoppingRule(max_iter=4),
                         x_true=np.ones(7))
    assert calls == {"apply": 0, "apply_adjoint": 0}


@pytest.mark.parametrize("truth", ["negative", "nonpositive"])
@pytest.mark.parametrize("method", list(_SOLVERS))
def test_x_true_without_positive_peak_rejected_before_any_application(method, truth):
    # its PSNR, from the peak max(x_true), is undefined
    op, calls = _counting_map(random_symmetric(16, 2))
    x_true = -np.ones(16) if truth == "negative" else np.minimum(_unit_rhs(16, 4), 0.0)
    with pytest.raises(ValueError, match="x_true has maximum"):
        _SOLVERS[method](op, _unit_rhs(16, 3), rule=StoppingRule(max_iter=4), x_true=x_true)
    assert calls == {"apply": 0, "apply_adjoint": 0}


@pytest.mark.parametrize("method", list(_SOLVERS))
def test_all_zero_x_true_rejected_before_any_application(method):
    # its RRE is undefined; the symmetry probe does not run either
    op, calls = _counting_map(random_symmetric(16, 2))
    with pytest.raises(ValueError, match="x_true"):
        _SOLVERS[method](op, _unit_rhs(16, 3), rule=StoppingRule(max_iter=4),
                         x_true=np.zeros(16))
    assert calls == {"apply": 0, "apply_adjoint": 0}


@pytest.mark.parametrize("solver", [fgmres, flsqr])
def test_wrong_size_flexible_preconditioner_rejected(solver):
    # a flexible preconditioner is handed no size check up front; its own
    # input check stops the first step
    op = LinearMap.from_matrix(random_nonsymmetric(16, 4))
    with pytest.raises(ValueError, match="entries"):
        solver(op, _unit_rhs(16, 5), lambda k, x_prev: IdentityOperator(9),
               StoppingRule(max_iter=4))


# ---------------------------------------------------------------------------
# FGMRES


def test_fgmres_identity_callback_reduces_to_gmres():
    mat = random_nonsymmetric(32, 5)
    b = _unit_rhs(32, 7)
    rule = StoppingRule(max_iter=20)
    plain = gmres(LinearMap.from_matrix(mat), b, rule)
    flex = fgmres(LinearMap.from_matrix(mat), b,
                  lambda k, x_prev: IdentityOperator(32), rule)
    diff = max(abs(a - w) for a, w in zip(flex.res_norm, plain.res_norm))
    assert diff <= 1e-12
    assert np.abs(flex.x_stop - plain.x_stop).max() <= 1e-12


def test_fgmres_constant_prec_equals_right_preconditioned_gmres():
    psf = make_gaussian_psf(3, 1.0)
    prob = make_problem(star_field(8, seed=3), psf, "zero", 0.02, 5)
    b = prob.b.ravel()
    prec = circulant_tikhonov(bccb_eigenvalues(psf, 8), 0.05)
    rule = StoppingRule(max_iter=15)
    flex = fgmres(prob.operator, b, lambda k, x_prev: prec, rule)
    plain = gmres(prob.operator, b, rule, right_prec=prec)
    diff = max(abs(a - w) for a, w in zip(flex.res_norm, plain.res_norm))
    assert diff <= 1e-10
    assert np.abs(flex.x_stop - plain.x_stop).max() <= 1e-10


def test_fgmres_changing_prec_matches_dense_oracle(iterates):
    # a preconditioner that changes every step, against a dense flexible
    # Arnoldi with two-pass MGS and x = Z y: the Hbar column of a flexible
    # step comes from the coefficients of its image, with no change of basis
    n, iters = 24, 20
    mat = random_nonsymmetric(n, 3)
    b = _unit_rhs(n, 4)
    w = 0.5 + np.random.default_rng(5).random(n)
    rec = fgmres(LinearMap.from_matrix(mat), b,
                 lambda k, x_prev: DiagonalOperator(w ** (k % 3)), StoppingRule(max_iter=iters))
    want_res, want_xs = reference_fgmres(mat, lambda k: np.diag(w ** (k % 3)), b, iters)
    assert rec.iterations == len(want_res) == iters
    assert np.abs(np.subtract(rec.res_norm, want_res)).max() <= 1e-10
    assert max(np.abs(x - want).max() for x, want in zip(iterates, want_xs)) <= 1e-10
    # the directions change: plain right-preconditioned GMRES differs
    fixed = gmres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=iters),
                  right_prec=DiagonalOperator(w))
    assert np.abs(np.subtract(rec.res_norm, fixed.res_norm)).max() > 1e-3


def test_fgmres_zero_direction_skipped_and_recorded():
    mat = np.eye(8) + 0.1 * np.random.default_rng(0).standard_normal((8, 8))
    b = np.random.default_rng(1).standard_normal(8)
    zero_w = DiagonalOperator(np.zeros(8))

    def supplier(k, x_prev):
        return zero_w if k == 0 else IdentityOperator(8)

    rec = fgmres(LinearMap.from_matrix(mat), b, supplier, StoppingRule(max_iter=5))
    assert rec.skipped == [1]
    assert rec.iterations == 5  # run continues on the fallback direction


@pytest.mark.parametrize("method", ["fgmres", "flsqr"])
def test_nonfinite_preconditioner_output_stops_run(method):
    # a NaN direction is caught before A is applied to it; the run keeps the
    # iterate of the step before
    mat = np.eye(8) + 0.1 * np.random.default_rng(0).standard_normal((8, 8))
    b = np.random.default_rng(1).standard_normal(8)
    op, calls = _counting_map(mat)
    broken = LinearMap(8, lambda v: np.full(v.size, np.nan))

    def supplier(k, x_prev):
        return broken if k == 2 else IdentityOperator(8)

    solve = fgmres if method == "fgmres" else flsqr
    rec = solve(op, b, supplier, StoppingRule(max_iter=6))
    assert rec.stop_reason == "nonfinite"
    assert rec.iterations == 2 and calls["apply"] == 2
    assert np.all(np.isfinite(rec.res_norm)) and np.all(np.isfinite(rec.x_stop))
    assert abs(rec.res_norm[-1] - np.linalg.norm(b - mat @ rec.x_stop)) <= 1e-12


def _breaking_map(mat, bad, after):
    # mat and its transpose for the first ``after`` applications of either,
    # ``bad`` in every entry from then on
    calls = []

    def broken(m):
        def apply(x):
            calls.append(1)
            return m @ x if len(calls) <= after else np.full(x.size, bad)
        return apply

    return LinearMap(mat.shape[0], broken(mat), broken(mat.T)), calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("method, after, kept", [
    ("gmres", 0, 0), ("gmres", 5, 4), ("gmres-right-prec", 5, 4), ("fgmres", 5, 5),
    ("lsqr", 0, 0), ("lsqr", 5, 2), ("lsqr", 6, 3), ("flsqr", 4, 2), ("flsqr", 5, 2)])
def test_nonfinite_operator_output_stops_run(method, after, kept, bad):
    # the run stops as "nonfinite" at the first bad output, forward or
    # adjoint, on the last iterate it completed, with no numpy warning:
    # GMRES's is the one before the block of four steps the bad output falls
    # in, and FLSQR's bad adjoint image never reaches the basis passes
    mat = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))[0] * np.linspace(1, 3, 8)
    b = _unit_rhs(8, 4)
    op, calls = _breaking_map(mat, bad, after)
    if method == "gmres-right-prec":
        rec = gmres(op, b, StoppingRule(max_iter=8), right_prec=IdentityOperator(8))
    else:
        rec = _SOLVERS[method](op, b, rule=StoppingRule(max_iter=8))
    assert (rec.stop_reason, rec.iterations, len(calls)) == ("nonfinite", kept, after + 1)
    assert np.all(np.isfinite(rec.res_norm)) and np.all(np.isfinite(rec.x_stop))
    if kept:
        assert abs(rec.res_norm[-1] - np.linalg.norm(b - mat @ rec.x_stop)) <= 1e-12


@pytest.mark.parametrize("method", ["minres", "minres_sym_prec"])
def test_minres_refuses_a_map_with_nonfinite_output(method):
    # |<Ax,y> - <x,Ay>| is NaN here, which must fail the symmetry probe
    mat = np.eye(16)
    mat[0, 0] = np.nan
    with pytest.raises(ValueError, match="symmetry probe"):
        _SOLVERS[method](LinearMap.from_matrix(mat), np.ones(16),
                         rule=StoppingRule(max_iter=4))


def test_fgmres_sparse_truth_flip_side_converges_plain_side_stalls():
    # Piecewise-constant truth, double-motion blur, reflective boundaries,
    # sparsity-reweighting callback: on the flipped system the relative error
    # drops well below 0.5; the same callback on the plain system never gets
    # below 0.5 within the budget.
    from kryblur.problems import edges_image

    psf = make_two_motion_psf(9, 45.0, 135.0)
    prob = make_problem(edges_image(64), psf, "reflective", 0.1, 42)
    size = prob.operator.size

    def w_only(k, x_prev):
        if np.any(x_prev):
            return sparsity_weights(x_prev)
        return IdentityOperator(size)

    rule = StoppingRule(max_iter=60)
    plain = fgmres(prob.operator, prob.b.ravel(), w_only, rule, x_true=prob.x_true)
    fop = FlipComposedOperator(prob.operator)
    flipped = fgmres(fop, apply_flip(prob.b.ravel()), w_only, rule, x_true=prob.x_true)
    assert min(flipped.rre) < 0.5
    assert min(plain.rre) > 0.5


def test_fgmres_residuals_nonincreasing():
    mat = random_nonsymmetric(32, 5)
    b = _unit_rhs(32, 7)
    rec = fgmres(LinearMap.from_matrix(mat), b,
                 lambda k, x_prev: IdentityOperator(32), StoppingRule(max_iter=25))
    res = rec.res_norm
    assert all(res[i + 1] <= res[i] + 1e-12 * res[0] for i in range(len(res) - 1))


# ---------------------------------------------------------------------------
# LSQR


def test_lsqr_identity_converges_first_iteration():
    ident = LinearMap(16, lambda x: x, lambda x: x)
    b = np.random.default_rng(1).standard_normal(16)
    rec = lsqr(ident, b, StoppingRule(max_iter=5))
    assert rec.iterations == 1 and rec.stop_reason == "breakdown"
    assert np.abs(rec.x_stop - b).max() <= 1e-12


def test_lsqr_zero_rhs_immediate_stop():
    rec = lsqr(LinearMap.from_matrix(np.eye(4)), np.zeros(4), StoppingRule(max_iter=3))
    assert rec.iterations == 0 and rec.stop_reason == "breakdown"
    assert np.all(rec.x_stop == 0.0)


def test_lsqr_matches_reference_golub_kahan(iterates):
    for size, seed in ((16, 1), (32, 2), (64, 3)):
        mat = random_nonsymmetric(size, seed)
        b = _unit_rhs(size, seed + 100)
        iters = size - 4
        iterates.clear()
        rec = lsqr(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=iters))
        want_res, want_xs = reference_lsqr(mat, b, iters)
        res_diff = max(abs(a - w) for a, w in zip(rec.res_norm, want_res))
        assert len(iterates) == rec.iterations
        x_diff = max(np.abs(x - w).max() for x, w in zip(iterates, want_xs))
        assert res_diff <= 1e-9, f"size {size}: residual mismatch {res_diff:.2e}"
        assert x_diff <= 1e-9, f"size {size}: iterate mismatch {x_diff:.2e}"


def test_lsqr_equals_cgls_on_normal_equations():
    prob = make_problem(star_field(8, seed=3), make_gaussian_psf(3, 1.0), "zero", 0.02, 5)
    dense = materialize_dense(prob.operator)
    b = prob.b.ravel()
    rec = lsqr(prob.operator, b, StoppingRule(max_iter=15))
    want, _ = reference_cgls(dense, b, 15)
    diff = max(abs(a - w) for a, w in zip(rec.res_norm, want))
    assert diff <= 1e-8


def test_lsqr_right_preconditioned_equals_reference_on_product(iterates):
    psf = make_gaussian_psf(3, 1.0)
    prob = make_problem(star_field(8, seed=3), psf, "zero", 0.02, 5)
    b = prob.b.ravel()
    prec = circulant_abs_tikhonov(bccb_eigenvalues(psf, 8), 0.05)
    rec = lsqr(prob.operator, b, StoppingRule(max_iter=15), right_prec=prec)
    dense_ap = materialize_dense(prob.operator) @ materialize_dense(prec, cap=8)
    want_res, want_zs = reference_lsqr(dense_ap, b, 15)
    res_diff = max(abs(a - w) for a, w in zip(rec.res_norm, want_res))
    assert res_diff <= 1e-9
    dense_p = materialize_dense(prec, cap=8)
    assert len(iterates) == rec.iterations
    x_diff = max(np.abs(x - dense_p @ z).max() for x, z in zip(iterates, want_zs))
    assert x_diff <= 1e-9


@pytest.mark.parametrize("kind", ["complex-circulant", "matrix"])
def test_lsqr_nonsymmetric_right_prec_equals_reference_on_product(kind, iterates):
    # with P P^T applied as one map, the order matters once P is not
    # symmetric: an off-center motion blur's Tikhonov circulant, and a
    # random nonsymmetric matrix that takes the adjoint-then-apply path
    n = 8
    psf = make_two_motion_psf(4, 45.0, 135.0)
    prob = make_problem(star_field(n, seed=3), psf, "zero", 0.02, 5)
    b = prob.b.ravel()
    if kind == "complex-circulant":
        prec = circulant_tikhonov(bccb_eigenvalues(psf, n), 0.05)
        assert np.abs(prec.eigs.imag).max() > 1e-2
    else:
        prec = LinearMap.from_matrix(np.eye(n * n) + 0.3 * random_nonsymmetric(n * n, 4))
    dense_p = materialize_dense(prec, cap=n)
    assert np.abs(dense_p - dense_p.T).max() > 1e-2
    rec = lsqr(prob.operator, b, StoppingRule(max_iter=15), right_prec=prec)
    want_res, want_zs = reference_lsqr(materialize_dense(prob.operator) @ dense_p, b, 15)
    assert max(abs(a - w) for a, w in zip(rec.res_norm, want_res)) <= 1e-9
    assert len(iterates) == rec.iterations
    assert max(np.abs(x - dense_p @ z).max() for x, z in zip(iterates, want_zs)) <= 1e-9


def test_lsqr_work_accounting_two_applications_per_iteration(blocks):
    mat = random_nonsymmetric(16, 3)
    b = _unit_rhs(16, 4)
    rec = lsqr(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=10))
    assert rec.iterations == 10
    assert rec.n_ops == 2 * rec.iterations  # startup adjoint, none after the last step
    plain = gmres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=10))
    # one application a step, and those of blocks that took fewer steps
    assert plain.n_ops == plain.iterations + sum(a - t for a, t in blocks)


def _counting_map(mat):
    calls = {"apply": 0, "apply_adjoint": 0}

    def apply(x):
        calls["apply"] += 1
        return mat @ x

    def apply_adjoint(y):
        calls["apply_adjoint"] += 1
        return mat.T @ y

    return LinearMap(mat.shape[0], apply, apply_adjoint), calls


@pytest.mark.parametrize("method", ["gmres", "gmres-right-prec", "fgmres", "flsqr"])
def test_work_accounting_counts_every_operator_application(method, blocks):
    # n_ops is every application of A and A^T, residual bookkeeping included;
    # the monomial blocks of this random map are near rank deficient, so
    # GMRES takes their first steps only and applies A for nothing else
    mat = random_nonsymmetric(16, 3)
    b = _unit_rhs(16, 4)
    weights = 0.5 + np.random.default_rng(5).random(16)
    rule = StoppingRule(max_iter=10)
    op, calls = _counting_map(mat)
    if method == "gmres":
        rec = gmres(op, b, rule)
    elif method == "gmres-right-prec":
        rec = gmres(op, b, rule, right_prec=DiagonalOperator(weights))
    elif method == "fgmres":
        rec = fgmres(op, b, lambda k, x_prev: DiagonalOperator(weights ** (k % 3)), rule)
    else:
        rec = flsqr(op, b, lambda k, x_prev: DiagonalOperator(weights ** (k % 3)), rule)
    assert rec.iterations == 10
    assert calls["apply"] + calls["apply_adjoint"] == rec.n_ops
    abandoned = sum(a - t for a, t in blocks)
    assert abandoned == (6 if method.startswith("gmres") else 0)
    assert calls["apply"] == rec.iterations + abandoned


@pytest.mark.parametrize("method", ["minres", "minres-sym-prec", "lsqr", "lsqr-right-prec",
                                    "lsqr-discrepancy"])
def test_work_accounting_short_recurrences(method):
    # every loop application of A is charged to n_ops; only the six MINRES
    # symmetry-probe applies are not, and no step re-applies A or P to
    # recompute the residual or the iterate
    k = 10
    b = _unit_rhs(16, 4)
    prec, prec_calls = _counting_map(np.diag(0.5 + np.random.default_rng(5).random(16)))
    if method.startswith("minres"):
        op, calls = _counting_map(random_symmetric(16, 3))
        if method == "minres":
            rec = minres(op, b, StoppingRule(max_iter=k))
        else:
            rec = minres_sym_prec(op, b, prec, StoppingRule(max_iter=k))
        assert rec.iterations == k
        assert rec.n_ops == k
        assert calls["apply"] == k + 6
        assert calls["apply_adjoint"] == 0
        # P P^T of a generic P is its adjoint and then its apply: one for the
        # right-hand side and one per step; the symmetry probe runs on A alone
        want = (0, 0) if method == "minres" else (k + 1, k + 1)
        assert (prec_calls["apply"], prec_calls["apply_adjoint"]) == want
    else:
        mat = random_nonsymmetric(16, 3)
        op, calls = _counting_map(mat)
        right_prec = prec if method == "lsqr-right-prec" else None
        rule = StoppingRule(max_iter=k)
        if method == "lsqr-discrepancy":
            # the threshold is met at step 4, so the run stops there
            full = lsqr(LinearMap.from_matrix(mat), b, rule)
            rule = StoppingRule(max_iter=k, dp_enabled=True, eta=1.0,
                                noise_norm=full.res_norm[3])
            k = 4
        rec = lsqr(op, b, rule, right_prec=right_prec)
        assert rec.iterations == k
        assert rec.stop_reason == ("discrepancy" if method == "lsqr-discrepancy" else "max_iter")
        assert calls["apply"] + calls["apply_adjoint"] == rec.n_ops == 2 * k
        assert calls["apply"] == k
        # one forward and one adjoint per step: the startup adjoint, and none
        # after the last step
        want = (k, k) if right_prec is not None else (0, 0)
        assert (prec_calls["apply"], prec_calls["apply_adjoint"]) == want


@pytest.mark.parametrize("method, per_step, probe, startup", [
    ("YA MINRES", 1, 6, 0), ("YAP MINRES", 2, 6, 1), ("A LSQR", 2, 0, 0), ("AP LSQR", 3, 0, 0)])
def test_filters_per_step_of_the_short_recurrences(method, per_step, probe, startup, monkeypatch):
    # every blur and circulant apply is one real-FFT filter (two 2-D
    # transforms).  A preconditioned step applies P P^T as one circulant, so
    # a step costs A (and LSQR's adjoint) plus one filter; the MINRES
    # symmetry probe runs on A alone, and preconditioned MINRES starts from
    # M b.  Exact counts, read at two budgets
    filters, probed = [], []
    real_filter, real_probe = operators._rfft_filter, solvers._probe_symmetry

    def counted_filter(*args):
        filters.append(1)
        return real_filter(*args)

    def counted_probe(op):
        before = len(filters)
        real_probe(op)
        probed.append(len(filters) - before)

    for module in (operators, preconditioners):
        monkeypatch.setattr(module, "_rfft_filter", counted_filter)
    monkeypatch.setattr(solvers, "_probe_symmetry", counted_probe)
    n, alpha = 16, 1e-2
    psf = make_gaussian_psf(5, 1.5)
    prob = make_problem(star_field(n, seed=1), psf, "zero", 0.05, 42)
    symbol = bccb_eigenvalues(psf, n)
    fop, b = FlipComposedOperator(prob.operator), prob.b.ravel()
    for k in (5, 9):
        filters.clear()
        probed.clear()
        rule = StoppingRule(max_iter=k)
        if method == "YA MINRES":
            rec = minres(fop, apply_flip(b), rule)
        elif method == "YAP MINRES":
            half = circulant_sqrt(circulant_abs_tikhonov(symbol, alpha))
            rec = minres_sym_prec(fop, apply_flip(b), half, rule)
        elif method == "A LSQR":
            rec = lsqr(prob.operator, b, rule)
        else:
            rec = lsqr(prob.operator, b, rule, right_prec=circulant_tikhonov(symbol, alpha))
        assert rec.iterations == k
        assert sum(probed) == probe
        assert len(filters) - probe - per_step * k == startup


@pytest.mark.parametrize("method", ["YA MINRES", "YAP MINRES", "A LSQR", "AP LSQR"])
def test_carried_residual_matches_recomputed_on_star_field(method, iterates):
    # MINRES and LSQR update b - A x by the same recurrence as x; on a long
    # run it must stay within rounding of the recomputed residual
    n, alpha = 32, 1e-2
    psf = make_gaussian_psf(7, 2.0)
    prob = make_problem(star_field(n, seed=1), psf, "zero", 0.05, 42)
    b = prob.b.ravel()
    symbol = bccb_eigenvalues(psf, n)
    rule = StoppingRule(max_iter=80)
    fop = FlipComposedOperator(prob.operator)
    if method == "YA MINRES":
        rec = minres(fop, apply_flip(b), rule)
    elif method == "YAP MINRES":
        half = circulant_sqrt(circulant_abs_tikhonov(symbol, alpha))
        rec = minres_sym_prec(fop, apply_flip(b), half, rule)
    elif method == "A LSQR":
        rec = lsqr(prob.operator, b, rule)
    else:
        rec = lsqr(prob.operator, b, rule, right_prec=circulant_tikhonov(symbol, alpha))
    assert rec.iterations == 80 == len(iterates)
    direct = [np.linalg.norm(b - np.ravel(prob.operator.apply(x))) for x in iterates]
    gap = np.abs(np.array(rec.res_norm) - direct)
    assert gap.max() <= 1e-10 * np.linalg.norm(b), f"max gap {gap.max():.3e}"


_SCENES = {f"{bc}-{n}": (n, bc) for bc in ("zero", "periodic") for n in (16, 32)}
_SCENES["reflective-32"] = (32, "reflective")


@pytest.mark.parametrize("scene", list(_SCENES))
@pytest.mark.parametrize("method", ["minres", "minres-circulant-p", "minres-linear-map-p", "lsqr",
                                    "lsqr-right-prec"])
def test_carried_residual_is_that_of_the_iterate_at_every_step(method, scene):
    # the Givens loop updates b - A x from the next basis vector, not from
    # images of the directions; a run of j steps must end on the residual of
    # the iterate it returns.  Zero and periodic BC take a two-motion PSF
    # (Y A is symmetric, A is not), reflective BC a symmetric Gaussian one
    n, bc = _SCENES[scene]
    psf = make_gaussian_psf(5, 1.5) if bc == "reflective" else make_two_motion_psf(5, 30.0, 100.0)
    prob = make_problem(star_field(n, seed=2), psf, bc, 0.05, 11)
    tikhonov = circulant_tikhonov(bccb_eigenvalues(psf, n), 1e-2)
    op, b = prob.operator, prob.b.ravel()
    if method.startswith("minres"):
        op, b = FlipComposedOperator(op), apply_flip(b)
    p = {"minres-circulant-p": tikhonov,
         "minres-linear-map-p": LinearMap.from_matrix(materialize_dense(tikhonov))}.get(method)
    for j in (1, 2, 3, 7, 20, 60):
        rule = StoppingRule(max_iter=j)
        if method == "minres":
            rec = minres(op, b, rule)
        elif p is not None:
            rec = minres_sym_prec(op, b, p, rule)
        else:
            rec = lsqr(op, b, rule, right_prec=tikhonov if method == "lsqr-right-prec" else None)
        # a periodic A P has few distinct singular values, so LSQR may end
        # on an exhausted space first
        assert rec.iterations == j or rec.stop_reason == "breakdown"
        direct = np.linalg.norm(b - np.ravel(op.apply(rec.x_stop)))
        assert abs(rec.res_norm[-1] - direct) <= 1e-12 * np.linalg.norm(b), (j, rec.res_norm[-1], direct)


@pytest.mark.parametrize("method, rows", [("minres", 10), ("lsqr", 9)])
def test_givens_loop_working_set(method, rows):
    # traced peak of a 30-step solve at n = 64 after a warm-up solve, in
    # N-length rows.  MINRES holds ten: v, v_next and the Lanczos scratch; the
    # loop's two directions, x, b - A x and its scratch row; the best iterate
    # and the operator's output.  LSQR holds nine: u and q instead of the
    # three Lanczos rows.  Half a row of slack covers the small temporaries
    # (0.1 row measured); a loop that carried the images of its directions
    # (14.1 and 13.1 rows) would not fit
    n = 64
    prob = make_problem(star_field(n, seed=1), make_gaussian_psf(7, 1.5), "zero", 0.05, 3)
    if method == "minres":
        fop, yb = FlipComposedOperator(prob.operator), apply_flip(prob.b.ravel())
        solve = lambda: minres(fop, yb, StoppingRule(max_iter=30))
    else:
        solve = lambda: lsqr(prob.operator, prob.b.ravel(), StoppingRule(max_iter=30))
    solve()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = solve()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rec.iterations == 30
    assert peak <= (rows + 0.5) * n * n * 8, f"peak {peak / (n * n * 8):.2f} rows"


@pytest.mark.parametrize("method", ["minres", "lsqr"])
def test_carried_residual_matches_recomputed_at_breakdown(method):
    # the Krylov space is exhausted before max_iter (MINRES: three distinct
    # eigenvalues; LSQR: rank 5 of 8), and the last recorded residual must
    # still be that of the returned iterate
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    b = _unit_rhs(8, 3)
    if method == "minres":
        mat = (q * np.array([1.0, -1.5, 2.0, 1.0, -1.5, 2.0, 1.0, 2.0])) @ q.T
        rec = minres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=20))
    else:
        q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        mat = (q * np.array([1.0, 1.5, 2.0, 0.5, 0.8, 0.0, 0.0, 0.0])) @ q2.T
        rec = lsqr(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=20))
    assert rec.stop_reason == "breakdown"
    assert rec.iterations < 20
    direct = np.linalg.norm(b - mat @ rec.x_stop)
    assert abs(rec.res_norm[-1] - direct) <= 1e-10 * np.linalg.norm(b)


def test_lsqr_projected_residual_nonincreasing():
    prob = make_problem(star_field(8, seed=3), make_gaussian_psf(3, 1.0), "zero", 0.02, 5)
    rec = lsqr(prob.operator, prob.b.ravel(), StoppingRule(max_iter=20))
    res = rec.res_norm
    assert all(res[i + 1] <= res[i] + 1e-12 * res[0] for i in range(len(res) - 1))


# ---------------------------------------------------------------------------
# FLSQR


def test_flsqr_identity_callback_reduces_to_lsqr():
    mat = random_nonsymmetric(32, 5)
    b = _unit_rhs(32, 7)
    rule = StoppingRule(max_iter=20)
    plain = lsqr(LinearMap.from_matrix(mat), b, rule)
    flex = flsqr(LinearMap.from_matrix(mat), b,
                 lambda k, x_prev: IdentityOperator(32), rule)
    diff = max(abs(a - w) for a, w in zip(flex.res_norm, plain.res_norm))
    assert diff <= 1e-10
    assert np.abs(flex.x_stop - plain.x_stop).max() <= 1e-10


def test_flsqr_none_callback_reduces_to_lsqr():
    mat = random_nonsymmetric(16, 6)
    b = _unit_rhs(16, 8)
    rule = StoppingRule(max_iter=10)
    plain = lsqr(LinearMap.from_matrix(mat), b, rule)
    flex = flsqr(LinearMap.from_matrix(mat), b, None, rule)
    diff = max(abs(a - w) for a, w in zip(flex.res_norm, plain.res_norm))
    assert diff <= 1e-10


def test_flsqr_constant_prec_matches_flexible_golub_kahan_oracle(iterates):
    # A constant preconditioner inside the flexible Golub-Kahan process spans
    # P K_k(A^T A P, A^T b) -- NOT the right-preconditioned space
    # P K_k(P^T A^T A P, P^T A^T b) -- so it is checked against an explicit
    # flexible bidiagonalization oracle, and genuinely differs from
    # right-preconditioned LSQR.
    psf = make_gaussian_psf(3, 1.0)
    prob = make_problem(star_field(8, seed=3), psf, "zero", 0.02, 5)
    b = prob.b.ravel()
    prec = circulant_abs_tikhonov(bccb_eigenvalues(psf, 8), 0.05)
    iters = 12
    rec = flsqr(prob.operator, b, lambda k, x_prev: prec, StoppingRule(max_iter=iters))
    dense = materialize_dense(prob.operator)
    dense_p = materialize_dense(prec, cap=8)
    want_res, want_xs = reference_flexible_gk(dense, lambda k: dense_p, b, iters)
    res_diff = max(abs(a - w) for a, w in zip(rec.res_norm, want_res))
    assert len(iterates) == rec.iterations
    x_diff = max(np.abs(x - w).max() for x, w in zip(iterates, want_xs))
    assert res_diff <= 1e-9
    assert x_diff <= 1e-9
    # documented non-equivalence with right-preconditioned LSQR
    prec_rec = lsqr(prob.operator, b, StoppingRule(max_iter=iters), right_prec=prec)
    gap = max(abs(a - w) for a, w in zip(rec.res_norm, prec_rec.res_norm))
    assert gap > 1e-3


def test_flsqr_zero_direction_skipped_and_recorded():
    mat = np.eye(8) + 0.1 * np.random.default_rng(0).standard_normal((8, 8))
    b = np.random.default_rng(1).standard_normal(8)

    def supplier(k, x_prev):
        return DiagonalOperator(np.zeros(8)) if k == 0 else IdentityOperator(8)

    rec = flsqr(LinearMap.from_matrix(mat), b, supplier, StoppingRule(max_iter=5))
    assert rec.skipped == [1]
    assert rec.iterations == 5


def test_flsqr_sparsity_weights_concentrate_support(iterates):
    n = 16
    truth = np.zeros((n, n))
    for (r, c) in ((3, 4), (5, 11), (9, 7), (12, 12), (13, 3)):
        truth[r, c] = 1.0
    prob = make_problem(truth, make_gaussian_psf(5, 1.0), "zero", 0.01, 9)
    size = prob.operator.size
    support = truth.ravel() > 0.0

    def w_only(k, x_prev):
        if np.any(x_prev):
            return sparsity_weights(x_prev)
        return IdentityOperator(size)

    rec = flsqr(prob.operator, prob.b.ravel(), w_only, StoppingRule(max_iter=15))

    def support_fraction(x):
        total = float(np.sum(x ** 2))
        return float(np.sum(x[support] ** 2)) / total

    assert len(iterates) == rec.iterations
    first = support_fraction(iterates[0])
    last = support_fraction(iterates[-1])
    assert first < 0.25
    assert last > 0.8
    assert last > first


# ---------------------------------------------------------------------------
# DCGS2 bases


@pytest.mark.parametrize("method", ["YA", "YAP", "YAPW", "FLSQR"])
def test_dcgs2_bases_orthonormal_after_60_steps(method, bases):
    # reflective two-motion blur: every basis DCGS2 grows stays orthonormal
    # to rounding, including both FLSQR bases
    psf = make_two_motion_psf(9, 45.0, 135.0)
    prob = make_problem(natural_scene(32, seed=7), psf, "reflective", 0.01, 42)
    prec = circulant_abs_tikhonov(bccb_eigenvalues(psf, 32), 0.1)
    fop = FlipComposedOperator(prob.operator)
    rhs = apply_flip(prob.b.ravel())
    rule = StoppingRule(max_iter=60)

    def weighted(k, x_prev):
        return ComposedOperator(sparsity_weights(x_prev), prec) if np.any(x_prev) else prec

    if method == "YA":
        rec = gmres(fop, rhs, rule)
    elif method == "YAP":
        rec = gmres(fop, rhs, rule, right_prec=prec)
    elif method == "YAPW":
        rec = fgmres(fop, rhs, weighted, rule)
    else:
        rec = flsqr(prob.operator, prob.b.ravel(), weighted, rule)
    assert rec.iterations == 60
    final = bases()
    # the rows of the last block (steps 57 to 60) would be reorthogonalized
    # by the next block's reduction, which a run of 60 steps does not take;
    # FLSQR reduces its basis V first at each step
    want = {"YA": [57], "YAP": [57], "YAPW": [60], "FLSQR": [59, 60]}[method]
    assert [len(rows) for rows, _ in final] == want
    for rows, _ in final:
        assert _orthogonality_loss(rows) <= 1e-12


@pytest.mark.parametrize("method", ["YA", "YAP", "A"])
def test_block_arnoldi_relation_at_60_steps(method, bases, blocks):
    # the S3 scene at n = 128 (two-motion blur, reflective): with blocks of
    # four, the basis stays orthonormal and Hbar, recovered from the change
    # of basis, satisfies A V_k = V_{k+1} Hbar at k = 60 to rounding.  The
    # budget of 64 steps makes the rows of step 60 final.
    n = 128
    psf = make_two_motion_psf(9, 45.0, 135.0)
    prob = make_problem(natural_scene(n, seed=7), psf, "reflective", 0.01, 42)
    prec = circulant_abs_tikhonov(bccb_eigenvalues(psf, n), 0.1)
    rule = StoppingRule(max_iter=64)
    if method == "A":
        op, rec = prob.operator, gmres(prob.operator, prob.b.ravel(), rule)
    else:
        op = FlipComposedOperator(prob.operator)
        right = prec if method == "YAP" else None
        rec = gmres(op, apply_flip(prob.b.ravel()), rule, right_prec=right)
    assert rec.iterations == 64
    assert sum(taken for _, taken in blocks) == 64
    # unflipped, two blocks in a row come near rank deficient by step 28 and
    # the run goes on one step at a time
    assert sum(taken == 4 for _, taken in blocks) >= (4 if method == "A" else 14)
    [(rows, hbar)] = bases()
    v, hbar = rows[:61], hbar[:61, :60]
    assert _orthogonality_loss(v) <= 1e-12

    def apply(x):
        if method == "YAP":
            x = np.ravel(prec.apply(x))
        return np.ravel(op.apply(x))

    images = np.array([apply(row) for row in v[:60]])
    # ||Hbar|| is at most ||A||, so the ratio bounds the relative defect
    defect = np.linalg.norm(images - hbar.T @ v, 2) / np.linalg.norm(hbar, 2)
    assert defect <= 1e-12, f"Arnoldi relation defect {defect:.3e}"


@pytest.mark.parametrize("method", ["gmres", "gmres-right-prec", "fgmres", "flsqr"])
def test_dcgs2_reorthogonalizes_where_one_pass_is_not_enough(method, bases):
    # On the blur problems one Gram-Schmidt pass alone keeps the basis within
    # 5e-14 of orthonormal.  Here five eigenvalues near 1e6 are found first,
    # then each image is dominated by what the basis already holds, so a
    # basis whose lagged vectors were never corrected loses orthogonality,
    # and a Hessenberg column left on the uncorrected vector, or on the
    # estimated subdiagonal, shows in the residual (eps ||A|| ||x|| = 1.5e-10).
    n = 100
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (q * np.concatenate((1e6 + np.arange(5.0), np.linspace(1.0, 2.0, n - 5)))) @ q.T
    b = q @ np.ones(n) / np.sqrt(n)
    weights = 0.5 + rng.random(n)
    rule = StoppingRule(max_iter=60)
    op = LinearMap.from_matrix(mat)
    if method == "gmres":
        rec = gmres(op, b, rule)
    elif method == "gmres-right-prec":
        rec = gmres(op, b, rule, right_prec=DiagonalOperator(weights))
    elif method == "fgmres":
        rec = fgmres(op, b, lambda k, x_prev: DiagonalOperator(weights ** (k % 3)), rule)
    else:
        rec = flsqr(op, b, lambda k, x_prev: DiagonalOperator(weights ** (k % 3)), rule)
    assert rec.iterations == 60
    assert abs(rec.res_norm[-1] - np.linalg.norm(b - mat @ rec.x_stop)) <= 1e-9
    for rows, _ in bases():
        assert _orthogonality_loss(rows) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("method", ["gmres", "fgmres", "flsqr"])
def test_dcgs2_breakdown_right_after_lagged_correction(method, scale, bases):
    # three distinct eigenvalues: step 3 corrects the lagged basis vector and
    # exhausts the Krylov space.  The remainder is rounding noise relative to
    # the image, so the run stops there at any operator scale.
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    mat = scale * (q * np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0])) @ q.T
    b = _unit_rhs(8, 3)
    rule = StoppingRule(max_iter=12)
    if method == "gmres":
        rec = gmres(LinearMap.from_matrix(mat), b, rule)
    elif method == "fgmres":
        rec = fgmres(LinearMap.from_matrix(mat), b, lambda k, x_prev: IdentityOperator(8), rule)
    else:
        rec = flsqr(LinearMap.from_matrix(mat), b, None, rule)
    assert rec.stop_reason == "breakdown" and rec.iterations == 3
    assert np.linalg.norm(b - mat @ rec.x_stop) <= 1e-12
    assert abs(rec.res_norm[-1] - np.linalg.norm(b - mat @ rec.x_stop)) <= 1e-12
    for rows, _ in bases():
        assert _orthogonality_loss(rows) <= 1e-12


def _dcgs2_block(lagged, t, new_rows, m=5, size=300, seed=0):
    """A ``_Dcgs2`` on a basis of ``m`` orthonormal rows, ``lagged`` random
    rows and the given new rows, with a copy of its uncorrected rows and
    k."""
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.standard_normal((size, m)))[0].T
    rows = np.vstack((v, rng.standard_normal((lagged, size)), new_rows))
    basis = rows.copy()
    return solvers._Dcgs2(basis, 2), rows, m + lagged - 1


@pytest.mark.parametrize("lagged, t", [(0, 1), (1, 1), (1, 4), (4, 4)])
def test_dcgs2_block_factor_rebuilds_the_uncorrected_rows(lagged, t):
    # [L, W] = [V, L', W'] F, with F upper triangular below its rows on V, L'
    # and W' written orthonormal, and the kept rows combinations of the
    # written basis
    new = np.random.default_rng(1).standard_normal((t, 300))
    gs, rows, k = _dcgs2_block(lagged, t, new)
    m, n = k + 1 - lagged, k + 1 + t
    assert gs.reduce(k, lagged, t) == t
    assert gs.f.shape == (n, lagged + t)
    np.testing.assert_array_equal(gs.f[m:], np.triu(gs.f[m:]))
    keep = np.random.default_rng(2).standard_normal((2, n))
    out, gram = gs.update(keep)
    written = gs.basis[:n]
    assert np.linalg.norm(gs.f.T @ written - rows[m:]) <= 1e-12 * np.linalg.norm(rows[m:])
    assert _orthogonality_loss(written) <= 1e-12
    assert np.linalg.norm(out - keep @ written) <= 1e-12 * np.linalg.norm(out)
    np.testing.assert_allclose(gram, written[k + 1:] @ written[k + 1:].T, rtol=0, atol=1e-12)
    assert not gs.exhausted(gram)


def test_dcgs2_nearly_dependent_block_keeps_its_first_row():
    # the third new row lies in the span of the basis and the first two up
    # to 1e-9: the block keeps one row, and F only its columns
    rng = np.random.default_rng(4)
    new = rng.standard_normal((4, 300))
    gs, rows, k = _dcgs2_block(1, 4, new)
    new[2] = new[0] - 2.0 * new[1] + rows[:k + 1].T @ rng.standard_normal(k + 1)
    new[2] += 1e-9 * rng.standard_normal(300)
    gs.basis[k + 1:], rows[k + 1:] = new, new
    assert gs.reduce(k, 1, 4) == 1
    assert gs.f.shape == (k + 2, 2)
    gs.update(np.empty((0, k + 2)))
    written = gs.basis[:k + 2]
    assert np.linalg.norm(gs.f.T @ written - rows[k:k + 2]) <= 1e-12 * np.linalg.norm(rows[k:k + 2])
    assert _orthogonality_loss(written) <= 1e-12


def test_dcgs2_zero_row_is_exhausted():
    # a zero new row: its diagonal entry of F is 1, not 0, and it is
    # rounding noise
    gs, _, k = _dcgs2_block(1, 1, np.zeros((1, 300)))
    assert gs.reduce(k, 1, 1) == 1
    assert gs.f[-1, -1] == 1.0
    _, gram = gs.update(np.empty((0, k + 2)))
    assert gs.exhausted(gram)
    assert not np.any(gs.basis[k + 1])


# ---------------------------------------------------------------------------
# s-step GMRES blocks against one step at a time


def _one_step_at_a_time(monkeypatch, solve):
    """``solve()`` run once with blocks of ``_S_STEP`` and once with 1."""
    blocked = solve()
    with monkeypatch.context() as m:
        m.setattr(solvers, "_S_STEP", 1)
        single = solve()
    return blocked, single


def _assert_same_run(blocked, single, tol=1e-10):
    assert (blocked.iterations, blocked.stop_reason) == (single.iterations, single.stop_reason)
    gap = np.abs(np.subtract(blocked.res_norm, single.res_norm))
    assert gap.max() <= tol, f"res_norm gap {gap.max():.3e}"
    assert np.abs(blocked.x_stop - single.x_stop).max() <= tol
    assert (blocked.dp_index, blocked.x_dp is None) == (single.dp_index, single.x_dp is None)
    if blocked.x_dp is not None:
        assert np.abs(blocked.x_dp - single.x_dp).max() <= tol


def _blur_white_noise(n=32):
    # the flipped reflective two-motion blur with a white-noise right-hand
    # side: every block of four is well conditioned, including the first (a
    # blurred image is smooth, and its first monomials nearly parallel)
    psf = make_two_motion_psf(9, 45.0, 135.0)
    prob = make_problem(natural_scene(n, seed=7), psf, "reflective", 0.01, 42)
    return FlipComposedOperator(prob.operator), np.random.default_rng(1).standard_normal(n * n)


@pytest.mark.parametrize("max_iter", [1, 3, 5, 7])
@pytest.mark.parametrize("method", ["YA", "YAP"])
def test_block_cut_short_by_the_budget_matches_one_step_at_a_time(method, max_iter,
                                                                   monkeypatch, blocks):
    op, rhs = _blur_white_noise()
    psf = make_two_motion_psf(9, 45.0, 135.0)
    right = circulant_abs_tikhonov(bccb_eigenvalues(psf, 32), 0.1) if method == "YAP" else None
    blocked, single = _one_step_at_a_time(
        monkeypatch, lambda: gmres(op, rhs, StoppingRule(max_iter=max_iter), right_prec=right))
    _assert_same_run(blocked, single)
    full, last = divmod(max_iter, 4)
    # the blocked run's blocks, then the one-row blocks of the reference run
    assert blocks == [(4, 4)] * full + ([(last, last)] if last else []) + [(1, 1)] * max_iter
    assert (blocked.n_ops, single.n_ops) == (max_iter, max_iter)


@pytest.mark.parametrize("dp_enabled", [True, False], ids=["dp-on", "dp-off"])
def test_discrepancy_inside_a_block_matches_one_step_at_a_time(dp_enabled, monkeypatch):
    # the threshold is met at step 6, the second of the block of steps 5-8:
    # stopping there leaves the block's last two applications unused
    op, rhs = _blur_white_noise()
    res = gmres(op, rhs, StoppingRule(max_iter=8)).res_norm
    rule = StoppingRule(max_iter=8, dp_enabled=dp_enabled, eta=1.0,
                        noise_norm=0.5 * (res[4] + res[5]))
    blocked, single = _one_step_at_a_time(monkeypatch, lambda: gmres(op, rhs, rule))
    _assert_same_run(blocked, single)
    assert blocked.dp_index == 6
    if dp_enabled:
        assert blocked.stop_reason == "discrepancy" and blocked.iterations == 6
        assert np.array_equal(blocked.x_stop, blocked.x_dp)
        assert (blocked.n_ops, single.n_ops) == (8, 6)
    else:
        assert blocked.iterations == 8 and (blocked.n_ops, single.n_ops) == (8, 8)


@pytest.mark.parametrize("case", ["identity", "3x3", "happy"])
def test_breakdown_inside_a_block_matches_one_step_at_a_time(case, monkeypatch, blocks):
    # the Krylov space is exhausted inside the first block, which is then
    # singular: it takes its first step, and the next go one at a time
    if case == "identity":
        mat, b, steps = np.eye(16), _unit_rhs(16, 1), 1
    elif case == "3x3":  # s = 4 > n
        mat, b, steps = random_nonsymmetric(3, 4), _unit_rhs(3, 2), 3
    else:  # b is an eigenvector
        mat, b, steps = np.diag(np.arange(1.0, 9.0)), np.eye(8)[0], 1
    blocked, single = _one_step_at_a_time(
        monkeypatch, lambda: gmres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=10)))
    _assert_same_run(blocked, single)
    assert blocked.stop_reason == "breakdown" and blocked.iterations == steps
    assert np.linalg.norm(b - mat @ blocked.x_stop) <= 1e-12
    assert blocks[0] == (4, 1) and blocks[1:steps] == [(1, 1)] * (steps - 1)


def test_near_rank_deficient_blocks_match_one_step_at_a_time(monkeypatch, blocks):
    # acceptance 2's random map: its scaled monomial blocks of four have a
    # Pythagoras Gram 3e5 to 1e8 times smaller than the block's own, far
    # past _BLOCK_COND.  The first two take one step each; then the run goes
    # one step at a time.
    mat = random_nonsymmetric(32, 2)
    b = _unit_rhs(32, 102)
    blocked, single = _one_step_at_a_time(
        monkeypatch, lambda: gmres(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=28)))
    _assert_same_run(blocked, single)
    assert blocks[:4] == [(4, 1), (1, 1), (1, 1), (1, 1)]
    assert blocks[4] == (4, 1) and set(blocks[5:28]) == {(1, 1)}
    assert blocked.n_ops == 28 + 6


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_lsqr_stops_on_exhausted_space_at_any_scale(scale):
    # the map of the DCGS2 breakdown test: A^T A has three distinct
    # eigenvalues, so Golub-Kahan exhausts its space at step 3
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    mat = scale * (q * np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0])) @ q.T
    b = _unit_rhs(8, 3)
    rec = lsqr(LinearMap.from_matrix(mat), b, StoppingRule(max_iter=20))
    assert rec.stop_reason == "breakdown" and rec.iterations == 3
    assert np.linalg.norm(b - mat @ rec.x_stop) <= 1e-12


def _scaled_solve(method, mat, b, rule):
    op = LinearMap.from_matrix(mat)
    prec = DiagonalOperator(0.01 * np.linspace(1.0, 2.0, 8))
    if method == "gmres":
        return gmres(op, b, rule)
    if method == "minres":
        return minres(op, b, rule)
    if method == "lsqr":
        return lsqr(op, b, rule)
    runner = fgmres if method == "fgmres" else flsqr
    return runner(op, b, lambda k, x_prev: prec, rule)


@pytest.mark.parametrize("b_scale", [1.0, 1e13, 1e15])
@pytest.mark.parametrize("a_scale", [1e-20, 1.0, 1e6])
@pytest.mark.parametrize("method", ["gmres", "fgmres", "minres", "lsqr", "flsqr"])
def test_solvers_invariant_to_scale(method, a_scale, b_scale):
    # Breakdown and skip tests compare each norm with the image it came
    # from, so scaling A by a and b by s scales the iterate by s / a and
    # changes nothing else: no step ends early or is skipped.
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    mat = (q * rng.uniform(1.0, 2.0, 8)) @ q.T
    b = _unit_rhs(8, 5)
    rule = StoppingRule(max_iter=6)
    ref = _scaled_solve(method, mat, b, rule)
    rec = _scaled_solve(method, a_scale * mat, b_scale * b, rule)
    for r in (ref, rec):
        assert (r.iterations, r.stop_reason, r.skipped) == (6, "max_iter", [])
    x = rec.x_stop * (a_scale / b_scale)
    assert np.linalg.norm(x - ref.x_stop) <= 1e-12 * np.linalg.norm(ref.x_stop)


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_gmres_residuals_nonincreasing_on_desk_problem():
    prob = make_problem(phantom(32), make_gaussian_psf(7, 1.5), "zero", 0.05, 21)
    rec = gmres(prob.operator, prob.b.ravel(), StoppingRule(max_iter=30))
    res = rec.res_norm
    assert all(res[i + 1] <= res[i] + 1e-12 * res[0] for i in range(len(res) - 1))


def test_semi_convergence_interior_minimum():
    prob = make_problem(phantom(32), make_gaussian_psf(7, 1.5), "zero", 0.05, 21)
    rule = StoppingRule(max_iter=40)
    for solve in (lambda: gmres(prob.operator, prob.b.ravel(), rule, x_true=prob.x_true),
                  lambda: lsqr(prob.operator, prob.b.ravel(), rule, x_true=prob.x_true)):
        rec = solve()
        errs = rec.rre
        k = int(np.argmin(errs))
        assert 0 < k < len(errs) - 1, "no interior minimum"
        assert errs[k] < errs[0]
        assert errs[k] < errs[-1]


def test_discrepancy_principle_stops_all_solvers():
    prob = make_problem(phantom(32), make_gaussian_psf(7, 1.5), "zero", 0.05, 21)
    rule = StoppingRule(max_iter=60, dp_enabled=True, eta=1.01,
                        noise_norm=prob.noise_norm)
    threshold = 1.01 * prob.noise_norm
    b = prob.b.ravel()

    rec = gmres(prob.operator, b, rule)
    assert rec.stop_reason == "discrepancy" and rec.iterations == 4
    rec_l = lsqr(prob.operator, b, rule)
    assert rec_l.stop_reason == "discrepancy" and rec_l.iterations == 9
    fop = FlipComposedOperator(prob.operator)
    rec_m = minres(fop, apply_flip(b), rule)
    assert rec_m.stop_reason == "discrepancy" and rec_m.iterations == 15
    for r in (rec, rec_l, rec_m):
        assert r.res_norm[-1] <= threshold
        assert all(v > threshold for v in r.res_norm[:-1])


@pytest.mark.parametrize("dp_enabled", [False, True], ids=["dp-off", "dp-on"])
@pytest.mark.parametrize("method", ["minres", "minres_sym_prec", "gmres", "fgmres",
                                    "lsqr", "flsqr"])
def test_discrepancy_iterate_recorded(method, dp_enabled, iterates):
    # The record keeps the first iterate whose residual meets the threshold,
    # whether or not the rule stops there; without a noise norm there is none.
    psf = make_gaussian_psf(7, 1.5)
    prob = make_problem(phantom(32), psf, "zero", 0.05, 21)
    symbol = bccb_eigenvalues(psf, 32)
    fop = FlipComposedOperator(prob.operator)
    rhs = apply_flip(prob.b.ravel())

    def run(rule):
        if method == "minres":
            return minres(fop, rhs, rule)
        if method == "minres_sym_prec":
            half = circulant_sqrt(circulant_abs_tikhonov(symbol, 1e-2))
            return minres_sym_prec(fop, rhs, half, rule)
        if method == "gmres":
            return gmres(fop, rhs, rule)
        if method == "fgmres":
            return fgmres(fop, rhs, lambda k, x: circulant_abs_tikhonov(symbol, 0.1 * 0.8 ** k),
                          rule)
        if method == "lsqr":
            return lsqr(prob.operator, prob.b.ravel(), rule)
        return flsqr(prob.operator, prob.b.ravel(),
                     lambda k, x: circulant_abs_tikhonov(symbol, 0.1 * 0.8 ** k), rule)

    budget = 40
    rec = run(StoppingRule(max_iter=budget, dp_enabled=dp_enabled, eta=1.01,
                           noise_norm=prob.noise_norm))
    threshold = 1.01 * prob.noise_norm
    first = next(i + 1 for i, r in enumerate(rec.res_norm) if r <= threshold)
    assert rec.dp_index == first
    assert np.array_equal(rec.x_dp, iterates[first - 1])
    if dp_enabled:
        assert rec.stop_reason == "discrepancy" and rec.iterations == first
        assert np.array_equal(rec.x_stop, rec.x_dp)
    else:
        assert rec.iterations == budget > first
        assert not np.array_equal(rec.x_stop, rec.x_dp)

    plain = run(StoppingRule(max_iter=budget))
    assert plain.dp_index is None and plain.x_dp is None
