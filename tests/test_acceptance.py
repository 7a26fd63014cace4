"""End-to-end acceptance gate: one test per advertised guarantee.

Every test prints a single summary line of the form

    ACCEPTANCE <k> (<what>): PASS|FAIL -- <measured values> [<time>s / budget <t>s]

(visible with ``pytest -s`` or in the captured output of a failure) and then
asserts the guarantee at its stated tolerance together with a wall-clock
budget.

Test 4 checks the absolute-value Tikhonov envelope in three tests.  With
periodic boundaries the preconditioned flipped matrix has the eigenvalues
+-|f|^2/(|f|^2 + alpha) exactly, so every one obeys |eig| <= 1 + 1e-8.  With
zero boundaries the wrap-around part that separates T(f) from C(f) has rank
O(n), so O(n) boundary eigenvalues may leave the envelope; one test asserts
that their share of all n^2 eigenvalues does not grow with n and prints their
count and the largest |eig|.  The third asserts the strict bound
|eig| <= 1 + 1e-8 with zero boundaries at n = 16, the grid-size limit of the
preconditioned symbol.  It is expected to fail: boundary outliers break it at
every size.  It is kept at full strength so the measured finite-size gap is
documented in the test output rather than hidden behind a loosened tolerance.
"""

import functools
import time

import numpy as np

from kryblur.operators import (
    BlurOperator,
    FlipComposedOperator,
    Psf,
    apply_flip,
    bccb_eigenvalues,
    full_grid,
    materialize_dense,
)
from kryblur.preconditioners import (
    IdentityOperator,
    circulant_abs_tikhonov,
    circulant_sqrt,
    circulant_tikhonov,
)
from kryblur.problems import (
    make_gaussian_psf,
    make_motion_psf,
    make_problem,
    make_two_motion_psf,
    natural_scene,
    parse_config,
    phantom,
    run_experiment,
    star_field,
)
from kryblur.solvers import (
    LinearMap,
    StoppingRule,
    fgmres,
    flsqr,
    gmres,
    lsqr,
    minres,
    minres_sym_prec,
)
from kryblur.spectral import (
    cluster_report,
    preconditioned_spectrum,
    szego_distribution_check,
)

from oracles import (
    dense_tikhonov_solve,
    random_nonsymmetric,
    random_symmetric,
    reference_gmres,
    reference_lsqr,
    reference_minres,
    symbol_direct,
)


def _report(num, what, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {num} ({what}): {verdict} -- {detail} "
        f"[{elapsed:.2f}s / budget {budget:.0f}s]"
    )


def _stability_window(rre):
    """Number of iterations whose RRE stays within 5% of the best RRE."""
    rre = np.asarray(rre, dtype=float)
    return int(np.count_nonzero(rre <= 1.05 * rre.min()))


def test_1_structural_exactness():
    budget = 5.0
    start = time.perf_counter()

    probes = (make_gaussian_psf(9, 2.0), make_motion_psf(5, 30.0))
    flip = np.eye(16 * 16)[::-1]
    persym = 0.0
    eig_vs_symbol = 0.0
    for psf in probes:
        dense = materialize_dense(BlurOperator(psf, "zero", 16))
        persym = max(persym, float(np.abs(flip @ dense - dense.T @ flip).max()))
        gap = np.abs(full_grid(bccb_eigenvalues(psf, 16)) - symbol_direct(psf, 16)).max()
        eig_vs_symbol = max(eig_vs_symbol, float(gap))

    psf = make_gaussian_psf(5, 1.2)
    dense = materialize_dense(BlurOperator(psf, "periodic", 8))
    rhs = np.random.default_rng(5).standard_normal(64)
    got = circulant_tikhonov(bccb_eigenvalues(psf, 8), 0.05).apply(rhs)
    want = dense_tikhonov_solve(dense, rhs, 0.05)
    tik = float(np.abs(got - want).max())

    elapsed = time.perf_counter() - start
    ok = (
        persym <= 1e-12
        and eig_vs_symbol <= 1e-12
        and tik <= 1e-8
        and elapsed < budget
    )
    _report(
        1,
        "structural exactness",
        ok,
        f"persymmetry defect {persym:.3e} (tol 1e-12), "
        f"circulant eigenvalues vs direct symbol sum {eig_vs_symbol:.3e} (tol 1e-12), "
        f"circulant Tikhonov vs dense solve {tik:.3e} (tol 1e-8)",
        elapsed,
        budget,
    )
    assert persym <= 1e-12, f"persymmetry defect {persym:.3e} > 1e-12"
    assert eig_vs_symbol <= 1e-12, f"eigenvalue/symbol gap {eig_vs_symbol:.3e} > 1e-12"
    assert tik <= 1e-8, f"circulant Tikhonov vs dense solve {tik:.3e} > 1e-8"
    assert elapsed < budget


def test_2_solver_oracle_equivalence():
    budget = 10.0
    start = time.perf_counter()

    worst_history = 0.0
    for size, seed in ((16, 1), (32, 2), (64, 3)):
        iters = size - 4
        rule = StoppingRule(max_iter=iters)
        rhs = np.random.default_rng(seed + 100).standard_normal(size)
        rhs /= np.linalg.norm(rhs)
        sym = random_symmetric(size, seed)
        nonsym = random_nonsymmetric(size, seed)
        runs = (
            (minres(LinearMap.from_matrix(sym), rhs, rule),
             reference_minres(sym, rhs, iters)[0]),
            (gmres(LinearMap.from_matrix(nonsym), rhs, rule),
             reference_gmres(nonsym, rhs, iters)[0]),
            (lsqr(LinearMap.from_matrix(nonsym), rhs, rule),
             reference_lsqr(nonsym, rhs, iters)[0]),
        )
        for record, reference in runs:
            depth = min(len(record.res_norm), len(reference))
            assert depth >= 1
            gap = np.abs(
                np.asarray(record.res_norm[:depth]) - np.asarray(reference[:depth])
            ).max()
            worst_history = max(worst_history, float(gap))

    size, iters = 32, 28
    nonsym = random_nonsymmetric(size, 2)
    rhs = np.random.default_rng(102).standard_normal(size)
    rhs /= np.linalg.norm(rhs)
    rule = StoppingRule(max_iter=iters)
    system = LinearMap.from_matrix(nonsym)

    def identity_at(_k, _x_prev):
        return IdentityOperator(size)

    worst_reduction = 0.0
    for plain_solver, flexible_solver in ((gmres, fgmres), (lsqr, flsqr)):
        plain = plain_solver(system, rhs, rule)
        flexible = flexible_solver(system, rhs, prec_at=identity_at, rule=rule)
        depth = min(len(plain.res_norm), len(flexible.res_norm))
        gap = np.abs(
            np.asarray(plain.res_norm[:depth]) - np.asarray(flexible.res_norm[:depth])
        ).max()
        gap = max(gap, float(np.abs(plain.x_stop - flexible.x_stop).max()))
        worst_reduction = max(worst_reduction, float(gap))

    elapsed = time.perf_counter() - start
    ok = worst_history <= 1e-8 and worst_reduction <= 1e-10 and elapsed < budget
    _report(
        2,
        "solver-oracle equivalence",
        ok,
        f"residual history vs textbook reference {worst_history:.3e} (tol 1e-8), "
        f"flexible-with-identity vs plain {worst_reduction:.3e} (tol 1e-10)",
        elapsed,
        budget,
    )
    assert worst_history <= 1e-8, f"history gap {worst_history:.3e} > 1e-8"
    assert worst_reduction <= 1e-10, f"reduction gap {worst_reduction:.3e} > 1e-10"
    assert elapsed < budget


def test_3_eigenvalue_clustering():
    budget = 60.0
    start = time.perf_counter()

    psf = make_gaussian_psf(9, 2.0)
    fractions = {}
    for n in (16, 32):
        eigs = preconditioned_spectrum(psf, n, 0.1)
        fractions[n] = cluster_report(eigs, eps=0.1, delta=0.2).outlier_fraction

    delta_psf = Psf(np.ones((1, 1)), (0, 0))
    delta_outliers = cluster_report(
        preconditioned_spectrum(delta_psf, 16, 0.1), eps=0.1, delta=0.2
    ).outliers

    elapsed = time.perf_counter() - start
    ok = (
        fractions[32] <= fractions[16]
        and fractions[16] <= 0.25
        and fractions[32] <= 0.25
        and delta_outliers == 0
        and elapsed < budget
    )
    _report(
        3,
        "eigenvalue clustering at -1, 0, +1",
        ok,
        f"outlier fraction n=16: {fractions[16]:.6f}, n=32: {fractions[32]:.6f} "
        f"(need n=32 <= n=16 <= 0.25), delta-PSF outliers: {delta_outliers}",
        elapsed,
        budget,
    )
    assert fractions[32] <= fractions[16], (
        f"outlier fraction grew with n: {fractions[32]:.6f} > {fractions[16]:.6f}"
    )
    assert fractions[16] <= 0.25 and fractions[32] <= 0.25
    assert delta_outliers == 0
    assert elapsed < budget


#: Sizes and alphas of acceptance 4, and the bound every test there reads.
_ENVELOPE_SIZES = (16, 32)
_ENVELOPE_ALPHAS = (1e-2, 1e-3)
_ENVELOPE_BOUND = 1.0 + 1e-8


@functools.cache
def _abs_tikhonov_spectra(n):
    """``{alpha: (periodic, zero)}``, the sorted ``|eig|`` of the
    absolute-value Tikhonov preconditioned flipped 9x9 Gaussian blur at side
    n, with periodic and with zero boundaries.

    For a real PSF, Y C(f) is symmetric, squares to C(|f|^2) and commutes
    with the real, even circulant C(g_alpha), so the periodic spectrum is
    exactly +-|f|^2/(|f|^2 + alpha) <= 1/(1 + alpha).  Zero boundaries
    differ from periodic ones by the wrap-around part C(f) - T(f), whose rank
    grows like n; by interlacing at most that many eigenvalues leave the
    envelope (about 1.28 at alpha = 1e-2 and 2.5 at alpha = 1e-3, for n = 16
    to 48).  H (Y A) H with H = C(g_alpha)^(1/2) is symmetric and has the
    spectrum of C(g_alpha) Y A (XZ and ZX share eigenvalues), so eigvalsh
    keeps the spectra real and n = 32 cheap.  Cached: the three tests of
    acceptance 4 share it, and the first to run pays for it."""
    psf = make_gaussian_psf(9, 2.0)
    symbol = bccb_eigenvalues(psf, n)
    periodic = materialize_dense(BlurOperator(psf, "periodic", n))[::-1, :]
    zero = materialize_dense(BlurOperator(psf, "zero", n))[::-1, :]
    spectra = {}
    for alpha in _ENVELOPE_ALPHAS:
        half = materialize_dense(circulant_sqrt(circulant_abs_tikhonov(symbol, alpha)))
        spectra[alpha] = tuple(
            np.sort(np.abs(np.linalg.eigvalsh(half @ mat @ half))) for mat in (periodic, zero)
        )
    return spectra


def test_4_abs_tikhonov_spectral_envelope():
    # periodic boundaries: every eigenvalue obeys the envelope, exactly
    budget = 10.0
    start = time.perf_counter()
    periodic_max = {
        (n, alpha): float(_abs_tikhonov_spectra(n)[alpha][0][-1])
        for n in _ENVELOPE_SIZES
        for alpha in _ENVELOPE_ALPHAS
    }
    elapsed = time.perf_counter() - start
    ok = all(value <= _ENVELOPE_BOUND for value in periodic_max.values())
    readings = ", ".join(
        f"max |eig| = {value:.6f} (n={n}, alpha={alpha:g})"
        for (n, alpha), value in periodic_max.items()
    )
    _report(4, "abs-Tikhonov spectral envelope, periodic", ok and elapsed < budget,
            f"{readings} (bound 1 + 1e-8)", elapsed, budget)
    assert elapsed < budget
    assert ok, f"periodic envelope |eig| <= 1 + 1e-8 violated: {readings}"


def test_4_zero_bc_outlier_share_does_not_grow():
    # zero boundaries: the share of the n^2 eigenvalues beyond the envelope
    # does not grow from n = 16 to n = 32
    budget = 10.0
    start = time.perf_counter()
    count, share, zero_max = {}, {}, {}
    for n in _ENVELOPE_SIZES:
        for alpha, (_, zero_abs) in _abs_tikhonov_spectra(n).items():
            count[n, alpha] = int(np.count_nonzero(zero_abs > _ENVELOPE_BOUND))
            share[n, alpha] = count[n, alpha] / n ** 2
            zero_max[n, alpha] = float(zero_abs[-1])
    elapsed = time.perf_counter() - start
    small, large = _ENVELOPE_SIZES
    ok = all(share[large, alpha] <= share[small, alpha] for alpha in _ENVELOPE_ALPHAS)
    readings = "; ".join(
        f"alpha={alpha:g}: count > bound (share, max |eig|) "
        + ", ".join(
            f"n={n} {count[n, alpha]} ({share[n, alpha]:.4f}, {zero_max[n, alpha]:.4f})"
            for n in _ENVELOPE_SIZES
        )
        for alpha in _ENVELOPE_ALPHAS
    )
    _report(4, "abs-Tikhonov zero-BC outlier share", ok and elapsed < budget,
            f"{readings} (share must not grow from n={small} to n={large})", elapsed, budget)
    assert elapsed < budget
    assert ok, (
        "zero-BC share of boundary eigenvalues with |eig| > 1 + 1e-8 grew "
        f"from n={small} to n={large}: {readings}"
    )


def test_4_strict_zero_bc_envelope():
    # The strict bound |eig(C(g_alpha) Y T(f))| <= 1 + 1e-8 at n = 16 is the
    # grid-size limit of the preconditioned symbol |f|^2/(|f|^2 + alpha) <= 1.
    # Boundary outliers break it (about 1.2824 at alpha = 1e-2 and 2.5876 at
    # alpha = 1e-3), so this test fails by design and records the measured
    # finite-size excess instead of weakening the envelope.
    budget = 10.0
    start = time.perf_counter()
    n = _ENVELOPE_SIZES[0]
    zero_max = {alpha: float(zero_abs[-1]) for alpha, (_, zero_abs) in _abs_tikhonov_spectra(n).items()}
    elapsed = time.perf_counter() - start
    ok = all(value <= _ENVELOPE_BOUND for value in zero_max.values())
    readings = ", ".join(f"max |eig| = {value:.4f} (alpha={alpha:g})" for alpha, value in zero_max.items())
    _report(4, "abs-Tikhonov strict zero-BC envelope", ok and elapsed < budget,
            f"n={n}: {readings} (bound 1 + 1e-8)", elapsed, budget)
    assert elapsed < budget
    assert ok, (
        f"strict zero-BC envelope |eig| <= 1 + 1e-8 violated at n={n}: {readings}; "
        "boundary outliers of the rank-O(n) wrap-around part leave it at every size"
    )


def test_5_star_field_semiconvergence():
    budget = 30.0
    start = time.perf_counter()

    psf = make_gaussian_psf(9, 2.0)
    problem = make_problem(star_field(64, seed=1), psf, "zero", 0.05, 42)
    truth = problem.x_true
    rule = StoppingRule(max_iter=100)
    symbol = bccb_eigenvalues(psf, 64)
    alpha = 1e-2

    flipped = FlipComposedOperator(problem.operator)
    flipped_rhs = apply_flip(problem.b)
    plain_minres = minres(flipped, flipped_rhs, rule, x_true=truth)
    half = circulant_sqrt(circulant_abs_tikhonov(symbol, alpha))
    prec_minres = minres_sym_prec(flipped, flipped_rhs, half, rule, x_true=truth)
    prec_lsqr = lsqr(
        problem.operator,
        problem.b,
        rule,
        right_prec=circulant_tikhonov(symbol, alpha),
        x_true=truth,
    )

    minres_window = _stability_window(prec_minres.rre)
    lsqr_window = _stability_window(prec_lsqr.rre)

    elapsed = time.perf_counter() - start
    ok = (
        prec_minres.best_index < plain_minres.best_index
        and minres_window >= lsqr_window
        and elapsed < budget
    )
    _report(
        5,
        "star-field semi-convergence",
        ok,
        f"preconditioned MINRES best RRE {min(prec_minres.rre):.4f} at iter "
        f"{prec_minres.best_index} vs unpreconditioned {min(plain_minres.rre):.4f} "
        f"at iter {plain_minres.best_index} (need strictly earlier); stability "
        f"window MINRES {minres_window} vs LSQR {lsqr_window} (need >=)",
        elapsed,
        budget,
    )
    assert prec_minres.best_index < plain_minres.best_index, (
        f"preconditioning did not reach the best RRE earlier: "
        f"{prec_minres.best_index} vs {plain_minres.best_index}"
    )
    assert minres_window >= lsqr_window, (
        f"preconditioned MINRES window {minres_window} narrower than "
        f"preconditioned LSQR window {lsqr_window}"
    )
    assert elapsed < budget


def test_6_natural_scene_flip_ordering():
    budget = 60.0
    start = time.perf_counter()

    problem = make_problem(
        natural_scene(128, seed=7),
        make_two_motion_psf(9, 45.0, 135.0),
        "reflective",
        0.01,
        42,
    )
    rule = StoppingRule(max_iter=60)
    plain = gmres(problem.operator, problem.b, rule, x_true=problem.x_true)
    flipped = gmres(
        FlipComposedOperator(problem.operator),
        apply_flip(problem.b),
        rule,
        x_true=problem.x_true,
    )
    best_plain = min(plain.rre)
    best_flipped = min(flipped.rre)
    ratio = best_flipped / best_plain

    elapsed = time.perf_counter() - start
    ok = best_flipped < best_plain and ratio <= 0.8 and elapsed < budget
    _report(
        6,
        "flip-symmetrized GMRES ordering",
        ok,
        f"best RRE flipped {best_flipped:.4f} vs plain {best_plain:.4f}, "
        f"ratio {ratio:.3f} (need <= 0.8)",
        elapsed,
        budget,
    )
    assert best_flipped < best_plain
    assert ratio <= 0.8, f"flip/plain best-RRE ratio {ratio:.3f} > 0.8"
    assert elapsed < budget


def test_7_edges_flexible_ordering(tmp_path):
    budget = 120.0
    start = time.perf_counter()

    config = tmp_path / "edges.cfg"
    config.write_text(
        "\n".join(
            [
                "image = edges",
                "n = 128",
                "psf = motion2",
                "psf_length = 9",
                "psf_angle = 45",
                "psf_angle2 = 135",
                "bc = reflective",
                "sigma = 0.1",
                "seed = 42",
                "alpha0 = 0.1",
                "q = 0.8",
                "eta = 1.01",
                "max_iter = 60",
                "methods = YAW FGMRES, AW FGMRES, YAPW FGMRES",
                f"outdir = {tmp_path / 'out'}",
            ]
        )
        + "\n"
    )
    runs = {run.label: run for run in run_experiment(parse_config(config))}
    yaw = runs["YAW FGMRES"]
    aw = runs["AW FGMRES"]
    yapw = runs["YAPW FGMRES"]
    aw_floor = min(aw.record.rre)

    elapsed = time.perf_counter() - start
    ok = (
        yaw.dp_iter is not None
        and yapw.dp_iter is not None
        and yaw.dp_rre < aw_floor
        and yapw.dp_iter < yaw.dp_iter
        and elapsed < budget
    )
    yaw_dp = "not reached" if yaw.dp_rre is None else f"{yaw.dp_rre:.4f}"
    _report(
        7,
        "sparse-edges flexible ordering",
        ok,
        f"YAW FGMRES discrepancy-stop RRE {yaw_dp} vs AW FGMRES best-ever "
        f"RRE {aw_floor:.4f} (need <); discrepancy iterations YAPW "
        f"{yapw.dp_iter} vs YAW {yaw.dp_iter} (need <)",
        elapsed,
        budget,
    )
    assert yaw.dp_iter is not None and yapw.dp_iter is not None, (
        "discrepancy threshold never reached"
    )
    assert yaw.dp_rre < aw_floor, (
        f"flip variant's discrepancy-stop RRE {yaw.dp_rre:.4f} not below the "
        f"unflipped variant's best-ever RRE {aw_floor:.4f}"
    )
    assert yapw.dp_iter < yaw.dp_iter, (
        f"adding the circulant preconditioner did not reach the discrepancy "
        f"threshold earlier: {yapw.dp_iter} vs {yaw.dp_iter}"
    )
    assert elapsed < budget


def test_8_noise_model_exactness():
    budget = 1.0
    start = time.perf_counter()

    psf = make_gaussian_psf(5, 1.0)
    worst = 0.0
    for n in (8, 16):
        truth = phantom(n)
        for bc in ("zero", "periodic", "reflective"):
            for sigma in (0.01, 0.05, 0.1):
                problem = make_problem(truth, psf, bc, sigma, 3)
                blurred = problem.operator.apply(problem.x_true.ravel())
                gap = abs(
                    np.linalg.norm(problem.b.ravel() - blurred)
                    - sigma * np.linalg.norm(blurred)
                )
                worst = max(worst, float(gap))

    first = make_problem(phantom(16), psf, "reflective", 0.05, 3)
    second = make_problem(phantom(16), psf, "reflective", 0.05, 3)
    reproducible = first.b.tobytes() == second.b.tobytes()

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and reproducible and elapsed < budget
    _report(
        8,
        "noise-model exactness",
        ok,
        f"worst |norm(b - Ax) - sigma*norm(Ax)| = {worst:.3e} (tol 1e-12), "
        f"seeded rerun byte-identical: {reproducible}",
        elapsed,
        budget,
    )
    assert worst <= 1e-12, f"noise norm off by {worst:.3e} > 1e-12"
    assert reproducible, "seeded rerun produced different bytes"
    assert elapsed < budget


def test_9_moment_convergence():
    budget = 30.0
    start = time.perf_counter()

    averaging = Psf(np.full((3, 3), 1.0 / 9.0), (1, 1))
    coarse, coarse_moments = szego_distribution_check(averaging, 8)
    fine, fine_moments = szego_distribution_check(averaging, 32)

    dense = materialize_dense(BlurOperator(averaging, "zero", 8))
    mean_eig = float(np.mean(np.linalg.eigvalsh(0.5 * (dense + dense.T))))
    first_gap = abs(mean_eig - float(averaging.kernel[1, 1]))

    elapsed = time.perf_counter() - start
    ok = (
        fine < coarse
        and coarse_moments[0] <= 1e-12
        and fine_moments[0] <= 1e-12
        and first_gap <= 1e-12
        and elapsed < budget
    )
    _report(
        9,
        "moment convergence to the symbol",
        ok,
        f"discrepancy n=8: {coarse:.6f}, n=32: {fine:.6f} (need strictly "
        f"smaller); first-moment gaps {coarse_moments[0]:.2e}, "
        f"{fine_moments[0]:.2e}, mean eigenvalue vs center entry "
        f"{first_gap:.2e} (tol 1e-12)",
        elapsed,
        budget,
    )
    assert fine < coarse, (
        f"moment discrepancy did not shrink: {fine:.6f} >= {coarse:.6f}"
    )
    assert coarse_moments[0] <= 1e-12 and fine_moments[0] <= 1e-12
    assert first_gap <= 1e-12, f"mean eigenvalue off center entry by {first_gap:.2e}"
    assert elapsed < budget
