"""Circulant filters, schedules, sparsity weights, and composition."""

import warnings

import numpy as np
import pytest

from kryblur.operators import BlurOperator, Psf, bccb_eigenvalues, full_grid, materialize_dense
from kryblur.preconditioners import (
    CirculantOperator,
    ComposedOperator,
    DiagonalOperator,
    IdentityOperator,
    PreconditionerSchedule,
    circulant_abs_tikhonov,
    circulant_sqrt,
    circulant_threshold,
    circulant_tikhonov,
    sparsity_weights,
    times_adjoint,
)
from kryblur import preconditioners
from kryblur.problems import make_gaussian_psf, make_two_motion_psf
from kryblur.solvers import LinearMap

from oracles import dense_tikhonov_solve


DELTA = Psf(np.array([[1.0]]), (0, 0))


def _delta_symbol(n):
    return bccb_eigenvalues(DELTA, n)


# ---------------------------------------------------------------------------
# CirculantOperator


def _hermitian_grid(rng, n):
    # the real-FFT half of the DFT of a real first column: the half of a
    # conjugate-symmetric, complex grid
    return np.fft.rfft2(rng.standard_normal((n, n)))


def test_circulant_fourier_diagonalization():
    n = 8
    rng = np.random.default_rng(5)
    grid = full_grid(_hermitian_grid(rng, n))
    c = CirculantOperator(grid[:, :n // 2 + 1])
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for (p, q) in ((0, 0), (1, 3), (5, 2), (7, 7), (4, 4)):
        e = np.exp(-2j * np.pi * (p * rows + q * cols) / n)  # Fourier basis vector
        # a real operator maps the real and imaginary parts of e separately
        for part in (np.real, np.imag):
            defect = np.linalg.norm((c.apply(part(e)) - part(grid[p, q] * e)).ravel())
            assert defect <= 1e-10


def test_circulant_adjoint_conjugates_eigenvalues():
    rng = np.random.default_rng(6)
    grid = _hermitian_grid(rng, 4)
    c = CirculantOperator(grid)
    x = rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4))
    want = CirculantOperator(np.conj(grid)).apply(x)
    np.testing.assert_allclose(c.apply_adjoint(x), want, rtol=0.0, atol=1e-13)
    # and it is the transpose: <C x, y> = <x, C^T y>
    assert abs(np.vdot(c.apply(x), y) - np.vdot(x, c.apply_adjoint(y))) <= 1e-12


def test_circulant_real_output_for_symmetric_grid():
    grid = np.abs(bccb_eigenvalues(make_gaussian_psf(5, 1.0), 8))
    c = CirculantOperator(grid)
    out = c.apply(np.random.default_rng(7).standard_normal((8, 8)))
    assert not np.iscomplexobj(out)


def _complex_formula(x, eigs):
    # fft2(ifft2(x) * eigs) on each image of a flat, image or batch input
    n = eigs.shape[0]
    images = x.reshape(x.shape[:-1] + (n, n)) if x.shape[-1] == n * n else x
    return np.fft.fft2(np.fft.ifft2(images) * eigs).reshape(x.shape)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("build", [circulant_tikhonov, circulant_abs_tikhonov],
                         ids=["tikhonov", "abs_tikhonov"])
def test_circulant_real_path_matches_complex_formula(build, n):
    psf = make_two_motion_psf(4, 45.0, 135.0)  # off-center: complex symbol
    c = build(bccb_eigenvalues(psf, n), 0.05)
    if build is circulant_tikhonov:
        assert np.abs(c.eigs.imag).max() > 1e-2
    rng = np.random.default_rng(n)
    inputs = (rng.standard_normal(n * n), rng.standard_normal((n, n)),
              rng.standard_normal((3, n * n)), rng.standard_normal((2, 3, n, n)))
    for x in inputs:
        eigs = full_grid(c.eigs)
        for got, eigs in ((c.apply(x), eigs), (c.apply_adjoint(x), np.conj(eigs))):
            assert got.dtype == np.float64 and got.shape == x.shape
            want = _complex_formula(x, eigs).real
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(x)


def test_circulant_rejects_non_hermitian_grid():
    n = 8
    rng = np.random.default_rng(11)
    grid = rng.standard_normal((n, n // 2 + 1)) + 1j * rng.standard_normal((n, n // 2 + 1))
    # checked at construction, not on the first apply inside a solver loop
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        CirculantOperator(grid)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.inf], ids=["nan", "inf", "complex-inf"])
def test_circulant_refuses_a_non_finite_grid_by_name(value):
    grid = np.ones((4, 3), dtype=complex if isinstance(value, complex) else float)
    grid[1, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on it
        with pytest.raises(ValueError, match="circulant eigenvalue grid must be finite"):
            CirculantOperator(grid)
    with pytest.raises(ValueError, match="circulant eigenvalue grid must be finite"):
        CirculantOperator(np.full((4, 3), value))


def test_circulant_rejects_complex_input():
    n = 8
    rng = np.random.default_rng(13)
    c = CirculantOperator(_hermitian_grid(rng, n))
    x = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    for apply in (c.apply, c.apply_adjoint):
        with pytest.raises(ValueError, match="complex"):
            apply(x)


def test_circulant_validation():
    with pytest.raises(ValueError, match="square"):
        CirculantOperator(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        CirculantOperator(np.ones((0, 0)))
    # a full n-by-n grid is not a half grid (n = 1 and 2 excepted, where the
    # two coincide)
    with pytest.raises(ValueError, match=r"\(n, n//2\+1\)"):
        CirculantOperator(np.ones((4, 4)))
    c = CirculantOperator(np.ones((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        c.apply(np.ones(5))


# ---------------------------------------------------------------------------
# circulant_tikhonov


def test_tikhonov_delta_alpha_zero_is_identity():
    c = circulant_tikhonov(_delta_symbol(8), 0.0)
    x = np.random.default_rng(0).standard_normal((8, 8))
    np.testing.assert_allclose(c.apply(x), x, rtol=0.0, atol=1e-12)


def test_tikhonov_matches_elementwise_formula():
    symbol = bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8)
    c = circulant_tikhonov(symbol, 0.01)
    want = np.conj(symbol) / (np.abs(symbol) ** 2 + 0.01)
    assert np.abs(c.eigs - want).max() <= 1e-13


def test_tikhonov_equals_dense_regularized_solve_periodic():
    psf = make_gaussian_psf(5, 1.0)
    n, alpha = 8, 0.01
    op = BlurOperator(psf, "periodic", n)
    dense = materialize_dense(op)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(n * n)
    got = circulant_tikhonov(bccb_eigenvalues(psf, n), alpha).apply(b)
    want = dense_tikhonov_solve(dense, b, alpha)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_tikhonov_alpha_zero_singular_symbol_rejected():
    symbol = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="singular"):
        circulant_tikhonov(symbol, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        circulant_tikhonov(symbol, -0.1)


# ---------------------------------------------------------------------------
# circulant_abs_tikhonov


def test_abs_tikhonov_delta_alpha_one_is_half():
    c = circulant_abs_tikhonov(_delta_symbol(4), 1.0)
    np.testing.assert_allclose(c.eigs, np.full((4, 3), 0.5), rtol=0.0, atol=1e-15)


def test_abs_tikhonov_amgm_bound():
    for psf in (make_gaussian_psf(5, 2.0), make_gaussian_psf(7, 1.0)):
        symbol = bccb_eigenvalues(psf, 16)
        for alpha in (1e-1, 1e-2, 1e-3):
            c = circulant_abs_tikhonov(symbol, alpha)
            assert c.eigs.real.max() <= 1.0 / (2.0 * np.sqrt(alpha)) + 1e-15
            assert np.abs(c.eigs.imag).max() == 0.0
            assert c.eigs.real.min() >= 0.0


def test_abs_tikhonov_matches_elementwise_formula():
    symbol = bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8)
    c = circulant_abs_tikhonov(symbol, 0.01)
    mag = np.abs(symbol)
    assert np.abs(c.eigs - mag / (mag ** 2 + 0.01)).max() <= 1e-13


def test_abs_tikhonov_requires_positive_alpha():
    with pytest.raises(ValueError, match="positive"):
        circulant_abs_tikhonov(_delta_symbol(4), 0.0)


# ---------------------------------------------------------------------------
# circulant_threshold


def test_threshold_delta_is_identity():
    for eps in (0.1, 0.5, 0.9):
        c = circulant_threshold(_delta_symbol(4), eps)
        np.testing.assert_allclose(c.eigs, np.ones((4, 3)), rtol=0.0, atol=1e-15)


def test_threshold_membership_and_count():
    symbol = bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8)
    eps = 0.1
    mag = np.abs(symbol)
    c = circulant_threshold(symbol, eps)
    vals = c.eigs.real
    kept = mag > eps
    assert int(kept.sum()) == int((vals != 1.0).sum()) + int(((vals == 1.0) & kept).sum())
    np.testing.assert_allclose(vals[kept], mag[kept], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(vals[~kept], 1.0, rtol=0.0, atol=0.0)
    assert vals[kept].max() <= mag.max()
    assert np.all(vals[kept] > eps)


def test_threshold_always_invertible():
    for psf in (make_gaussian_psf(5, 2.0), make_gaussian_psf(7, 3.0)):
        c = circulant_threshold(bccb_eigenvalues(psf, 16), 0.1)
        assert c.eigs.real.min() > 0.0


def test_threshold_eps_domain():
    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="eps"):
            circulant_threshold(_delta_symbol(4), eps)


# ---------------------------------------------------------------------------
# circulant_sqrt


def test_sqrt_identity_and_constant():
    ident = CirculantOperator(np.ones((4, 3)))
    np.testing.assert_allclose(circulant_sqrt(ident).eigs, np.ones((4, 3)),
                               rtol=0.0, atol=0.0)
    fours = CirculantOperator(np.full((4, 3), 4.0))
    np.testing.assert_allclose(circulant_sqrt(fours).eigs, np.full((4, 3), 2.0),
                               rtol=0.0, atol=0.0)


def test_sqrt_squares_back():
    c = circulant_abs_tikhonov(bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8), 0.01)
    root = circulant_sqrt(c)
    assert np.abs(root.eigs ** 2 - c.eigs).max() <= 1e-12


def test_sqrt_of_sqrt_fourth_power():
    c = circulant_abs_tikhonov(bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8), 0.01)
    quarter = circulant_sqrt(circulant_sqrt(c))
    assert np.abs(quarter.eigs ** 4 - c.eigs).max() <= 1e-9


def test_sqrt_domain_errors():
    # the DFT half of a shifted delta: conjugate-symmetric, not real (every
    # conjugate-symmetric 2x2 grid is real)
    shifted = np.fft.rfft2(np.roll(np.eye(1, 16).reshape(4, 4), 1, axis=1))
    assert np.abs(shifted.imag).max() > 0.5
    with pytest.raises(ValueError, match="imaginary"):
        circulant_sqrt(CirculantOperator(shifted))
    with pytest.raises(ValueError, match="nonnegative"):
        circulant_sqrt(CirculantOperator(np.full((2, 2), -1.0)))


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("grid", ["complex-tikhonov", "real-sqrt"])
def test_times_adjoint_of_a_circulant_is_one_filter(grid, n, monkeypatch):
    # P P^T is the circulant with grid g conj(g): the dense product, on an
    # odd n too (one self-mirrored column), from one filter an apply
    symbol = bccb_eigenvalues(make_two_motion_psf(4, 45.0, 135.0), n)  # off-center
    if grid == "complex-tikhonov":
        p = circulant_tikhonov(symbol, 0.05)
        assert np.abs(p.eigs.imag).max() > 1e-2
    else:
        p = circulant_sqrt(circulant_abs_tikhonov(symbol, 0.05))
        assert not np.iscomplexobj(p.eigs)
    gram = times_adjoint(p)
    assert isinstance(gram, CirculantOperator) and not np.iscomplexobj(gram.eigs)
    dense = materialize_dense(p, cap=n)
    want = dense @ dense.T
    assert np.abs(materialize_dense(gram, cap=n) - want).max() <= 1e-12 * np.abs(want).max()
    filters = []
    real = preconditioners._rfft_filter
    monkeypatch.setattr(preconditioners, "_rfft_filter",
                        lambda *args: filters.append(1) or real(*args))
    gram.apply(np.ones(n * n))
    assert len(filters) == 1


def test_times_adjoint_of_any_other_map_is_its_adjoint_then_itself():
    rng = np.random.default_rng(3)
    weights = rng.random(16)
    mat = rng.standard_normal((16, 16))  # not symmetric: P P^T differs from P^T P
    for p, dense in ((DiagonalOperator(weights), np.diag(weights)),
                     (LinearMap.from_matrix(mat), mat)):
        gram = times_adjoint(p)
        want = dense @ dense.T
        assert gram.size == 16
        assert np.abs(materialize_dense(gram) - want).max() <= 1e-12 * np.abs(want).max()
        x = rng.standard_normal((3, 4, 4))  # a batch of images; P P^T is symmetric
        got = gram.apply_adjoint(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got.reshape(3, 16), x.reshape(3, 16) @ want,
                                   rtol=0.0, atol=1e-12 * np.abs(want).sum())


# ---------------------------------------------------------------------------
# schedules


def test_alpha_at_paper_values():
    sched = PreconditionerSchedule("tikhonov", 0.1, 0.8)
    assert sched.alpha_at(0) == 0.1
    assert abs(sched.alpha_at(1) - 0.08) <= 1e-15


def test_alpha_at_stationary():
    # q = 1 is the stationary schedule: alpha0 * 1.0**k is alpha0 exactly
    sched = PreconditionerSchedule("tikhonov", 0.01, 1.0)
    for k in (0, 1, 5, 20):
        assert sched.alpha_at(k) == 0.01


def test_alpha_monotone_decreasing_when_q_below_one():
    sched = PreconditionerSchedule("abs_tikhonov", 0.1, 0.8)
    alphas = [sched.alpha_at(k) for k in range(20)]
    assert all(a > b > 0.0 for a, b in zip(alphas, alphas[1:]))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_filters_and_schedule_refuse_non_finite_alpha(value):
    with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
        circulant_tikhonov(_delta_symbol(4), value)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        circulant_abs_tikhonov(_delta_symbol(4), value)
    with pytest.raises(ValueError, match="alpha0 must be positive and finite"):
        PreconditionerSchedule("abs_tikhonov", value, 0.8)


def test_schedule_validation():
    for variant in ("ridge", "threshold", "identity"):
        with pytest.raises(ValueError, match="variant"):
            PreconditionerSchedule(variant, 0.1, 0.8)
    with pytest.raises(ValueError, match="alpha0"):
        PreconditionerSchedule("tikhonov", 0.0, 0.8)
    with pytest.raises(ValueError, match="q"):
        PreconditionerSchedule("tikhonov", 0.1, 0.0)
    with pytest.raises(ValueError, match="q"):
        PreconditionerSchedule("tikhonov", 0.1, 1.2)
    sched = PreconditionerSchedule()
    with pytest.raises(ValueError, match="nonnegative"):
        sched.alpha_at(-1)


def test_schedule_build_variants():
    symbol = bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8)
    sched = PreconditionerSchedule("tikhonov", 0.1, 0.5)
    built = sched.build(symbol, 1)
    want = circulant_tikhonov(symbol, 0.05)
    np.testing.assert_array_equal(built.eigs, want.eigs)

    sched = PreconditionerSchedule("abs_tikhonov", 0.1, 0.5)
    np.testing.assert_array_equal(sched.build(symbol, 0).eigs,
                                  circulant_abs_tikhonov(symbol, 0.1).eigs)


def test_constructors_deterministic():
    symbol = bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8)
    for make in (lambda: circulant_tikhonov(symbol, 0.01),
                 lambda: circulant_abs_tikhonov(symbol, 0.01),
                 lambda: circulant_threshold(symbol, 0.1)):
        a, b = make(), make()
        assert np.array_equal(a.eigs, b.eigs)


# ---------------------------------------------------------------------------
# sparsity weights


def test_sparsity_weights_examples():
    np.testing.assert_array_equal(sparsity_weights(np.array([0.0, 1.0, 4.0])).weights,
                                  np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(sparsity_weights(np.array([-4.0])).weights,
                                  np.array([2.0]))
    np.testing.assert_array_equal(sparsity_weights(np.zeros(5)).weights, np.zeros(5))


def test_diagonal_operator_apply_and_validation():
    d = DiagonalOperator(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(d.apply(np.array([1.0, 1.0, 1.0])),
                                  np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(d.apply_adjoint(np.ones(3)), d.apply(np.ones(3)))
    with pytest.raises(ValueError, match="entries"):
        d.apply(np.ones(4))
    with pytest.raises(ValueError, match="finite"):
        DiagonalOperator(np.array([np.inf]))


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_cases():
    rng = np.random.default_rng(2)
    symbol = bccb_eigenvalues(make_gaussian_psf(5, 2.0), 8)
    p = circulant_abs_tikhonov(symbol, 0.01)
    w = DiagonalOperator(rng.uniform(0.0, 2.0, 64))
    ident = IdentityOperator(64)
    x = rng.standard_normal(64)
    assert np.abs(ComposedOperator(ident, p).apply(x) - p.apply(x)).max() <= 1e-14
    assert np.abs(ComposedOperator(w, ident).apply(x) - w.apply(x)).max() <= 1e-14


def test_compose_applies_first_then_second():
    rng = np.random.default_rng(3)
    n = 8
    symbol = bccb_eigenvalues(make_gaussian_psf(5, 2.0), n)
    p = circulant_abs_tikhonov(symbol, 0.01)
    w = DiagonalOperator(rng.uniform(0.0, 2.0, n * n))
    dense_p = materialize_dense(p, cap=n)
    dense_w = np.diag(w.weights)
    x = rng.standard_normal(n * n)
    got = ComposedOperator(w, p).apply(x)
    want = dense_p @ (dense_w @ x)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_compose_size_mismatch():
    with pytest.raises(ValueError, match="sizes"):
        ComposedOperator(IdentityOperator(4), IdentityOperator(9))


# ---------------------------------------------------------------------------
# spectral bound of the preconditioned symbol


def test_abs_tikhonov_never_amplifies():
    # Eigenvalues of C(filter) * C(|symbol|) are the elementwise products
    # |s|^2 / (|s|^2 + eps): all strictly below 1, and at most eps wherever
    # the symbol magnitude is itself at most eps.
    symbol = bccb_eigenvalues(make_gaussian_psf(9, 2.0), 32)
    eps = 1e-2
    filt = circulant_abs_tikhonov(symbol, eps)
    mag = np.abs(symbol)
    vals = filt.eigs.real * mag
    assert np.all(vals < 1.0)
    small = mag <= eps
    assert small.any()
    assert np.all(vals[small] <= eps)
