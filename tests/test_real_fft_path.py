"""The one real-FFT path: a run never transforms a full complex n-by-n grid.

The scene generators, the problem set-up, the symbol, every circulant
constructor and a few steps of each solver family run with the full complex
2-D and n-D transforms of numpy.fft and scipy.fft patched to raise.  The
filter's per-axis ``numpy.fft.ifft`` over the half spectrum stays allowed,
and ``rfft2``/``rfftn`` do not go through ``fftn``, so they are not caught.

Every transform is numpy.fft's: blurs are built and applied with each
scipy.fft transform patched to raise, and scipy supplies only
``next_fast_len``.
"""

import numpy as np
import pytest
import scipy.fft

from kryblur import operators, preconditioners, problems, solvers

_FULL_COMPLEX = ("fft2", "ifft2", "fftn", "ifftn")

_SCIPY_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                     "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "dct", "idct",
                     "dst", "idst", "dctn", "idctn", "dstn", "idstn")


def _refuse(monkeypatch, calls, module, prefix, names, why):
    def refuse(name):
        def transform(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called: {why}")
        return transform

    for name in names:
        monkeypatch.setattr(module, name, refuse(f"{prefix}.{name}"))


@pytest.fixture
def no_full_complex_fft(monkeypatch):
    calls = []
    for module, prefix in ((np.fft, "numpy.fft"), (scipy.fft, "scipy.fft")):
        _refuse(monkeypatch, calls, module, prefix, _FULL_COMPLEX,
                "a full complex grid was transformed")
    yield calls
    assert calls == []


@pytest.fixture
def no_scipy_transform(monkeypatch):
    calls = []
    _refuse(monkeypatch, calls, scipy.fft, "scipy.fft", _SCIPY_TRANSFORMS,
            "transforms are numpy.fft's")
    yield calls
    assert calls == []


def test_guard_catches_full_complex_transforms(no_full_complex_fft):
    for transform in (np.fft.fft2, np.fft.ifftn, scipy.fft.ifft2, scipy.fft.fftn):
        with pytest.raises(AssertionError, match="full complex"):
            transform(np.ones((4, 4)))
    no_full_complex_fft.clear()


def test_scenes_set_up_and_solvers_use_half_spectra_only(no_full_complex_fft, tmp_path):
    n, steps = 16, 3
    for scene in (problems.star_field(n), problems.natural_scene(n)):
        assert scene.shape == (n, n) and np.isfinite(scene).all()

    psf = problems.make_gaussian_psf(5, 1.5)
    problem = problems.make_problem(problems.star_field(n), psf, "zero", 0.05, 3)
    symbol = operators.bccb_eigenvalues(psf, n)
    assert symbol.shape == (n, n // 2 + 1)
    half = preconditioners.circulant_sqrt(preconditioners.circulant_abs_tikhonov(symbol, 1e-2))
    tikhonov = preconditioners.circulant_tikhonov(symbol, 1e-2)
    threshold = preconditioners.circulant_threshold(symbol, 0.1)
    for circ in (half, tikhonov, threshold):
        assert circ.eigs.shape == (n, n // 2 + 1)
    schedule = preconditioners.PreconditionerSchedule("abs_tikhonov", 0.1, 0.8)

    flipped = operators.FlipComposedOperator(problem.operator)
    rhs = operators.apply_flip(problem.b)
    rule = solvers.StoppingRule(max_iter=steps)
    records = [
        solvers.minres(flipped, rhs, rule),
        solvers.minres_sym_prec(flipped, rhs, half, rule),
        solvers.gmres(flipped, rhs, rule, right_prec=schedule.build(symbol, 0)),
        solvers.fgmres(flipped, rhs, prec_at=lambda k, x: schedule.build(symbol, k),
                       rule=rule),
        solvers.lsqr(problem.operator, problem.b, rule, right_prec=tikhonov),
        solvers.flsqr(problem.operator, problem.b,
                      prec_at=lambda k, x: tikhonov, rule=rule),
    ]
    for record in records:
        assert record.iterations == steps

    # run_experiment, from config to artifacts, under reflective boundaries
    config = tmp_path / "guard.cfg"
    config.write_text(
        "image = edges\nn = 16\npsf = motion2\npsf_length = 5\nbc = reflective\n"
        "sigma = 0.05\nseed = 1\nmax_iter = 3\n"
        "methods = YA GMRES, AP GMRES, YAPW FGMRES, AP LSQR, AP FLSQR\n"
        f"outdir = {tmp_path / 'out'}\n", encoding="ascii")
    runs = problems.run_experiment(problems.parse_config(config))
    assert [run.record.iterations for run in runs] == [steps] * 5


@pytest.mark.parametrize("bc", ["zero", "periodic", "reflective"])
def test_blur_and_solvers_use_no_scipy_transform(no_scipy_transform, bc):
    n, steps = 16, 3
    psf = problems.make_two_motion_psf(5, 30.0, 120.0)
    op = operators.BlurOperator(psf, bc, n)
    x = np.random.default_rng(2).standard_normal(n * n)
    y = np.random.default_rng(3).standard_normal(n * n)
    assert abs(np.dot(op.apply(x), y) - np.dot(x, op.apply_adjoint(y))) <= 1e-12 * n * n
    rule = solvers.StoppingRule(max_iter=steps)
    records = [solvers.gmres(op, y, rule), solvers.lsqr(op, y, rule)]
    if bc != "reflective":
        flipped = operators.FlipComposedOperator(op)
        records.append(solvers.minres(flipped, operators.apply_flip(y), rule))
    for record in records:
        assert record.iterations == steps
