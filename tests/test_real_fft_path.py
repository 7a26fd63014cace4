"""The one real-FFT path: a run never transforms a full complex n-by-n grid.

The scene generators, the problem set-up, the symbol, every circulant
constructor and a few steps of each solver family run with the full complex
2-D and n-D transforms of numpy.fft and scipy.fft patched to raise.  The
filter's per-axis ``numpy.fft.ifft`` over the half spectrum stays allowed,
and ``rfft2``/``rfftn`` do not go through ``fftn``, so they are not caught.
"""

import numpy as np
import pytest
import scipy.fft

from kryblur import operators, preconditioners, problems, solvers

_FULL_COMPLEX = ("fft2", "ifft2", "fftn", "ifftn")


@pytest.fixture
def no_full_complex_fft(monkeypatch):
    calls = []

    def refuse(name):
        def transform(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called: a full complex grid was transformed")
        return transform

    for module, prefix in ((np.fft, "numpy.fft"), (scipy.fft, "scipy.fft")):
        for name in _FULL_COMPLEX:
            monkeypatch.setattr(module, name, refuse(f"{prefix}.{name}"))
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
