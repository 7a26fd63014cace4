"""Test-problem construction, metrics, file formats, and the experiment driver."""

import math

import numpy as np
import pytest

from kryblur import problems, solvers
from kryblur.metrics import psnr_from_error, rre_from_error
from kryblur.operators import (BoundaryCondition, FlipComposedOperator, apply_flip,
                               bccb_eigenvalues, load_psf, save_psf)
from kryblur.preconditioners import circulant_abs_tikhonov, circulant_sqrt
from kryblur.problems import (
    ExperimentConfig,
    edges_image,
    load_image,
    make_gaussian_psf,
    make_motion_psf,
    make_problem,
    make_two_motion_psf,
    natural_scene,
    parse_config,
    parse_method_label,
    phantom,
    read_pgm,
    run_experiment,
    star_field,
    write_pgm,
)

from oracles import motion_psf_stepped


# ---------------------------------------------------------------------------
# PSF generators


def test_gaussian_psf_support_one_is_delta():
    psf = make_gaussian_psf(1, 2.0)
    np.testing.assert_array_equal(psf.kernel, np.array([[1.0]]))
    assert psf.center == (0, 0)


def test_gaussian_psf_normalized_and_symmetric():
    psf = make_gaussian_psf(9, 2.0)
    assert abs(psf.kernel.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(psf.kernel, psf.kernel[::-1, :], rtol=0.0, atol=0.0)
    np.testing.assert_allclose(psf.kernel, psf.kernel[:, ::-1], rtol=0.0, atol=0.0)
    assert psf.center == (4, 4)


def test_gaussian_psf_validation():
    with pytest.raises(ValueError, match="odd"):
        make_gaussian_psf(4, 2.0)
    with pytest.raises(ValueError, match="odd"):
        make_gaussian_psf(0, 2.0)
    with pytest.raises(ValueError, match="std"):
        make_gaussian_psf(3, 0.0)


def test_motion_psf_length_one_is_delta():
    psf = make_motion_psf(1, 77.0)
    np.testing.assert_array_equal(psf.kernel, np.array([[1.0]]))


def test_motion_psf_axis_aligned():
    psf = make_motion_psf(5, 0.0)
    assert psf.kernel.shape[0] == 1
    row = psf.kernel.ravel()
    np.testing.assert_allclose(row[row > 0], 0.2, rtol=0.0, atol=1e-15)
    assert np.count_nonzero(row) == 5
    assert psf.kernel[psf.center] > 0.0  # the smear passes through the center


def test_motion_psf_diagonal_is_not_centrally_symmetric():
    psf = make_motion_psf(7, 45.0)
    assert not psf.centrally_symmetric
    assert abs(psf.kernel.sum() - 1.0) <= 1e-12


def test_two_motion_psf_combines_directions():
    psf = make_two_motion_psf(7, 45.0, 135.0)
    assert abs(psf.kernel.sum() - 1.0) <= 1e-12
    assert not psf.centrally_symmetric
    single = make_motion_psf(7, 45.0)
    assert np.count_nonzero(psf.kernel) > np.count_nonzero(single.kernel)


@pytest.mark.parametrize("length", [1, 2, 5, 9, 16])
def test_two_motion_psf_with_one_angle_twice_is_the_motion_psf(length):
    for angle in (0.0, 30.0, 45.0, 77.0, 90.0, 135.0, 200.0, -60.0):
        twice, once = make_two_motion_psf(length, angle, angle), make_motion_psf(length, angle)
        np.testing.assert_array_equal(twice.kernel, once.kernel)
        assert twice.center == once.center


def test_motion_psf_matches_the_stepped_rasterizer():
    # bit for bit, over every integer angle and the second angles of the
    # experiments (90 and 135 degrees)
    for length in (*range(1, 13), 16, 23, 32):
        for angle in range(-180, 360):
            psf = make_motion_psf(length, angle)
            kernel, center = motion_psf_stepped(length, (angle,))
            assert psf.center == center and psf.kernel.shape == kernel.shape
            assert psf.kernel.tobytes() == kernel.tobytes(), (length, angle)
            if angle % 5 == 0:
                for angle2 in (90, 135):
                    psf = make_two_motion_psf(length, angle, angle2)
                    kernel, center = motion_psf_stepped(length, (angle, angle2))
                    assert psf.center == center and psf.kernel.shape == kernel.shape
                    assert psf.kernel.tobytes() == kernel.tobytes(), (length, angle, angle2)


@pytest.mark.parametrize("angle", [math.nan, math.inf], ids=["nan", "inf"])
def test_motion_psf_refuses_non_finite_angle(angle):
    with pytest.raises(ValueError, match="motion angles must be finite"):
        make_motion_psf(5, angle)
    with pytest.raises(ValueError, match="motion angles must be finite"):
        make_two_motion_psf(5, 30.0, angle)


# ---------------------------------------------------------------------------
# images


def test_builtin_images_shapes_and_ranges():
    for maker in (phantom, edges_image):
        img = maker(32)
        assert img.shape == (32, 32)
        assert np.all(np.isfinite(img))
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.max() == 1.0


def test_star_field_sparse_and_seeded():
    img = star_field(32, seed=1)
    assert img.shape == (32, 32)
    assert img.max() == 1.0 and img.min() >= 0.0
    assert np.mean(img > 0.0) < 0.5  # mostly dark
    np.testing.assert_array_equal(img, star_field(32, seed=1))
    assert not np.array_equal(img, star_field(32, seed=2))


def test_natural_scene_smooth_and_seeded():
    img = natural_scene(64, seed=7)
    assert img.shape == (64, 64)
    assert img.min() == 0.0 and img.max() == 1.0
    np.testing.assert_array_equal(img, natural_scene(64, seed=7))
    # smooth: neighboring pixels are strongly correlated
    diffs = np.abs(np.diff(img, axis=0)).mean()
    assert diffs < 0.1


# ---------------------------------------------------------------------------
# noise model


def test_make_problem_zero_sigma_exact():
    psf = make_gaussian_psf(5, 1.0)
    x = phantom(16)
    prob = make_problem(x, psf, "zero", 0.0, 3)
    np.testing.assert_array_equal(prob.b, prob.operator.apply(x))
    assert prob.noise_norm == 0.0


def test_make_problem_noise_norm_exact():
    psf = make_gaussian_psf(5, 1.0)
    for sigma in (0.01, 0.05, 0.1):
        for bc in ("zero", "periodic", "reflective"):
            for n in (16, 24):
                x = phantom(n)
                prob = make_problem(x, psf, bc, sigma, 11)
                blurred = prob.operator.apply(x)
                want = sigma * np.linalg.norm(blurred)
                got = np.linalg.norm(prob.b - blurred)
                assert abs(got - want) <= 1e-12 * max(want, 1.0)
                assert prob.noise_norm == want


def test_make_problem_seed_determinism():
    psf = make_gaussian_psf(5, 1.0)
    x = phantom(16)
    a = make_problem(x, psf, "zero", 0.05, 42)
    b = make_problem(x, psf, "zero", 0.05, 42)
    assert a.b.tobytes() == b.b.tobytes()
    c = make_problem(x, psf, "zero", 0.05, 43)
    assert a.b.tobytes() != c.b.tobytes()


@pytest.mark.parametrize("sigma", [math.nan, math.inf], ids=["nan", "inf"])
def test_make_problem_refuses_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        make_problem(np.ones((4, 4)), make_gaussian_psf(3, 1.0), "zero", sigma, 1)


def test_make_problem_validation():
    psf = make_gaussian_psf(3, 1.0)
    with pytest.raises(ValueError, match="square"):
        make_problem(np.ones((4, 5)), psf, "zero", 0.1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        make_problem(np.ones((4, 4)), psf, "zero", -0.1, 1)
    with pytest.raises(ValueError, match="finite"):
        make_problem(np.full((4, 4), np.nan), psf, "zero", 0.1, 1)


# ---------------------------------------------------------------------------
# metrics


def _err2(x, x_true):
    err = np.ravel(x - x_true)
    return float(np.dot(err, err))


def _rre(x, x_true):
    return rre_from_error(_err2(x, x_true), float(np.linalg.norm(x_true)))


def _psnr(x, x_true):
    return psnr_from_error(_err2(x, x_true), float(x_true.max()), x_true.size)


def test_rre_examples():
    x_true = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert _rre(x_true, x_true) == 0.0
    assert abs(_rre(np.zeros((2, 2)), x_true) - 1.0) <= 1e-15
    assert abs(_rre(2.0 * x_true, x_true) - 1.0) <= 1e-15


def test_rre_zero_truth_rejected():
    with pytest.raises(ValueError, match="zero"):
        _rre(np.ones((2, 2)), np.zeros((2, 2)))


def test_psnr_zero_db_case():
    # error energy equal to peak^2 * npixels gives exactly 0 dB
    x_true = np.ones((2, 2))
    assert abs(_psnr(np.zeros((2, 2)), x_true)) <= 1e-12


def test_psnr_halving_error_adds_six_db():
    x_true = phantom(16)
    err = np.random.default_rng(0).standard_normal((16, 16))
    a = _psnr(x_true + err, x_true)
    b = _psnr(x_true + 0.5 * err, x_true)
    assert abs((b - a) - 6.0206) <= 1e-3


def test_psnr_perfect_reconstruction_is_infinite():
    x_true = phantom(8)
    assert _psnr(x_true.copy(), x_true) == math.inf


def test_rre_psnr_monotone_opposites():
    x_true = phantom(16)
    rng = np.random.default_rng(5)
    pairs = []
    for scale in (0.01, 0.05, 0.2, 1.0):
        x = x_true + scale * rng.standard_normal((16, 16))
        pairs.append((_rre(x, x_true), _psnr(x, x_true)))
    pairs.sort()
    rres = [p[0] for p in pairs]
    psnrs = [p[1] for p in pairs]
    assert rres == sorted(rres)
    assert psnrs == sorted(psnrs, reverse=True)


# ---------------------------------------------------------------------------
# PGM files


def test_pgm_round_trip(tmp_path):
    img = phantom(16)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    lo, hi = img.min(), img.max()
    normalized = (img - lo) / (hi - lo)
    assert np.abs(back - normalized).max() <= 8e-6  # 16-bit quantization


def test_pgm_constant_image(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((4, 4), 0.7))
    back = read_pgm(path)
    assert back.shape == (4, 4)
    assert np.all(np.isfinite(back))


def test_pgm_reads_ascii_variant(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# comment line\n2 2\n255\n0 128\n255 64\n")
    img = read_pgm(path)
    np.testing.assert_allclose(img, np.array([[0.0, 128.0], [255.0, 64.0]]) / 255.0,
                               rtol=0.0, atol=1e-12)


def test_pgm_skips_comments_and_reads_p5_bytes_after_one_whitespace(tmp_path):
    # the byte after maxval ends the header, so pixel bytes that look like
    # whitespace or a comment are data
    path = tmp_path / "comments.pgm"
    path.write_bytes(b"# lead\nP5 # magic\n#\n2\t# width\r\n1\x0b255\n #\x05")
    np.testing.assert_array_equal(read_pgm(path), np.array([[32.0, 35.0]]) / 255.0)


@pytest.mark.parametrize("data, message", [
    (b"P7\n2 2\n255\n\x00\x01\x02\x03", r"not a PGM file \(magic b'P7'\)"),
    (b"P5\n2 2\n", "malformed PGM header"),
    (b"P2\n2 2\n# maxval runs into a comment to the end of the file", "malformed PGM header"),
    (b"P5\n2 2\n0\n\x00\x00\x00\x00", "malformed PGM header"),
    (b"P2\n2 2\n255\n0 1 2\n# the fourth pixel is a comment 3\n", "expected 4 pixels, got 3"),
    (b"P5\n2 2\n65535\n\x00\x01\x00\x02\x00\x03\x00", "truncated pixel data"),
    (b"P2\n2 1\n255\n300 -5\n", r"pixel values outside 0\.\.255"),
    (b"P2\n2 1\n255\n3 zz\n", r"malformed pixel value \(.*b'zz'"),
    (b"P5\n2 1\n100\n\x64\x65", r"pixel values outside 0\.\.100"),
    (b"P5\n2 1\n1000\n\x03\xe8\x03\xe9", r"pixel values outside 0\.\.1000"),
], ids=["bad-magic", "short-header", "comment-to-eof", "zero-maxval", "p2-count",
        "truncated-p5", "p2-out-of-range", "p2-non-numeric", "p5-above-maxval",
        "p5-16-bit-above-maxval"])
def test_read_pgm_refuses_malformed(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message) as refused:
        read_pgm(path)
    assert str(refused.value).startswith(f"{path}: ")  # names the file


def test_load_image_pgm(tmp_path):
    img = phantom(8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    loaded = load_image(path)
    assert loaded.shape == (8, 8)


# ---------------------------------------------------------------------------
# method labels


def test_parse_method_label_table_rows():
    cases = {
        "A LSQR": (False, False, False, "LSQR"),
        "AP LSQR": (False, True, False, "LSQR"),
        "A FLSQR": (False, False, False, "FLSQR"),
        "AP FLSQR": (False, True, False, "FLSQR"),
        "AW FLSQR": (False, False, True, "FLSQR"),
        "APW FLSQR": (False, True, True, "FLSQR"),
        "A GMRES": (False, False, False, "GMRES"),
        "YA GMRES": (True, False, False, "GMRES"),
        "YAP FGMRES": (True, True, False, "FGMRES"),
        "YAW FGMRES": (True, False, True, "FGMRES"),
        "YAPW FGMRES": (True, True, True, "FGMRES"),
        "YA MINRES": (True, False, False, "MINRES"),
        "YAP MINRES": (True, True, False, "MINRES"),
    }
    for label, (flip, prec, weights, solver) in cases.items():
        spec = parse_method_label(label)
        assert (spec.flip, spec.prec, spec.weights, spec.solver) == (
            flip, prec, weights, solver), label


def test_parse_method_label_refusals():
    with pytest.raises(ValueError, match="flexible"):
        parse_method_label("AW GMRES")
    with pytest.raises(ValueError, match="least-squares"):
        parse_method_label("YA LSQR")
    with pytest.raises(ValueError, match="symmetrized"):
        parse_method_label("A MINRES")
    with pytest.raises(ValueError, match="unknown method label"):
        parse_method_label("B GMRES")
    with pytest.raises(ValueError, match="unknown method label"):
        parse_method_label("YA CG")


# ---------------------------------------------------------------------------
# config files


def _write_config(path, **overrides):
    defaults = {
        "image": "phantom",
        "n": 24,
        "psf": "gaussian",
        "psf_support": 5,
        "psf_std": 1.0,
        "bc": "zero",
        "sigma": 0.05,
        "seed": 42,
        "methods": "A GMRES",
        "outdir": str(path.parent / "out"),
        "max_iter": 12,
    }
    defaults.update(overrides)
    lines = [f"{k} = {v}" for k, v in defaults.items() if v is not None]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_config_round_trip(tmp_path):
    cfgfile = _write_config(tmp_path / "exp.cfg", methods="A GMRES, YA MINRES",
                            alpha0=0.2, q=0.9, eta=1.05)
    cfg = parse_config(cfgfile)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.image == "phantom" and cfg.n == 24
    assert cfg.bc is BoundaryCondition.ZERO
    assert cfg.sigma == 0.05 and cfg.seed == 42
    assert cfg.methods == ("A GMRES", "YA MINRES")
    assert cfg.alpha0 == 0.2 and cfg.q == 0.9
    assert cfg.eta == 1.05 and cfg.max_iter == 12


def test_parse_config_comments_and_blank_lines(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\nimage = phantom\nn = 16\n\npsf = gaussian  # default std\n"
        "bc = zero\nsigma = 0.0\nseed = 1\nmethods = A GMRES\noutdir = "
        + str(tmp_path / "out") + "\n"
    )
    cfg = parse_config(path)
    assert cfg.n == 16 and cfg.sigma == 0.0


def test_parse_config_errors(tmp_path):
    with pytest.raises(ValueError, match="missing config key: image"):
        parse_config(_write_config(tmp_path / "a.cfg", image=None))
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(_write_config(tmp_path / "b.cfg", nonsense="1"))
    with pytest.raises(ValueError, match="psf"):
        parse_config(_write_config(tmp_path / "c.cfg", psf="boxcar"))
    with pytest.raises(ValueError, match="sigma"):
        parse_config(_write_config(tmp_path / "d.cfg", sigma=-0.5))
    with pytest.raises(ValueError, match="method"):
        parse_config(_write_config(tmp_path / "e.cfg", methods="A NEWTON"))
    with pytest.raises(ValueError, match="duplicate"):
        path = tmp_path / "f.cfg"
        _write_config(path)
        path.write_text(path.read_text() + "seed = 43\n")
        parse_config(path)
    with pytest.raises(ValueError, match="expected 'key = value'"):
        path = tmp_path / "g.cfg"
        path.write_text("image phantom\n")
        parse_config(path)
    with pytest.raises(ValueError, match=r"n \(required"):
        parse_config(_write_config(tmp_path / "h.cfg", n=None))
    with pytest.raises(ValueError, match="config key eta"):
        parse_config(_write_config(tmp_path / "i.cfg", eta=0.99))
    with pytest.raises(ValueError, match="config key seed: invalid literal for int"):
        parse_config(_write_config(tmp_path / "j.cfg", seed="abc"))
    with pytest.raises(ValueError, match="config key sigma: could not convert"):
        parse_config(_write_config(tmp_path / "k.cfg", sigma="x"))
    with pytest.raises(ValueError, match="config key max_iter must be at least 1"):
        parse_config(_write_config(tmp_path / "l.cfg", max_iter=0))
    with pytest.raises(ValueError, match="config key bc: unknown boundary"):
        parse_config(_write_config(tmp_path / "m.cfg", bc="antireflective"))
    # q = 1 is the stationary schedule; there is no separate switch
    with pytest.raises(ValueError, match="unknown config key stationary_alpha"):
        parse_config(_write_config(tmp_path / "o.cfg", stationary_alpha="true"))
    # q and alpha0 are checked for every config, also where no label reads them
    with pytest.raises(ValueError, match=r"config key q must lie in \(0, 1\], got 2.0"):
        parse_config(_write_config(tmp_path / "p.cfg", methods="AP GMRES", q=2))
    with pytest.raises(ValueError, match="config key alpha0 must be nonnegative, got -1.0"):
        parse_config(_write_config(tmp_path / "r.cfg", alpha0=-1))
    # a repeated label would solve twice into one directory
    with pytest.raises(ValueError, match="config key methods: lists method label 'A GMRES' twice"):
        parse_config(_write_config(tmp_path / "s.cfg", methods="A GMRES, YA MINRES, A GMRES"))


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(k for k, t in problems._CONFIG_TYPES.items() if t is float))
def test_parse_config_refuses_non_finite_floats(tmp_path, key, value):
    with pytest.raises(ValueError, match=f"config key {key} must be finite, got {value}"):
        parse_config(_write_config(tmp_path / "exp.cfg", **{key: value}))


def test_parse_config_psf_file(tmp_path):
    psf_path = tmp_path / "kernel.psf"
    save_psf(make_gaussian_psf(3, 1.0), psf_path)
    cfg = parse_config(_write_config(tmp_path / "exp.cfg", psf=f"file:{psf_path}"))
    assert cfg.psf == f"file:{psf_path}"


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_sigma_zero_delta_psf_converges_immediately(tmp_path):
    cfgfile = _write_config(tmp_path / "exp.cfg", psf_support=1, sigma=0.0,
                            max_iter=3)
    runs = run_experiment(parse_config(cfgfile))
    assert len(runs) == 1
    assert runs[0].record.rre[0] <= 1e-10


def test_run_experiment_artifacts_and_histories(tmp_path):
    cfgfile = _write_config(
        tmp_path / "exp.cfg",
        methods="A GMRES, YA MINRES, AP GMRES, YAPW FGMRES",
        alpha0=0.1, q=0.8,
    )
    cfg = parse_config(cfgfile)
    runs = run_experiment(cfg)
    assert [r.label for r in runs] == ["A GMRES", "YA MINRES", "AP GMRES", "YAPW FGMRES"]

    for run in runs:
        rec = run.record
        assert rec.iterations == 12
        assert run.best_rre == min(rec.rre)
        assert run.best_iter == int(np.argmin(rec.rre)) + 1
        if run.dp_iter is not None:
            assert rec.rre[run.dp_iter - 1] == run.dp_rre

        directory = run.directory
        assert (directory / "history.csv").is_file()
        assert (directory / "best.pgm").is_file()
        assert (directory / "summary.txt").is_file()
        assert (directory / "dp.pgm").is_file() == (run.dp_iter is not None)

        lines = (directory / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,res_norm,rre,psnr,alpha"
        assert len(lines) == 1 + rec.iterations
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == rec.res_norm[0]
        assert float(first[2]) == rec.rre[0]

        summary = (directory / "summary.txt").read_text()
        assert f"method: {run.label}" in summary
        assert "operator applications:" in summary
        assert "wall time:" in summary

    by_label = {r.label: r for r in runs}
    plain = by_label["A GMRES"]
    hist = (plain.directory / "history.csv").read_text().splitlines()[1:]
    assert all(row.endswith(",") for row in hist)  # blank alpha column

    stationary = by_label["AP GMRES"]
    hist = (stationary.directory / "history.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[4]) == cfg.alpha0 for row in hist)

    flex = by_label["YAPW FGMRES"]
    hist = (flex.directory / "history.csv").read_text().splitlines()[1:]
    alphas = [float(row.split(",")[4]) for row in hist]
    assert alphas == [cfg.alpha0 * cfg.q ** k for k in range(len(alphas))]


def _alpha_column(run):
    rows = (run.directory / "history.csv").read_text().splitlines()[1:]
    return [row.split(",")[4] for row in rows]


def test_run_experiment_pgm_image_psf_file_and_minres_labels_match_direct_calls(tmp_path):
    # an image and a PSF read from files, both MINRES plans and a flexible
    # label with neither P nor W, each against the solver called by hand
    image, kernel = tmp_path / "scene.pgm", tmp_path / "kernel.psf"
    write_pgm(image, phantom(16))
    save_psf(make_two_motion_psf(3, 30.0, 120.0), kernel)
    cfg = parse_config(_write_config(tmp_path / "exp.cfg", image=str(image), n=16,
                                     psf=f"file:{kernel}",
                                     methods="YA MINRES, YAP MINRES, A FGMRES"))
    runs = {run.label: run for run in run_experiment(cfg)}

    problem = make_problem(read_pgm(image), load_psf(kernel), "zero", cfg.sigma, cfg.seed)
    rule = solvers.StoppingRule(max_iter=cfg.max_iter, eta=cfg.eta,
                                noise_norm=problem.noise_norm)
    flipped, rhs = FlipComposedOperator(problem.operator), apply_flip(problem.b)
    p_half = circulant_sqrt(circulant_abs_tikhonov(bccb_eigenvalues(load_psf(kernel), 16),
                                                   cfg.alpha0))
    direct = {
        "YA MINRES": solvers.minres(flipped, rhs, rule, problem.x_true),
        "YAP MINRES": solvers.minres_sym_prec(flipped, rhs, p_half, rule, problem.x_true),
        "A FGMRES": solvers.fgmres(problem.operator, problem.b, None, rule, problem.x_true),
    }
    assert list(runs) == list(direct)
    for label, want in direct.items():
        got = runs[label].record
        assert (got.res_norm, got.rre, got.psnr) == (want.res_norm, want.rre, want.psnr), label
        assert (got.stop_reason, got.n_ops) == (want.stop_reason, want.n_ops), label
    assert _alpha_column(runs["YAP MINRES"]) == ["0.1"] * cfg.max_iter
    assert _alpha_column(runs["A FGMRES"]) == [""] * cfg.max_iter


def test_run_experiment_q_one_keeps_alpha_constant(tmp_path):
    # q = 1 is the stationary schedule: every flexible step reports alpha0
    cfg = parse_config(_write_config(tmp_path / "q1.cfg", methods="YAP FGMRES, AP FLSQR",
                                     alpha0=0.05, q=1))
    for run in run_experiment(cfg):
        assert _alpha_column(run) == ["0.05"] * run.record.iterations
    # a stationary label with alpha0 = 0 builds no schedule, so it still runs
    cfg = parse_config(_write_config(tmp_path / "a0.cfg", methods="AP GMRES", alpha0=0.0,
                                     outdir=str(tmp_path / "out0")))
    (run,) = run_experiment(cfg)
    assert _alpha_column(run) == ["0.0"] * run.record.iterations


def test_run_experiment_alpha0_zero_runs_a_flexible_label_without_p(tmp_path):
    # only flexible P labels build a schedule, which needs alpha0 > 0
    cfg = parse_config(_write_config(tmp_path / "aw.cfg", methods="AW FGMRES", alpha0=0.0))
    (run,) = run_experiment(cfg)
    assert _alpha_column(run) == [""] * run.record.iterations


@pytest.mark.parametrize("methods, evaluations", [("AW FGMRES, A GMRES", 0),
                                                  ("YAPW FGMRES, AP GMRES", 1)])
def test_run_experiment_evaluates_the_symbol_once_for_p_labels(tmp_path, monkeypatch,
                                                               methods, evaluations):
    calls = []
    evaluate = problems.bccb_eigenvalues

    def counting(psf, n):
        calls.append(n)
        return evaluate(psf, n)

    monkeypatch.setattr(problems, "bccb_eigenvalues", counting)
    run_experiment(parse_config(_write_config(tmp_path / "exp.cfg", methods=methods)))
    assert calls == [24] * evaluations


def test_run_experiment_deterministic_artifacts(tmp_path):
    # 20 steps: the threshold is met mid-run (step 16), so dp.pgm is written
    cfg_a = parse_config(_write_config(tmp_path / "a.cfg",
                                       outdir=str(tmp_path / "out_a"),
                                       methods="YA MINRES", max_iter=20))
    cfg_b = parse_config(_write_config(tmp_path / "b.cfg",
                                       outdir=str(tmp_path / "out_b"),
                                       methods="YA MINRES", max_iter=20))
    (run_a,) = run_experiment(cfg_a)
    (run_b,) = run_experiment(cfg_b)
    assert run_a.dp_iter is not None and run_a.dp_iter < run_a.record.iterations
    for name in ("history.csv", "best.pgm", "dp.pgm"):
        assert (run_a.directory / name).read_bytes() == (run_b.directory / name).read_bytes()


def test_run_experiment_refuses_minres_reflective_nonsymmetric(tmp_path):
    cfgfile = _write_config(tmp_path / "exp.cfg", psf="motion",
                            psf_length=5, psf_angle=30.0, bc="reflective",
                            methods="YA MINRES")
    with pytest.raises(ValueError, match="MINRES does not apply"):
        run_experiment(parse_config(cfgfile))


def test_run_experiment_dp_matches_threshold_crossing(tmp_path):
    cfgfile = _write_config(tmp_path / "exp.cfg", methods="A GMRES", max_iter=20)
    cfg = parse_config(cfgfile)
    (run,) = run_experiment(cfg)
    prob_noise = 0.05  # sigma from _write_config defaults
    # recompute the threshold exactly as the harness does
    from kryblur.problems import make_problem as _mp
    prob = _mp(phantom(24), make_gaussian_psf(5, 1.0), "zero", prob_noise, 42)
    threshold = cfg.eta * prob.noise_norm
    res = run.record.res_norm
    expected = next((i + 1 for i, v in enumerate(res) if v <= threshold), None)
    assert run.dp_iter == expected
    assert run.dp_iter is not None
    assert all(v > threshold for v in res[: run.dp_iter - 1])
