"""End-to-end command-line interface tests (all in-process, one subprocess)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kryblur
from kryblur import __version__
from kryblur.cli import main, parse_psf_spec
from kryblur.problems import read_pgm


def _write_run_config(tmp_path, **overrides):
    values = {
        "image": "phantom",
        "n": 24,
        "psf": "gaussian",
        "psf_support": 5,
        "psf_std": 1.0,
        "bc": "zero",
        "sigma": 0.05,
        "seed": 42,
        "methods": "YA MINRES",
        "outdir": str(tmp_path / "out"),
        "max_iter": 10,
    }
    values.update(overrides)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()
                            if v is not None))
    return path


# ---------------------------------------------------------------------------
# psf specs


def test_parse_psf_spec_forms(tmp_path):
    assert parse_psf_spec("gaussian:5:1.5").shape == (5, 5)
    assert parse_psf_spec("motion:5:0").shape[0] == 1
    two = parse_psf_spec("motion2:5:45:135")
    assert not two.centrally_symmetric

    from kryblur.operators import save_psf
    from kryblur.problems import make_gaussian_psf

    path = tmp_path / "k.psf"
    save_psf(make_gaussian_psf(3, 1.0), path)
    assert parse_psf_spec(f"file:{path}").shape == (3, 3)

    for bad in ("gaussian:5", "boxcar:3:1", "motion:x:0", "file:"):
        with pytest.raises(ValueError, match="PSF spec"):
            parse_psf_spec(bad)


# ---------------------------------------------------------------------------
# version


def test_version_prints_semantic_version(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == __version__
    parts = out.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_console_entry_point_runs_in_subprocess():
    # the child imports the same package as this process, also when pytest
    # put it on the path through its ``pythonpath`` setting
    src = str(Path(kryblur.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "kryblur.cli", "version"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_emits_256_eigenvalues_and_report(capsys, tmp_path):
    out = tmp_path / "eigs.csv"
    code = main(["spectrum", "--psf", "gaussian:9:2", "--n", "16",
                 "--eps", "0.1", "--delta", "0.2", "--out", str(out)])
    assert code == 0
    eigs = [float(line) for line in out.read_text().splitlines()]
    assert len(eigs) == 256
    report = capsys.readouterr().out
    counts = {}
    for line in report.splitlines():
        key, _, value = line.partition(":")
        counts[key.strip()] = value.strip()
    total = (int(counts["near_plus_one"]) + int(counts["near_minus_one"])
             + int(counts["noise_band"]) + int(counts["outliers"]))
    assert total == 256
    assert counts["total"] == "256"


def test_spectrum_to_stdout(capsys):
    code = main(["spectrum", "--psf", "gaussian:5:2", "--n", "8",
                 "--eps", "0.1", "--delta", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "outlier_fraction:" in out
    values = [line for line in out.splitlines() if line and ":" not in line]
    assert len(values) == 64


# ---------------------------------------------------------------------------
# symbol


def test_symbol_emits_magnitude_grid(capsys, tmp_path):
    out = tmp_path / "symbol.csv"
    code = main(["symbol", "--psf", "motion:5:0", "--n", "8", "--out", str(out)])
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()]
    grid = np.array(rows)
    assert grid.shape == (8, 8)
    assert abs(grid[0, 0] - 1.0) <= 1e-12  # normalized PSF: |f(0,0)| = 1
    assert grid.min() >= 0.0


def test_symbol_stdout_matches_file_output(capsys, tmp_path):
    out = tmp_path / "symbol.csv"
    assert main(["symbol", "--psf", "gaussian:3:1", "--n", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["symbol", "--psf", "gaussian:3:1", "--n", "4"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == out.read_text().strip()


# ---------------------------------------------------------------------------
# run


def test_run_end_to_end(capsys, tmp_path):
    cfg = _write_run_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "YA MINRES: best iter" in out
    outdir = tmp_path / "out"
    (method_dir,) = list(outdir.iterdir())
    assert (method_dir / "history.csv").is_file()
    img = read_pgm(method_dir / "best.pgm")
    assert img.shape == (24, 24)


def test_run_idempotent_byte_identical(capsys, tmp_path):
    cfg = _write_run_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    outdir = tmp_path / "out"
    (method_dir,) = list(outdir.iterdir())
    first = {p.name: p.read_bytes() for p in method_dir.iterdir()
             if p.name != "summary.txt"}  # summary embeds wall time
    assert main(["run", "--config", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in method_dir.iterdir()
              if p.name != "summary.txt"}
    assert first == second
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_exits_one(capsys, tmp_path):
    code = main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert code == 1
    assert "missing.cfg" in capsys.readouterr().err


def test_config_validation_error_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("image = phantom\n")  # everything else missing
    code = main(["run", "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing config key" in err


def test_unknown_flag_exits_one(capsys):
    assert main(["spectrum", "--psf", "gaussian:3:1", "--n", "8",
                 "--eps", "0.1", "--delta", "0.2", "--bogus", "1"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_psf_spec_exits_one(capsys):
    code = main(["symbol", "--psf", "boxcar:3", "--n", "8"])
    assert code == 1
    assert "PSF spec" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, error", [
    ({"image": "edges", "psf": "motion2", "psf_length": 9, "psf_angle": 45,
      "psf_angle2": 135, "bc": "reflective", "methods": "YA GMRES, YA MINRES"},
     "'YA MINRES': .* MINRES does not apply"),
    ({"methods": "YA GMRES, YAP GMRES", "alpha0": 0},
     "'YAP GMRES': alpha must be positive"),
    ({"methods": "A GMRES, A GMRES"}, "config key methods: lists method label 'A GMRES' twice"),
], ids=["minres-on-reflective-motion2", "yap-gmres-with-alpha0-zero", "repeated-label"])
def test_run_refuses_a_bad_label_before_any_solve(capsys, tmp_path, overrides, error):
    # the first label could run; the whole config is checked before it does
    cfg = _write_run_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg)]) == 1
    assert re.search(error, capsys.readouterr().err)
    assert list((tmp_path / "out").glob("*")) == []


def test_runtime_error_exits_two(capsys, tmp_path):
    # an image path that exists but is a directory fails deep inside the run,
    # past argument validation: exit code 2
    trap = tmp_path / "img.pgm"
    trap.mkdir()
    cfg = _write_run_config(tmp_path, image=str(trap), n=None)
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err != ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "deblurring" in capsys.readouterr().out
