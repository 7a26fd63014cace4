"""Package-wide structure: what each module exports."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields

import pytest

import kryblur
from kryblur.problems import ExperimentConfig

MODULES = sorted(f"kryblur.{info.name}" for info in pkgutil.iter_modules(kryblur.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_and_are_defined_in_place(name):
    # every name in __all__ exists, and none is a re-export of something
    # another kryblur module defines (an alias with two homes)
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        home = getattr(getattr(module, attr), "__module__", name)
        assert home == name or not home.startswith("kryblur"), (
            f"{name}.{attr} is defined in {home}"
        )


def test_runtime_loads_no_scipy_linalg():
    # numpy's BLAS and LAPACK are the only ones called: a second BLAS with a
    # thread pool of its own, called between numpy's, slows the short
    # recurrences several-fold when threads are not pinned.  A fresh
    # interpreter, since the test run imports scipy itself.
    code = ("import sys, kryblur.cli, kryblur.spectral; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    src = os.path.dirname(os.path.dirname(kryblur.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.strip()
    assert out == "[]", f"scipy.linalg modules loaded at run time: {out}"


def test_benchmark_selftest_passes():
    # the benchmark's tracer and layer split read names in kryblur (the
    # preconditioner classes, SolveRecord fields, the solvers' entry points):
    # its self-test on tiny inputs fails when a change removes one of them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          capture_output=True, text=True, cwd=root, timeout=300)
    assert proc.returncode == 0 and "selftest: ok" in proc.stdout, (
        f"perfbench selftest exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")


def test_readme_config_block_lists_every_config_key():
    # the keys of README's ini block (commented-out defaults included) are
    # exactly the fields of ExperimentConfig: a knob dropped or added without
    # its line fails here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    keys = [re.match(r"#?\s*(\w+)\s*=", line).group(1) for line in block.splitlines()]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
