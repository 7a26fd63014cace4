"""Package-wide structure: what each module exports."""

import importlib
import pkgutil

import pytest

import kryblur

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
