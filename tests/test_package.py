"""Package-level checks."""

import importlib
import pkgutil

import pytest

import fiberae

# __main__ runs the command line on import
MODULES = [m.name for m in pkgutil.iter_modules(fiberae.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fiberae.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
