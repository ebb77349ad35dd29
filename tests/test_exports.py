"""Every name a module exports exists, so a deletion cannot leave a stale
entry in an __all__ list."""

import importlib
import pkgutil

import pytest

import dtldesign

MODULES = ["dtldesign"] + [f"dtldesign.{m.name}"
                           for m in pkgutil.iter_modules(dtldesign.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports), name
    missing = [n for n in exports if not hasattr(module, n)]
    assert not missing, (name, missing)
