"""Every name a module exports exists, so a deletion cannot leave a stale
entry in an __all__ list, and the program outside the tests uses it, so an
export cannot survive as a second path that only tests take."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dtldesign

MODULES = ["dtldesign"] + [f"dtldesign.{m.name}"
                           for m in pkgutil.iter_modules(dtldesign.__path__)]
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports), name
    missing = [n for n in exports if not hasattr(module, n)]
    assert not missing, (name, missing)


def _names_used_outside_tests() -> set[str]:
    """Names read as a name or an attribute in src/, scripts/ and
    benchmark/*.py (an import or a definition is not a use), plus every
    string in benchmark/spans.py, which looks its layers up by name."""
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "benchmark").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
    spans = ast.parse((ROOT / "benchmark" / "spans.py").read_text(
        encoding="utf-8"))
    used.update(node.value for node in ast.walk(spans)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str))
    return used


def test_no_export_only_tests_use():
    used = _names_used_outside_tests()
    unused = [f"{name}.{n}" for name in MODULES[1:]
              for n in getattr(importlib.import_module(name), "__all__", [])
              if n not in used]
    assert not unused
