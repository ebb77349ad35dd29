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


def _private_module_names(tree: ast.Module) -> list[str]:
    """Module-level `_name` functions, classes and assigned constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_read_in_src():
    """A private helper or constant that nothing in src/ reads is dead code
    (say, one left behind after its only call was inlined)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in (ROOT / "src" / "dtldesign").rglob("*.py")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{n}" for path, tree in trees.items()
              for n in _private_module_names(tree) if n not in read]
    assert not unread
