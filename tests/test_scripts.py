"""Smoke runs of the scripts under scripts/ on the bundled config."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_type1_sweep_designs_and_passes(capsys):
    sweep = _load("type1_sweep")
    assert sweep.main(["--points", "2", "--reps", "2000"]) == 0
    out = capsys.readouterr().out
    assert "design: n=206/arm/stage" in out
    assert "8 lattice points, 2000 replicates each" in out
    assert "all points within alpha + 4 SE" in out
