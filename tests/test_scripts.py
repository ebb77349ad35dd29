"""Smoke runs of the scripts under scripts/ on the bundled config."""

import importlib.util
from pathlib import Path

import pytest

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


def test_type1_sweep_reads_a_config_with_a_byte_order_mark(tmp_path,
                                                           capsys):
    text = (SCRIPTS.parent / "configs" / "poptarts.cfg").read_text(
        encoding="utf-8")
    path = tmp_path / "bom.cfg"
    path.write_text("\ufeff" + text, encoding="utf-8")
    sweep = _load("type1_sweep")
    assert sweep.main(["--config", str(path), "--points", "2",
                       "--reps", "2000"]) == 0
    assert "design: n=206/arm/stage" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--points", "0"], ["--points", "1"],
                                  ["--reps", "0"], ["--reps", "-5"]])
def test_type1_sweep_refuses_a_vacuous_lattice(argv, capsys):
    # refused by argparse before any design or simulation runs
    sweep = _load("type1_sweep")
    with pytest.raises(SystemExit) as exc:
        sweep.main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--show", "-1"]])
def test_type1_sweep_refuses_a_negative_seed_or_count(argv, capsys):
    # refused by argparse before the design runs; a negative --show would
    # silently drop the last points from the listing
    sweep = _load("type1_sweep")
    with pytest.raises(SystemExit) as exc:
        sweep.main(argv)
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err
