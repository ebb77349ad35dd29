"""Config parsing, command plumbing, and report determinism."""

import ast
import json
import math
import warnings
from pathlib import Path

import pytest

from dtldesign import calibrate, characteristics, cli
from dtldesign.calibrate import CalibrationConfig
from dtldesign.cli import ParseError, RunConfig, parse_config, run
from dtldesign.covariance import TrialDesign
from dtldesign.endpoint import BinaryEndpointSpec, NormalEffectSpec

ROOT = Path(__file__).resolve().parent.parent
K3_RECORD = ROOT / "benchmark" / "inputs" / "design_k3.json"
MOTIVATING = """\
[design]
arms = 3
shape = obf

[endpoint]
type = binary
p_control = 0.12
rd_relevant = 0.05
rd_uninteresting = 0.01

[calibration]
alpha = 0.025
power = 0.9
omega = 1e-5
"""


class TestParseConfig:
    def test_motivating_config(self):
        parsed = parse_config(MOTIVATING)
        assert parsed.arms == 3
        assert parsed.shape.kind == "obrien_fleming"
        assert parsed.design is None
        assert parsed.endpoint == BinaryEndpointSpec(0.12, 0.05, 0.01)
        assert parsed.calibration == CalibrationConfig(0.025, 0.9, 1e-5)
        assert set(parsed.effects) == {"global_null", "lfc", "all_relevant"}
        assert parsed.effects["lfc"].deltas == (
            parsed.normal.theta_prime, parsed.normal.theta_zero,
            parsed.normal.theta_zero)

    def test_bundled_config_matches_motivating_inputs(self):
        with open("configs/poptarts.cfg", encoding="utf-8") as fh:
            parsed = parse_config(fh.read())
        assert parsed.arms == 3
        assert parsed.calibration.alpha == 0.025
        assert parsed.calibration.power_target == 0.9
        assert parsed.normal.sigma_sq == pytest.approx(9.47, abs=0.005)

    def test_empty_file_lists_required_keys(self):
        with pytest.raises(ParseError) as exc:
            parse_config("")
        for dotted in ("design.arms", "endpoint.type", "calibration.alpha",
                       "calibration.power"):
            assert dotted in str(exc.value)

    def test_unknown_key_carries_line_number(self):
        text = MOTIVATING.replace("shape = obf", "shape = obf\nflavor = 3")
        with pytest.raises(ParseError, match="line 4.*flavor"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="line 1.*unknown section"):
            parse_config("[dessign]\narms = 3\n")

    def test_key_outside_section(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("arms = 3\n")

    def test_duplicate_key(self):
        text = MOTIVATING + "\n[design]\narms = 4\n"
        with pytest.raises(ParseError, match="duplicate key 'design.arms'"):
            parse_config(text)

    def test_bad_value_carries_line_number(self):
        text = MOTIVATING.replace("arms = 3", "arms = three")
        with pytest.raises(ParseError, match="line 2.*design.arms"):
            parse_config(text)

    @pytest.mark.parametrize("arms", ["0", "-1"])
    def test_too_few_arms_names_the_key(self, arms):
        text = MOTIVATING.replace("arms = 3", f"arms = {arms}")
        with pytest.raises(ParseError, match=(
                f"line 2: bad value for design.arms: '{arms}'")):
            parse_config(text)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_too_few_patients_names_the_key(self, n):
        text = MOTIVATING.replace(
            "shape = obf",
            f"shape = custom\nboundaries = 3.471, 2.454, 2.004\nn = {n}")
        with pytest.raises(ParseError, match=(
                f"line 5: bad value for design.n: '{n}'")):
            parse_config(text)

    def test_non_finite_effect_names_the_key(self):
        text = MOTIVATING + "\n[effects]\nodd = nan, 0, 0\n"
        with pytest.raises(ParseError, match=(
                "line 17: bad value for effects.odd: 'nan, 0, 0'")):
            parse_config(text)

    def test_alpha_out_of_range_names_the_field(self):
        text = MOTIVATING.replace("alpha = 0.025", "alpha = 1.5")
        with pytest.raises(ValueError, match="alpha"):
            parse_config(text)

    def test_normal_endpoint(self):
        text = MOTIVATING.replace(
            "type = binary\np_control = 0.12\nrd_relevant = 0.05\n"
            "rd_uninteresting = 0.01",
            "type = normal\ntheta_prime = 0.594\ntheta_zero = 0.098\n"
            "sigma_sq = 9.47")
        parsed = parse_config(text)
        assert isinstance(parsed.endpoint, NormalEffectSpec)
        assert parsed.normal is parsed.endpoint

    def test_mixed_endpoint_keys_rejected(self):
        text = MOTIVATING.replace("p_control = 0.12",
                                  "p_control = 0.12\ntheta_prime = 0.5")
        with pytest.raises(ParseError, match="theta_prime"):
            parse_config(text)

    def test_effects_section_overrides_defaults(self):
        text = MOTIVATING + "\n[effects]\nnull_only = 0, 0, 0\n"
        parsed = parse_config(text)
        assert list(parsed.effects) == ["null_only"]
        assert parsed.effects["null_only"].deltas == (0.0, 0.0, 0.0)

    def test_effects_arity_checked(self):
        text = MOTIVATING + "\n[effects]\nshort = 0.1, 0.2\n"
        with pytest.raises(ParseError, match="3 values, got 2"):
            parse_config(text)

    def test_complete_design_in_config(self):
        text = MOTIVATING.replace(
            "shape = obf",
            "shape = custom\nboundaries = 3.471, 2.454, 2.004\nn = 206")
        parsed = parse_config(text)
        assert parsed.design == TrialDesign(
            3, 3, 206, (3.471, 2.454, 2.004), 0.025, parsed.normal.sigma)

    def test_n_without_boundaries_rejected(self):
        text = MOTIVATING.replace("shape = obf", "shape = obf\nn = 206")
        with pytest.raises(ParseError, match="design.n"):
            parse_config(text)

    def test_custom_shape_needs_boundaries(self):
        text = MOTIVATING.replace("shape = obf", "shape = custom")
        with pytest.raises(ParseError, match="custom"):
            parse_config(text)

    def test_infinite_interim_boundaries_parse(self):
        text = MOTIVATING.replace(
            "shape = obf",
            "shape = custom\nboundaries = inf, inf, 1.96\nn = 203")
        parsed = parse_config(text)
        assert parsed.design.boundaries == (math.inf, math.inf, 1.96)


@pytest.fixture(scope="module")
def pinned_record(tmp_path_factory):
    """A complete design written the way the design command would, but with
    pinned boundaries so the module tests never pay for calibration."""
    base = tmp_path_factory.mktemp("cli")
    design = TrialDesign(3, 3, 206, (3.471, 2.454, 2.004), 0.025,
                         math.sqrt(9.470370437553851))
    record = {
        "command": "design",
        "seed": 0,
        "design": cli._design_record(design),
        "endpoint": {"type": "binary", "p_control": 0.12,
                     "rd_relevant": 0.05, "rd_uninteresting": 0.01},
        "calibration": {"alpha": 0.025, "power": 0.9, "omega": 1e-5},
        "effects": {"global_null": [0.0, 0.0, 0.0],
                    "lfc": [0.5942591794077365, 0.09831093224356313,
                            0.09831093224356313]},
        "max_total_patients": 1854,
    }
    path = base / "design.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


class TestRecordRoundTrip:
    def test_design_record_preserves_floats(self):
        design = TrialDesign(3, 3, 203, (math.inf, math.inf, 1.95996), 0.025,
                             3.0772872744833184)
        rec = json.loads(json.dumps(cli._design_record(design)))
        assert cli._design_from_record(rec) == design

    def test_loading_record_rebuilds_inputs(self, pinned_record):
        design, endpoint, normal, effects = cli._load_designed(
            str(pinned_record))
        assert design.n_per_stage == 206
        assert endpoint == BinaryEndpointSpec(0.12, 0.05, 0.01)
        assert normal.theta_prime == pytest.approx(0.5942591794077365)
        assert effects["lfc"].deltas[0] == 0.5942591794077365


class TestSimulateCommand:
    def test_reports_are_byte_identical_for_same_seed(self, pinned_record,
                                                      tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            status = run(RunConfig("simulate", str(pinned_record),
                                   out_path=str(path), seed=7, reps=1000))
            assert status == 0
        out = capsys.readouterr().out
        assert "simulation cross-check: 1000 replicates, seed 7" in out
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_the_report(self, pinned_record, tmp_path):
        payloads = []
        for seed in (1, 2):
            path = tmp_path / f"s{seed}.json"
            assert run(RunConfig("simulate", str(pinned_record),
                                 out_path=str(path), seed=seed,
                                 reps=1000)) == 0
            payloads.append(json.loads(path.read_text()))
        assert payloads[0] != payloads[1]
        # the analytic side does not depend on the simulation seed
        assert payloads[0]["configs"]["lfc"]["analytic"] == \
            payloads[1]["configs"]["lfc"]["analytic"]

    def test_empirical_tracks_analytic(self, pinned_record, tmp_path):
        path = tmp_path / "sim.json"
        assert run(RunConfig("simulate", str(pinned_record),
                             out_path=str(path), seed=3,
                             reps=50_000)) == 0
        block = json.loads(path.read_text())["configs"]["lfc"]
        value, se = block["empirical"]["power"]
        assert abs(value - block["analytic"]["power"]) <= \
            4.0 * se + characteristics.ERROR_ALLOWANCE


    def test_default_target_is_the_library_default(self, tmp_path):
        path = tmp_path / "sim.json"
        assert run(RunConfig("simulate", str(K3_RECORD), out_path=str(path),
                             reps=1000)) == 0
        report = json.loads(path.read_text())
        assert report["integration_tol"] == characteristics.DEFAULT_TARGET
        for name, block in report["configs"].items():
            stops = [v for k, v in block["analytic"].items()
                     if k.startswith("stop_stage_")]
            assert len(stops) == 3
            assert abs(math.fsum(stops) - 1.0) <= \
                characteristics._PARTITION_SLACK, name

    def test_coarse_target_is_refused_as_evaluate_refuses(self, capsys):
        # the analytic column is held to the allowance evaluate holds its
        # numbers to, and checks the stop stages first, as evaluate does
        errs = []
        for command in (["evaluate"], ["simulate", "--reps", "100"]):
            assert cli.main([*command, "--config", str(K3_RECORD),
                             "--tol", "1e-3"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: stop-stage 1 error bound 9.31e-05 "
                                  "exceeds the allowance 5e-05")


class TestInputEncoding:
    @pytest.mark.parametrize("command, source", [
        ("design", ROOT / "configs" / "poptarts.cfg"),
        ("evaluate", K3_RECORD)], ids=["config", "record"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys,
                                                command, source):
        results = []
        for prefix in (b"", "\ufeff".encode("utf-8")):
            path = tmp_path / f"in{len(prefix)}{source.suffix}"
            path.write_bytes(prefix + source.read_bytes())
            out = tmp_path / f"out{len(prefix)}.json"
            assert cli.main([command, "--config", str(path),
                             "--out", str(out)]) == 0
            results.append((capsys.readouterr(), out.read_bytes()))
        assert results[0] == results[1]


class TestCompareCommand:
    def test_multi_arm_row_does_not_depend_on_the_seed(self, tmp_path):
        config = ROOT / "configs" / "poptarts.cfg"
        rows = []
        for seed in (0, 3):
            path = tmp_path / f"compare{seed}.json"
            assert run(RunConfig("compare", str(config), out_path=str(path),
                                 seed=seed)) == 0
            report = json.loads(path.read_text())
            rows.append(next(row for row in report["rows"]
                             if row["name"] == "multi_arm"))
        assert rows[0] == rows[1]
        assert rows[0]["max_n"] == 2276


# the (arms, shape) cells the README's reference-design table calls
# supported
@pytest.mark.parametrize("arms, shape", [
    (2, "obf"), (2, "pocock"), (3, "obf"), (3, "pocock"), (4, "obf"),
    (4, "pocock")])
def test_supported_cells_design_evaluate_and_compare(tmp_path, capsys, arms,
                                                     shape):
    config = tmp_path / "trial.cfg"
    config.write_text(MOTIVATING.replace("arms = 3", f"arms = {arms}")
                      .replace("shape = obf", f"shape = {shape}"))
    record = tmp_path / "design.json"
    commands = [RunConfig("design", str(config), out_path=str(record)),
                RunConfig("evaluate", str(record))]
    # TestCompareCommand and test_acceptance run compare at 3 arms, obf
    if (arms, shape) != (3, "obf"):
        commands.append(RunConfig("compare", str(config)))
    for command in commands:
        assert run(command) == 0, capsys.readouterr().err


def _imports(module) -> dict[str, set[str]]:
    """Top-level module (package prefix dropped) -> names a module's
    source imports from it."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            head = (node.module or "").removeprefix("dtldesign.")
            imported.setdefault(head.split(".")[0], set()).update(
                alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.removeprefix("dtldesign.")
                imported.setdefault(head.split(".")[0], set())
    return imported


class TestLayering:
    def test_cli_does_no_numerics(self):
        # cli parses, calls the library and renders; the integration
        # layers stay behind calibrate and characteristics
        for head in _imports(cli):
            assert head not in ("events", "mvn", "scipy"), head

    def test_characteristics_takes_only_the_crossing_from_calibrate(self):
        # the comparators' searches and their quadrature live in
        # calibrate; characteristics integrates event sets and counts
        # patients
        imported = _imports(characteristics)
        assert imported["calibrate"] == {"ConvergenceError", "_no_crossing"}
        assert not {"numpy", "scipy"} & set(imported), set(imported)


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert run(RunConfig("design", "/nonexistent.cfg")) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[design]\narms = 3\nflavor = 4\n")
        assert run(RunConfig("design", str(path))) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "flavor" in err

    def test_evaluate_needs_a_complete_design(self, tmp_path, capsys):
        path = tmp_path / "incomplete.cfg"
        path.write_text(MOTIVATING)
        assert run(RunConfig("evaluate", str(path))) == 1
        assert "complete design" in capsys.readouterr().err

    def test_validation_error_is_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "alpha.cfg"
        path.write_text(MOTIVATING.replace("alpha = 0.025", "alpha = 1.5"))
        assert run(RunConfig("design", str(path))) == 1
        assert "alpha" in capsys.readouterr().err

    @staticmethod
    def _normal_config(tmp_path, theta_prime):
        path = tmp_path / "normal.cfg"
        path.write_text(MOTIVATING.replace(
            "type = binary\np_control = 0.12\nrd_relevant = 0.05\n"
            "rd_uninteresting = 0.01",
            f"type = normal\ntheta_prime = {theta_prime}\n"
            "theta_zero = 0.1\nsigma_sq = 1.0"))
        return str(path)

    def test_infinite_effect_is_refused_by_name(self, tmp_path, capsys):
        path = self._normal_config(tmp_path, "inf")
        assert cli.main(["design", "--config", path]) == 1
        assert "theta_prime must be finite" in capsys.readouterr().err

    def test_huge_effect_designs_one_patient_per_stage(self, tmp_path,
                                                       capsys):
        path = self._normal_config(tmp_path, "1e308")
        assert cli.main(["design", "--config", path]) == 0
        assert "n/stage 1 " in capsys.readouterr().out

    def test_stages_beyond_the_cap_are_refused_at_once(self, tmp_path,
                                                       capsys, monkeypatch):
        # the crossing quadrature would otherwise run 200 stages and
        # report a negative PWER; the refusal comes before any of it
        monkeypatch.setattr(calibrate, "_gauss_legendre", None)
        path = tmp_path / "many.cfg"
        path.write_text(MOTIVATING.replace("arms = 3", "arms = 200"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["design", "--config", str(path)]) == 1
        assert "200 stages exceeds the cap of 8" in capsys.readouterr().err

    def test_zero_tol_is_refused_not_defaulted(self, tmp_path, pinned_record,
                                               capsys):
        path = tmp_path / "motivating.cfg"
        path.write_text(MOTIVATING)
        assert cli.main(["design", "--config", str(path), "--tol", "0"]) == 1
        assert cli.main(["simulate", "--config", str(pinned_record),
                         "--reps", "100", "--tol", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("target_abs_error must be positive and finite") == 2

    @pytest.mark.parametrize("command", ["design", "simulate"])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_refused_by_name(self, command, seed, capsys):
        # refused before the config is read, so the path need not exist
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", "/nonexistent.cfg", "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed" in err and "non-negative integer" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["design"].update(arms=3.0, stages=3.0),
         "arms must be an integer, got 3.0"),
        (lambda r: r["design"].update(n_per_stage=True),
         "n_per_stage must be an integer, got True"),
        (lambda r: r["endpoint"].update(type="weird"),
         "endpoint.type must be binary or normal, got 'weird'"),
        (lambda r: r.pop("effects"),
         "design record lacks the key 'effects'"),
        (lambda r: r["design"].update(alpha="0.025"),
         "design record field 'design.alpha' has the wrong type: '0.025'"),
        (lambda r: r["effects"].update(lfc=0.5),
         "design record field 'effects.lfc' has the wrong type: 0.5"),
        (lambda r: r.update(endpoint="binary"),
         "design record field 'endpoint' has the wrong type: 'binary'"),
        (lambda r: r["endpoint"].update(p_control="0.12"),
         "design record field 'endpoint.p_control' has the wrong type: "
         "'0.12'"),
        (lambda r: r["design"].update(boundaries=3.4),
         "design record field 'design.boundaries' has the wrong type: 3.4"),
        (lambda r: r["effects"]["lfc"].__setitem__(0, "0.5942591794077365"),
         "design record field 'effects.lfc' has the wrong type: "
         "'0.5942591794077365'"),
        (lambda r: r["effects"].update(lfc=[True, 0, 0]),
         "design record field 'effects.lfc' has the wrong type: True"),
        (lambda r: r["design"]["boundaries"].__setitem__(0, True),
         "design record field 'design.boundaries' has the wrong type: True"),
        (lambda r: r["design"]["boundaries"].__setitem__(1, "foo"),
         "design record field 'design.boundaries' has the wrong type: "
         "'foo'"),
        (lambda r: r["endpoint"].update(type=["binary"]),
         "endpoint.type must be binary or normal, got ['binary']"),
        (lambda r: r["effects"]["lfc"].pop(),
         "design record field 'effects.lfc' needs 3 values, got 2"),
        (lambda r: r["effects"]["lfc"].__setitem__(0, 1e308),
         "effects.lfc makes a statistic's mean overflow for this design"),
    ], ids=["float_arms", "bool_n", "unknown_endpoint", "no_effects",
            "string_alpha", "number_effects", "string_endpoint",
            "string_p_control", "number_boundaries", "string_effect_entry",
            "bool_effect_entry", "bool_boundary", "string_boundary",
            "list_endpoint_type", "short_effects", "huge_effect"])
    def test_malformed_record_is_refused_by_name(self, tmp_path, capsys,
                                                 edit, message):
        record = json.loads(K3_RECORD.read_text(encoding="utf-8"))
        edit(record)
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        assert cli.main(["evaluate", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_huge_effect_in_a_pinned_config_is_refused_by_name(
            self, tmp_path, capsys):
        path = tmp_path / "pinned.cfg"
        path.write_text(MOTIVATING.replace(
            "shape = obf",
            "shape = custom\nboundaries = 3.471, 2.454, 2.004\nn = 206")
            + "\n[effects]\nhuge = 0, -1e308, 1e308\n")
        assert cli.main(["evaluate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: effects.huge makes a statistic's mean overflow for this "
            "design\n")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["design"])
        assert exc.value.code == 2


class TestRenderers:
    def test_design_table_rounds_boundaries_to_two_decimals(self,
                                                            pinned_record):
        record = json.loads(pinned_record.read_text())
        table = cli.render_design_table(record)
        assert "3.47  2.45  2.00" in table
        assert "n/stage 206" in table and "max N 1854" in table

    def test_compare_table_labels_out_of_scope_rows(self):
        report = {"rows": [
            {"name": "proposed", "status": "computed", "power": 0.9013,
             "type_i": 0.0191, "pwer": 0.025, "max_n": 1854,
             "ess": {"lfc": 1596.08}},
            {"name": "mams_symmetric", "status": "out_of_scope"},
        ]}
        table = cli.render_compare_table(report)
        assert "0.901" in table and "1596.1" in table
        assert "mams_symmetric" in table
        assert "not reproduced (out of scope)" in table

    def test_evaluate_table_formats(self, pinned_record):
        report = {
            "design": json.loads(pinned_record.read_text())["design"],
            "characteristics": {
                "pwer": 0.02500, "power_lfc": 0.90135,
                "type_i_global_null": 0.01911, "max_n": 1854,
                "ess": {"lfc": 1596.085},
                "stop_probs": {"lfc": [0.00094, 0.62364, 0.37542]},
            },
        }
        table = cli.render_evaluate_table(report)
        assert "power(lfc) 0.901" in table
        assert "1596.1" in table
        assert "0.624" in table

    def test_main_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("design", "evaluate", "simulate", "compare"):
            assert name in out
