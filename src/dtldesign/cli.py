"""Command-line front end.

Workflows: `design` calibrates boundaries and the per-stage sample size from
a config file and writes a design record; `evaluate` computes the operating
characteristics of a designed trial; `simulate` cross-checks the analytic
numbers against the Monte Carlo oracle; `compare` emits the comparison table
across the competing designs.

Config files are flat ``key = value`` text under ``[section]`` headers
(sections: design, endpoint, calibration, effects).  Unknown sections or
keys are rejected with their line number.  `evaluate` and `simulate` also
accept a design record (the JSON written by `design`) as their input, which
round-trips the design at full float precision.

Reports are deterministic: one JSON document with sorted keys plus an
aligned plain-text table rounded the way the numbers are usually quoted
(boundaries to 2 decimals, probabilities to 3, expected sample sizes to 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

from .calibrate import (
    BoundaryShape,
    CalibrationConfig,
    comparator_multiarm,
    comparator_separate_trials,
    design_trial,
    multiarm_lfc_power,
    separate_trials_power,
)
from .characteristics import (
    DEFAULT_TARGET,
    ERROR_ALLOWANCE,
    analytic_estimates,
    full_report,
    max_total_patients,
)
from .covariance import EffectConfig, TrialDesign, _stage_scale
from .endpoint import BinaryEndpointSpec, NormalEffectSpec, binary_to_normal
from .simulate import estimate_characteristics

__all__ = [
    "ParseError",
    "ParsedConfig",
    "RunConfig",
    "parse_config",
    "run",
    "main",
]

_SECTIONS = ("design", "endpoint", "calibration", "effects")
# endpoint.type -> spec; the spec's fields are the endpoint keys of both the
# config file and the design record
_ENDPOINTS = {"binary": BinaryEndpointSpec, "normal": NormalEffectSpec}
_KNOWN_KEYS = {
    "design": ("arms", "shape", "boundaries", "n"),
    "endpoint": ("type", *(f.name for spec in _ENDPOINTS.values()
                           for f in fields(spec))),
    "calibration": ("alpha", "power", "omega"),
}
_REQUIRED = ("design.arms", "endpoint.type", "calibration.alpha",
             "calibration.power")
_SHAPES = {"obf": "obrien_fleming", "pocock": "pocock", "custom": "custom"}

# the analytic column integrates with this seed whatever --seed says, so it
# does not move when only the simulation is reseeded
_ANALYTIC_SEED = 0


class ParseError(ValueError):
    """Config file rejected; carries the offending line when there is one."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class ParsedConfig:
    """Validated inputs from one config file.

    design is present only when the file pins a complete trial (custom
    boundaries plus design.n); otherwise the design command derives it.
    """

    arms: int
    shape: BoundaryShape
    design: TrialDesign | None
    endpoint: BinaryEndpointSpec | NormalEffectSpec
    normal: NormalEffectSpec
    calibration: CalibrationConfig
    effects: dict[str, EffectConfig]


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation after argument parsing."""

    command: str
    config_path: str
    out_path: str | None = None
    seed: int = 0
    reps: int = 100_000
    tol: float = DEFAULT_TARGET


def _scan(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", no)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(
                    f"unknown section '{name}' (expected one of "
                    f"{', '.join(_SECTIONS)})", no)
            section = name
            continue
        if "=" not in line:
            raise ParseError("expected key = value", no)
        if section is None:
            raise ParseError("key outside any [section]", no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError("expected key = value", no)
        if section != "effects" and key not in _KNOWN_KEYS[section]:
            raise ParseError(f"unknown key '{section}.{key}'", no)
        if (section, key) in entries:
            raise ParseError(f"duplicate key '{section}.{key}'", no)
        entries[(section, key)] = (value, no)
    return entries


def _take(entries, section, key, conv, default=None, required=False):
    if (section, key) not in entries:
        if required:
            raise ParseError(f"missing required key {section}.{key}")
        return default
    value, no = entries.pop((section, key))
    try:
        return conv(value)
    except ValueError:
        raise ParseError(f"bad value for {section}.{key}: {value!r}", no)


def _float_list(value: str) -> tuple[float, ...]:
    return tuple(float(part) for part in value.split(","))


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise ValueError(value)
    return number


def parse_config(text: str) -> ParsedConfig:
    """Parse and validate a config file; see the module docstring for the
    schema.  Raises ParseError with a line number for schema problems and
    ValueError naming the field for invariant violations."""
    entries = _scan(text)
    missing = [dotted for dotted in _REQUIRED
               if tuple(dotted.split(".")) not in entries]
    if missing:
        raise ParseError("missing required keys: " + ", ".join(missing))

    arms = _take(entries, "design", "arms", _positive_int, required=True)
    shape_name = _take(entries, "design", "shape", str, default="obf")
    if shape_name not in _SHAPES:
        raise ParseError(f"design.shape must be one of {', '.join(_SHAPES)}")
    boundaries = _take(entries, "design", "boundaries", _float_list)
    n_per_stage = _take(entries, "design", "n", _positive_int)
    if shape_name == "custom":
        if boundaries is None:
            raise ParseError("design.shape = custom needs design.boundaries")
        shape = BoundaryShape("custom", boundaries)
    else:
        if boundaries is not None and n_per_stage is None:
            raise ParseError(
                "design.boundaries without design.n only makes sense for "
                "design.shape = custom")
        shape = BoundaryShape(_SHAPES[shape_name])

    kind = _take(entries, "endpoint", "type", str, required=True)
    if kind not in _ENDPOINTS:
        raise ParseError("endpoint.type must be binary or normal")
    endpoint = _ENDPOINTS[kind](*(
        _take(entries, "endpoint", f.name, float, required=True)
        for f in fields(_ENDPOINTS[kind])))
    normal = _normal(endpoint)

    calibration = CalibrationConfig(
        alpha=_take(entries, "calibration", "alpha", float, required=True),
        power_target=_take(entries, "calibration", "power", float,
                           required=True),
        omega=_take(entries, "calibration", "omega", float,
                    default=CalibrationConfig.omega))

    effects: dict[str, EffectConfig] = {}
    for (section, key) in [k for k in entries if k[0] == "effects"]:
        value, no = entries.pop((section, key))
        try:
            effects[key] = EffectConfig(_float_list(value))
        except ValueError:
            raise ParseError(f"bad value for effects.{key}: {value!r}", no)
        if len(effects[key].deltas) != arms:
            raise ParseError(f"effects.{key} needs {arms} values, got "
                             f"{len(effects[key].deltas)}", no)
    if not effects:
        effects = _default_effects(arms, normal)

    if entries:
        (section, key), (_, no) = next(iter(entries.items()))
        raise ParseError(f"key '{section}.{key}' does not apply here", no)

    design = None
    if n_per_stage is not None:
        if boundaries is None:
            raise ParseError("design.n requires design.boundaries")
        design = TrialDesign(arms, arms, n_per_stage, boundaries,
                             calibration.alpha, normal.sigma)
    return ParsedConfig(arms=arms, shape=shape, design=design,
                        endpoint=endpoint, normal=normal,
                        calibration=calibration, effects=effects)


def _default_effects(arms: int, normal: NormalEffectSpec):
    """The three standard configurations on the working normal scale."""
    return {
        "global_null": EffectConfig.global_null(arms),
        "lfc": EffectConfig.least_favorable(arms, normal.theta_prime,
                                            normal.theta_zero),
        "all_relevant": EffectConfig.all_relevant(arms, normal.theta_prime),
    }


# ---------------------------------------------------------------------------
# design records (JSON round-trip of a designed trial)

def _num_out(x: float):
    return "inf" if x == math.inf else x


def _normal(endpoint) -> NormalEffectSpec:
    """The working normal scale of either endpoint."""
    if isinstance(endpoint, BinaryEndpointSpec):
        return binary_to_normal(endpoint)
    return endpoint


def _endpoint_record(endpoint) -> dict:
    kind = next(k for k, spec in _ENDPOINTS.items()
                if isinstance(endpoint, spec))
    return {"type": kind, **asdict(endpoint)}


def _typed(value, kind, field: str):
    """value if it is a kind (a bool never counts as a number); otherwise a
    ValueError naming the record field."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(
            f"design record field {field!r} has the wrong type: {value!r}")
    return value


def _endpoint_from_record(rec: dict):
    kind = rec["type"]
    spec = _ENDPOINTS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ValueError(
            f"endpoint.type must be binary or normal, got {kind!r}")
    return spec(*(_typed(rec[f.name], (int, float), f"endpoint.{f.name}")
                  for f in fields(spec)))


def _design_record(design: TrialDesign) -> dict:
    return {"arms": design.arms, "stages": design.stages,
            "n_per_stage": design.n_per_stage,
            "boundaries": [_num_out(u) for u in design.boundaries],
            "alpha": design.alpha, "sigma": design.sigma}


def _design_from_record(rec: dict) -> TrialDesign:
    for key in ("alpha", "sigma"):
        _typed(rec[key], (int, float), f"design.{key}")
    bounds = _typed(rec["boundaries"], list, "design.boundaries")
    return TrialDesign(rec["arms"], rec["stages"], rec["n_per_stage"],
                       tuple(math.inf if u == "inf" else
                             _typed(u, (int, float), "design.boundaries")
                             for u in bounds),
                       rec["alpha"], rec["sigma"])


def _load_designed(path: str):
    """A complete design plus its endpoint and effect configs, from either a
    design record or a config file that pins boundaries and n."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        rec = json.loads(text)
        try:
            endpoint = _endpoint_from_record(
                _typed(rec["endpoint"], dict, "endpoint"))
            normal = _normal(endpoint)
            design = _design_from_record(_typed(rec["design"], dict, "design"))
            effects = {}
            for name, v in _typed(rec["effects"], dict, "effects").items():
                field = f"effects.{name}"
                effects[name] = EffectConfig(tuple(
                    _typed(x, (int, float), field)
                    for x in _typed(v, list, field)))
                if len(v) != design.arms:
                    raise ValueError(f"design record field {field!r} needs "
                                     f"{design.arms} values, got {len(v)}")
        except KeyError as exc:
            raise ValueError(
                f"design record lacks the key {exc.args[0]!r}") from None
    else:
        parsed = parse_config(text)
        if parsed.design is None:
            raise ValueError(
                "config does not pin a complete design (custom boundaries "
                "plus design.n); run the design command first and pass its "
                "record")
        design, endpoint = parsed.design, parsed.endpoint
        normal, effects = parsed.normal, parsed.effects
    for name, effect in effects.items():
        # the largest mean: a last-stage contrast, the control's 0 included
        spread = max(0.0, *effect.deltas) - min(0.0, *effect.deltas)
        if not math.isfinite(spread * _stage_scale(design, design.stages)):
            raise ValueError(f"effects.{name} makes a statistic's mean "
                             "overflow for this design")
    return design, endpoint, normal, effects


# ---------------------------------------------------------------------------
# text tables

def _fmt(x, nd: int, width: int = 0) -> str:
    return ("-" if x is None else f"{x:.{nd}f}").rjust(width)


def _design_lines(design: TrialDesign) -> list[str]:
    bounds = "  ".join(_fmt(u, 2) if math.isfinite(u) else "inf"
                       for u in design.boundaries)
    return [
        f"arms {design.arms}  stages {design.stages}  "
        f"n/stage {design.n_per_stage}  max N {max_total_patients(design)}",
        f"boundaries  {bounds}",
    ]


def render_design_table(record: dict) -> str:
    design = _design_from_record(record["design"])
    lines = ["designed trial"] + ["  " + s for s in _design_lines(design)]
    return "\n".join(lines) + "\n"


def render_evaluate_table(report: dict) -> str:
    design = _design_from_record(report["design"])
    chars = report["characteristics"]
    lines = ["evaluated trial"] + ["  " + s for s in _design_lines(design)]
    lines.append(
        f"  pwer {_fmt(chars['pwer'], 3)}  power(lfc) "
        f"{_fmt(chars['power_lfc'], 3)}  type I(null) "
        f"{_fmt(chars['type_i_global_null'], 3)}")
    names = list(chars["ess"])
    if names:
        stages = len(next(iter(chars["stop_probs"].values())))
        width = max(len(s) for s in names)
        header = "  ".join(f"stop@{j}" for j in range(1, stages + 1))
        lines.append(f"  {'config'.ljust(width)}      ess  {header}")
        for name in names:
            stops = "  ".join(_fmt(p, 3, 6) for p in chars["stop_probs"][name])
            lines.append(f"  {name.ljust(width)}  {_fmt(chars['ess'][name], 1, 7)}  {stops}")
    return "\n".join(lines) + "\n"


def render_simulate_table(report: dict) -> str:
    lines = [f"simulation cross-check: {report['replicates']} replicates, "
             f"seed {report['seed']}"]
    for name, block in report["configs"].items():
        lines.append(f"  {name}")
        lines.append("    metric          analytic  empirical     mc se")
        for metric, analytic in block["analytic"].items():
            value, se = block["empirical"][metric]
            nd = 1 if metric == "ess" else 3
            lines.append(
                f"    {metric.ljust(14)} {_fmt(analytic, nd, 9)}  "
                f"{_fmt(value, nd, 9)}  {se:8.2g}")
    return "\n".join(lines) + "\n"


def render_compare_table(report: dict) -> str:
    ess_names = [name for row in report["rows"] if row["status"] == "computed"
                 for name in row["ess"]]
    names = list(dict.fromkeys(ess_names))
    width = max(len(row["name"]) for row in report["rows"])
    header = (f"{'design'.ljust(width)}  power  type I  pwer   max N  "
              + "  ".join(f"ESS({n})" for n in names))
    lines = [header]
    for row in report["rows"]:
        if row["status"] != "computed":
            lines.append(f"{row['name'].ljust(width)}  "
                         "not reproduced (out of scope)")
            continue
        ess = "  ".join(
            _fmt(row["ess"][n], 1, len(f"ESS({n})")) for n in names)
        lines.append(
            f"{row['name'].ljust(width)}  {_fmt(row['power'], 3)}  "
            f"{_fmt(row['type_i'], 3, 6)}  {_fmt(row['pwer'], 3)}  "
            f"{row['max_n']:5d}  {ess}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _integration(cfg: RunConfig) -> dict:
    """Integration keywords: the seed and the --tol target."""
    return {"seed": cfg.seed, "target_abs_error": cfg.tol}


def _read_config(path: str) -> ParsedConfig:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_config(fh.read())


def _calibration_record(cal: CalibrationConfig) -> dict:
    return {"alpha": cal.alpha, "power": cal.power_target, "omega": cal.omega}


def _cmd_design(cfg: RunConfig) -> tuple[dict, str]:
    parsed = _read_config(cfg.config_path)
    cal = parsed.calibration
    design = design_trial(parsed.arms, parsed.shape, cal, parsed.normal,
                          **_integration(cfg))
    record = {
        "command": "design",
        "seed": cfg.seed,
        "design": _design_record(design),
        "endpoint": _endpoint_record(parsed.endpoint),
        "calibration": _calibration_record(cal),
        "effects": {name: list(e.deltas)
                    for name, e in parsed.effects.items()},
        "max_total_patients": max_total_patients(design),
    }
    return record, render_design_table(record)


def _cmd_evaluate(cfg: RunConfig) -> tuple[dict, str]:
    design, endpoint, normal, effects = _load_designed(cfg.config_path)
    chars = full_report(design, normal, effects, **_integration(cfg))
    report = {
        "command": "evaluate",
        "seed": cfg.seed,
        "design": _design_record(design),
        "endpoint": _endpoint_record(endpoint),
        "characteristics": asdict(chars),
    }
    return report, render_evaluate_table(report)


def _cmd_simulate(cfg: RunConfig) -> tuple[dict, str]:
    design, endpoint, _, effects = _load_designed(cfg.config_path)
    integration = {**_integration(cfg), "seed": _ANALYTIC_SEED}
    configs = {}
    for name, effect in effects.items():
        analytic = analytic_estimates(design, effect, **integration)
        sim = estimate_characteristics(design, effect, cfg.reps,
                                       seed=cfg.seed)
        empirical = {metric: list(sim.estimates[metric])
                     for metric in analytic}
        configs[name] = {"analytic": analytic, "empirical": empirical}
    report = {
        "command": "simulate",
        "replicates": cfg.reps,
        "seed": cfg.seed,
        "integration_tol": cfg.tol,
        "design": _design_record(design),
        "endpoint": _endpoint_record(endpoint),
        "configs": configs,
    }
    return report, render_simulate_table(report)


# comparison rows the engine does not reproduce; listed so their absence
# from the numbers is explicit rather than silent
_OUT_OF_SCOPE = ("mams_symmetric", "mams_zero_futility",
                 "separate_multistage")


def _characteristics_row(name: str, design: TrialDesign,
                         normal: NormalEffectSpec,
                         effects: dict[str, EffectConfig],
                         cfg: RunConfig) -> dict:
    chars = full_report(design, normal, effects, **_integration(cfg))
    return {"name": name, "status": "computed",
            "n": design.n_per_stage, "n_is": "per arm per stage",
            "max_n": chars.max_n, "power": chars.power_lfc,
            "type_i": chars.type_i_global_null, "pwer": chars.pwer,
            "ess": dict(chars.ess),
            "design": _design_record(design)}


def _cmd_compare(cfg: RunConfig) -> tuple[dict, str]:
    parsed = _read_config(cfg.config_path)
    cal = parsed.calibration
    normal = parsed.normal

    proposed = design_trial(parsed.arms, parsed.shape, cal, normal,
                            **_integration(cfg))
    rows = [_characteristics_row("proposed", proposed, normal,
                                 parsed.effects, cfg)]

    # pure drop-the-loser: no early stopping, final boundary calibrated
    dtl_shape = BoundaryShape(
        "custom", (math.inf,) * (parsed.arms - 1) + (1.0,))
    dtl = design_trial(parsed.arms, dtl_shape, cal, normal,
                       **_integration(cfg))
    rows.append(_characteristics_row("dtl", dtl, normal, parsed.effects, cfg))

    def single_look(name: str, n_is: str, n: int, max_n: int,
                    power: float) -> dict:
        # every arm is tested once against its own marginal critical
        # value: both error rates sit at alpha by construction, and every
        # trial recruits the maximum
        return {"name": name, "status": "computed", "n": n, "n_is": n_is,
                "max_n": max_n, "power": power,
                "type_i": cal.alpha, "pwer": cal.alpha,
                "ess": {e: float(max_n) for e in parsed.effects}}

    n_multi, max_multi = comparator_multiarm(
        parsed.arms, cal.alpha, cal.power_target, normal.theta_prime,
        normal.theta_zero, normal.sigma)
    rows.append(single_look(
        "multi_arm", "per arm, single stage", n_multi, max_multi,
        multiarm_lfc_power(parsed.arms, n_multi, cal.alpha,
                           normal.theta_prime, normal.theta_zero,
                           normal.sigma)))
    n_sep, total_sep = comparator_separate_trials(
        parsed.arms, cal.alpha, cal.power_target, normal.theta_prime,
        normal.sigma)
    rows.append(single_look(
        "separate_trials", "per group per trial", n_sep, total_sep,
        separate_trials_power(n_sep, cal.alpha, normal.theta_prime,
                              normal.sigma)))

    rows.extend({"name": name, "status": "out_of_scope"}
                for name in _OUT_OF_SCOPE)
    report = {
        "command": "compare",
        "seed": cfg.seed,
        "calibration": _calibration_record(cal),
        "endpoint": _endpoint_record(parsed.endpoint),
        "rows": rows,
    }
    return report, render_compare_table(report)


_COMMANDS = {
    "design": _cmd_design,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def run(cfg: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    try:
        report, table = _COMMANDS[cfg.command](cfg)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(table)
    if cfg.out_path:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return 0


def _seed_arg(text: str) -> int:
    """--seed: refused by name here, not by numpy deep in the run."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dtldesign",
        description="Design and evaluate multi-stage drop-the-loser trials "
                    "with early stopping for superiority.")
    sub = parser.add_subparsers(dest="command", required=True)
    tol_help = ("error bound each event set of a characteristic is "
                "integrated to, and below which the sample size search "
                "stops refining a power still within its bound of the "
                f"power target (default {DEFAULT_TARGET:g}); evaluate, "
                "simulate and compare refuse a number whose bound exceeds "
                f"{ERROR_ALLOWANCE:g}")
    specs = {
        "design": "calibrate boundaries and sample size, write the record",
        "evaluate": "operating characteristics of a designed trial",
        "simulate": "Monte Carlo cross-check of the analytic numbers",
        "compare": "comparison table across competing designs",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", dest="config_path", metavar="CONFIG",
                       required=True,
                       help="config file (evaluate/simulate also take a "
                            "design record)")
        p.add_argument("--out", dest="out_path", metavar="OUT",
                       help="write the JSON report here")
        p.add_argument("--seed", type=_seed_arg, default=0,
                       help="replicate seed; the analytic column always "
                            f"integrates with seed {_ANALYTIC_SEED}"
                       if name == "simulate" else "integration seed")
        p.add_argument("--tol", type=float, default=DEFAULT_TARGET,
                       help=tol_help)
        if name == "simulate":
            p.add_argument("--reps", type=int, default=RunConfig.reps)
    return run(RunConfig(**vars(parser.parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
