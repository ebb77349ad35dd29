#!/usr/bin/env python3
"""Show that every check rejects a deliberately perturbed output.

Produces real outputs on seed 0 (the stored K=3 design record, one
`dtldesign evaluate` on it, one pass over the type I lattice: about
75 s), confirms that the checks pass on them, then perturbs one field at
a time and confirms that the named check fails.

Usage, from the root of a checkout:  python3 benchmark/selftest.py
Exits 0 when the real outputs pass and every perturbation is caught.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

SEED = 0


def _scaled(record, factor):
    out = copy.deepcopy(record)
    out["design"]["boundaries"] = [u * factor
                                   for u in out["design"]["boundaries"]]
    return out


def _with_n(record, n):
    out = copy.deepcopy(record)
    J = out["design"]["stages"]
    out["design"]["n_per_stage"] = n
    out["max_total_patients"] = sum(range(1, J)) * n + 2 * J * n
    return out


def _edit(record, edit):
    out = copy.deepcopy(record)
    edit(out)
    return out


def _bump_first_boundary(r):
    r["design"]["boundaries"][0] += 0.001


def _bump_max_n(r):
    r["max_total_patients"] += 1


def _bump_max_n_far(r):
    r["max_total_patients"] += 7


def design_cases(record):
    return [
        ("paper_boundaries", _scaled(record, 1.01)),
        ("paper_n", _with_n(record, record["design"]["n_per_stage"] + 2)),
        ("paper_max_n", _edit(record, _bump_max_n_far)),
        ("obf_shape", _edit(record, _bump_first_boundary)),
        ("pwer_window", _scaled(record, 0.9995)),
        ("lfc_power", _with_n(record, record["design"]["n_per_stage"] - 16)),
        ("max_n", _edit(record, _bump_max_n)),
    ]


def evaluate_cases(report):
    def edit(fn):
        out = copy.deepcopy(report)
        fn(out["characteristics"])
        return out

    def stop(c, j, delta):
        c["stop_probs"]["lfc"][j] += delta

    return [
        ("partition", edit(lambda c: stop(c, 0, 3e-5))),
        ("type1_le_pwer", edit(lambda c: c.update(
            type_i_global_null=c["pwer"] + 1e-4))),
        ("pwer_scipy", edit(lambda c: c.update(pwer=c["pwer"] + 1e-6))),
        ("sim_power", edit(lambda c: c.update(
            power_lfc=c["power_lfc"] + 0.005))),
        ("sim_type1", edit(lambda c: c.update(
            type_i_global_null=c["type_i_global_null"] + 0.002))),
        ("sim_ess[lfc]", edit(lambda c: c["ess"].update(
            lfc=c["ess"]["lfc"] + 5.0))),
        ("sim_stop[lfc][2]", edit(lambda c: stop(c, 1, 0.01))),
    ]


def lattice_cases(design, points, estimates, refs, null):
    alpha = design.alpha
    se_alpha = math.sqrt(alpha * (1.0 - alpha) / wl.LATTICE_REPS)

    def edit(i, metric, value):
        out = copy.deepcopy(estimates)
        out[i] = dict(out[i], **{metric: value})
        return out, refs

    crossing, se = estimates[null]["focal_crossing"]
    i, again = refs["rerun"]
    moved = dict(again, power=(again["power"][0] + 1e-5, again["power"][1]))
    return [
        ("type1_bound", edit(0, "reject", (alpha + 5.0 * se_alpha, se_alpha))),
        ("stop_sum", edit(3, "stop_stage_1",
                          (estimates[3]["stop_stage_1"][0] + 1e-3, 0.0))),
        ("null_crossing", edit(null, "focal_crossing",
                               (crossing + 6.0 * se, se))),
        ("rerun", (estimates, dict(refs, rerun=(i, moved)))),
    ]


def main() -> int:
    os.environ.update(wl.SINGLE_THREAD_ENV)
    wl.import_program()
    import checks
    from dtldesign import cli
    missed = []

    def expect(name, fails):
        hit = any(f.startswith(name) for f in fails)
        print(f"  {'caught' if hit else 'MISSED'}  {name}")
        if not hit:
            missed.append(name)

    def passes(what, fails):
        print(f"{what}: {'pass' if not fails else 'FAIL'}")
        for f in fails:
            print(f"    {f}")
        if fails:
            missed.append(what)

    parsed = cli.parse_config(wl.CONFIG_K3.read_text(encoding="utf-8"))
    lfc = parsed.effects["lfc"].deltas
    record = json.loads(wl.DESIGN_K3.read_text(encoding="utf-8"))
    passes("design record", checks.check_design(
        record, checks.design_references(record, lfc, SEED),
        parsed.calibration, paper=True))
    for name, bad in design_cases(record):
        expect(name, checks.check_design(
            bad, checks.design_references(bad, lfc, SEED),
            parsed.calibration, paper=True))

    work = wl.set_up("evaluate-k3", SEED)
    report = work.ops[0].run()
    refs = checks.evaluate_references(report, work.inputs["effects"], SEED)
    passes("evaluate report", checks.check_evaluate(report, refs))
    for name, bad in evaluate_cases(report):
        expect(name, checks.check_evaluate(bad, refs))

    work = wl.set_up("type1-lattice", SEED)
    design, points = work.inputs["design"], work.inputs["points"]
    estimates = [out.estimates for out in wl.run_round(work).outputs]
    refs = checks.lattice_references(design, points, SEED)
    passes("type I lattice", checks.check_lattice(
        design, points, estimates, wl.LATTICE_REPS, refs))
    cases = lattice_cases(design, points, estimates, refs,
                          checks.null_point(points))
    for name, (bad, bad_refs) in cases:
        expect(name, checks.check_lattice(design, points, bad,
                                          wl.LATTICE_REPS, bad_refs))

    print("all checks reject their perturbation" if not missed
          else f"not caught or failing: {', '.join(missed)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
