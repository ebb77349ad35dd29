"""The process that runs one workload; run.py starts it and reads its
stdout.

Its first stdout line is `ready <t>`, t being the CLOCK_MONOTONIC reading
once dtldesign is imported and the inputs are read: run.py turns it into
a set-up sample.  Its last line is the result JSON without setup_s.  Peak
resident memory is this process's, read before the checks run.

Usage: python3 benchmark/worker.py <workload> <seed> <seconds> <trace>
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import spans
import workloads as wl


def check(work: wl.Workload, outputs: list, seed: int) -> list[str]:
    """Failures of the independent checks on one round's outputs."""
    import checks
    fails = []
    if work.name == "design":
        for k, record in zip((3, 4), outputs):
            if record is None:
                continue
            parsed = work.inputs["parsed"][k]
            refs = checks.design_references(
                record, parsed.effects["lfc"].deltas, seed)
            fails += [f"K={k} {f}" for f in checks.check_design(
                record, refs, parsed.calibration, paper=(k == 3))]
    elif work.name == "evaluate-k3":
        if outputs[0] is not None:
            refs = checks.evaluate_references(outputs[0],
                                              work.inputs["effects"], seed)
            fails += checks.check_evaluate(outputs[0], refs)
    else:
        design = work.inputs["design"]
        points = work.inputs["points"]
        if all(out is not None for out in outputs):
            refs = checks.lattice_references(design, points, seed)
            fails += checks.check_lattice(
                design, points, [out.estimates for out in outputs],
                wl.LATTICE_REPS, refs)
    return fails


def main(workload: str, seed: int, seconds: float, traced: bool) -> int:
    try:
        wl.import_program()
    except wl.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    work = wl.set_up(workload, seed)
    print(f"ready {time.monotonic()!r}", flush=True)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if tracer:
            tracer.phase = len(rounds) + 1
        rounds.append(wl.run_round(work))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False          # the checks are not part of the run
    run_s = statistics.median(r.seconds for r in rounds)

    fails = check(work, rounds[-1].outputs, seed)
    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)

    last_untraced = wl.OUT / f"last-untraced-{workload}.json"
    if tracer:
        metrics = spans.layer_metrics(tracer.spans, len(rounds))
        metrics["trace.run_s"] = run_s
        units = spans.UNITS
        span_path = wl.OUT / f"spans-{workload}-seed{seed}.json"
        tracer.write(span_path)
        print(f"{workload}: {len(rounds)} traced round(s), "
              f"{len(tracer.spans)} spans in {span_path.relative_to(wl.ROOT)}")
        print(f"{'layer':<24}{'self s/round':>14}{'calls/round':>14}")
        for name, self_s, calls in spans.self_time_table(tracer.spans,
                                                         len(rounds)):
            print(f"{name:<24}{self_s:>14.4f}{calls:>14.1f}")
        per_round = sum(s["phase"] > 0 for s in tracer.spans) / len(rounds)
        cost = spans.span_cost_s()
        print(f"tracing cost: {per_round:.0f} spans/round x "
              f"{1e6 * cost:.2f} us = {per_round * cost:.4f} s/round "
              f"({100.0 * per_round * cost / run_s:.3f}% of run_s)")
        if last_untraced.is_file():
            prior = json.loads(last_untraced.read_text(encoding="utf-8"))
            print(f"run_s traced {run_s:.3f} s, last untraced "
                  f"{prior['run_s']:.3f} s (seed {prior['seed']}); the "
                  "difference includes machine drift between the runs")
        else:
            print(f"run_s traced {run_s:.3f} s; no untraced run recorded in "
                  "this checkout yet")
    else:
        metrics = {"run_s": run_s, "peak_rss_mb": peak_rss_mb}
        units = {"run_s": "s", "peak_rss_mb": "MB"}
        last_untraced.write_text(json.dumps(
            {"seed": seed, "run_s": run_s}) + "\n", encoding="utf-8")
        print(f"{workload}: {len(rounds)} round(s) of {len(work.ops)} "
              "operation(s)")
    print(json.dumps({
        "correct": not fails,
        "attempted": len(work.ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]),
                  sys.argv[4] == "1"))
