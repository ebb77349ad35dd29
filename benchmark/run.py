#!/usr/bin/env python3
"""Benchmark of the dtldesign engine: one workload per invocation.

    python3 benchmark/run.py --workload design --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  A worker process (worker.py) runs whole
rounds of the workload's operations until --seconds have passed (at least
one round) and checks every output.  The last stdout line is one JSON
object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (run_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, from spans
around each layer's public functions (see spans.py), and the spans are
written to benchmark/out/.  Exits 2 without a result when the checkout
holds no dtldesign sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

# set-up samples per run: the worker plus fresh probe interpreters; the
# median is reported
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170


def _start(script: str, *args, timeout: float) -> tuple[float, str]:
    """Run a benchmark script in a fresh interpreter with one BLAS thread;
    returns the CLOCK_MONOTONIC reading taken before the start and its
    stdout."""
    env = dict(os.environ, **wl.SINGLE_THREAD_ENV)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / script), *map(str, args)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return start, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.ROOT / "src" / "dtldesign" / "__init__.py").is_file():
        print(f"error: no dtldesign sources under {wl.ROOT / 'src'}",
              file=sys.stderr)
        return 2

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            start, out = _start("probe.py", args.workload, args.seed,
                                timeout=PROBE_TIMEOUT_S)
            setup.append(float(out.split()[-1]) - start)
    start, out = _start("worker.py", args.workload, args.seed, args.seconds,
                        args.trace, timeout=WORKER_TIMEOUT_S)
    lines = out.splitlines()
    ready = next(float(line.split()[1]) for line in lines
                 if line.startswith("ready "))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if not line.startswith("ready "):
            print(line)
    if not args.trace:
        setup.append(ready - start)
        print("set-up samples " + ", ".join(f"{s:.3f}" for s in setup)
              + " s")
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    for name, m in result["metrics"].items():
        print(f"{name:<28}{m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
