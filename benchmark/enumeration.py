#!/usr/bin/env python3
"""Reference figures for the README: event enumeration time and rectangle
problem counts for K = 3..5 arms, under the least favourable configuration.

K=5 enumeration alone takes tens of seconds, which is why no benchmark
workload runs it; this script measures it once.

Usage, from the root of a checkout:  python3 benchmark/enumeration.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> int:
    os.environ.update(wl.SINGLE_THREAD_ENV)
    wl.import_program()
    from dtldesign import cli
    from dtldesign.covariance import TrialDesign
    from dtldesign.events import stop_stage_problems, win_problems

    k3_text = wl.CONFIG_K3.read_text(encoding="utf-8")
    print(f"{'K':>2} {'sets':<5} {'seconds':>8} {'problems':>9}  per stage")
    for k in (3, 4, 5):
        parsed = cli.parse_config(wl.config_with_arms(k3_text, k))
        design = TrialDesign(k, k, 100, parsed.shape.multipliers(k),
                             parsed.calibration.alpha,
                             parsed.normal.sigma)
        lfc = parsed.effects["lfc"]
        for label, enumerate_sets in (("win", win_problems),
                                      ("stop", stop_stage_problems)):
            start = time.perf_counter()
            sets = enumerate_sets(design, lfc)
            seconds = time.perf_counter() - start
            sizes = [len(s.problems) for s in sets]
            print(f"{k:>2} {label:<5} {seconds:>8.2f} {sum(sizes):>9}  "
                  + " ".join(map(str, sizes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
