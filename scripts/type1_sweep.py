#!/usr/bin/env python3
"""Simulate per-arm type I error across a lattice of effect vectors.

Calibrated boundaries control the pairwise error rate at every point where
the focal arm is truly ineffective, whatever the other arms do.  This sweep
checks that claim empirically: arm 1 is held at or below zero effect while
every arm ranges over [-2 theta', 2 theta'], and the simulated rejection
rate for arm 1 must stay below alpha + 4 SE at each lattice point.

The design is the config's own when it pins boundaries and n, and
otherwise the one `dtldesign design` gives for it at seed 0.  Exits
nonzero if any point breaches the bound.  From a checkout, run it as
`PYTHONPATH=src python3 scripts/type1_sweep.py`.
"""

import argparse
import itertools
import math
import pathlib
import sys

import numpy as np

from dtldesign.calibrate import design_trial
from dtldesign.cli import parse_config
from dtldesign.covariance import EffectConfig
from dtldesign.simulate import estimate_characteristics

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _at_least(low):
    """argparse type: an integer no smaller than low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config",
                        default=str(ROOT / "configs" / "poptarts.cfg"),
                        help="trial config file (default: bundled example)")
    # two points are the least that reach both ends of the focal axis,
    # -theta' and the null edge 0
    parser.add_argument("--points", type=_at_least(2), default=5,
                        help="lattice points per axis (default 5, at least 2)")
    parser.add_argument("--reps", type=_at_least(1), default=100_000,
                        help="simulation replicates per point")
    parser.add_argument("--seed", type=_at_least(0), default=0)
    parser.add_argument("--show", type=_at_least(0), default=10,
                        help="print this many worst points")
    args = parser.parse_args(argv)

    parsed = parse_config(
        pathlib.Path(args.config).read_text(encoding="utf-8-sig"))
    design = parsed.design
    if design is None:
        design = design_trial(parsed.arms, parsed.shape, parsed.calibration,
                              parsed.normal)
    theta = parsed.normal.theta_prime
    alpha = design.alpha
    focal_grid = np.linspace(-theta, 0.0, args.points)
    other_grid = np.linspace(-2.0 * theta, 2.0 * theta, args.points)

    rows = []
    grids = [focal_grid] + [other_grid] * (design.arms - 1)
    for case, deltas in enumerate(itertools.product(*grids)):
        sim = estimate_characteristics(design, EffectConfig(deltas),
                                       args.reps, seed=args.seed + case)
        value, se = sim.estimates["reject"]
        rows.append((value, se, deltas))

    rows.sort(reverse=True)
    se_ref = math.sqrt(alpha * (1.0 - alpha) / args.reps)
    print(f"design: n={design.n_per_stage}/arm/stage, boundaries "
          + "(" + ", ".join(f"{u:.4f}" for u in design.boundaries) + ")")
    print(f"{len(rows)} lattice points, {args.reps} replicates each; "
          f"bound alpha + 4 SE = {alpha + 4.0 * se_ref:.5f}")
    for value, se, deltas in rows[:args.show]:
        point = ", ".join(f"{d:+.3f}" for d in deltas)
        print(f"  type I {value:.5f} +/- {se:.5f}  at deltas ({point})")
    breaches = [r for r in rows if r[0] > alpha + 4.0 * r[1]]
    if breaches:
        print(f"FAIL: {len(breaches)} points exceed alpha + 4 SE",
              file=sys.stderr)
        return 1
    print("all points within alpha + 4 SE")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
