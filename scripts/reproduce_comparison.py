#!/usr/bin/env python3
"""Rebuild the design comparison table for the bundled example trial.

Runs the full pipeline (boundary calibration, sample size search, operating
characteristics) for the proposed design and each in-scope comparator, then
prints the table.  Rows whose boundary derivations live in cited prior work
are labelled out of scope rather than dropped.  Takes about 1.5 s on a
shared 2-core machine at the default integration target, about half of it
starting Python and importing the package.  From a checkout,
run it as `PYTHONPATH=src python3 scripts/reproduce_comparison.py`.
"""

import argparse
import pathlib
import sys
import time

from dtldesign.cli import RunConfig, run

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config",
                        default=str(ROOT / "configs" / "poptarts.cfg"),
                        help="trial config file (default: bundled example)")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the absolute integration target")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    rc = run(RunConfig("compare", args.config, out_path=args.out,
                       tol=args.tol))
    print(f"done in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
