"""Correctness checks on the workloads' outputs, made apart from the engine.

Every check is a bound, never a copy of one run's output, so it holds for
any seed.  The independent references are

- scipy.stats.multivariate_normal.cdf for the pairwise error rate (a
  different integrator: randomized lattice rules on the full-rank
  cumulative-statistic covariance corr(Z_j, Z_k) = sqrt(min/max)), and
- estimate_characteristics, the engine's brute-force simulator, at
  CHECK_REPS replicates per configuration.

Each check function returns a list of failure messages that start with
the check's name; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import multivariate_normal

# Values from the paper's motivating K=3 design (u, n per arm per stage,
# maximum total patients) and how far a design may sit from them.
PAPER_K3_BOUNDARIES = (3.47, 2.45, 2.00)
PAPER_BOUNDARY_TOL = 0.005
PAPER_K3_N = 206
PAPER_N_TOL = 1
PAPER_K3_MAX_N = 1854
PAPER_MAX_N_TOL = 6

# The repository README's allowance on any reported analytic number.
ERROR_ALLOWANCE = 5e-5
# Stop-stage probabilities form a partition.
PARTITION_TOL = 2e-5
# Three-sigma target the engine's pwer() integrates to by default.
ENGINE_PWER_TARGET = 1e-7
# Requested absolute error of the scipy reference (three sigma).
SCIPY_ABSEPS = 1e-7
CHECK_REPS = 1_000_000
Z = 4.0                      # standard errors a simulated value may differ


def scipy_pwer(boundaries, seed: int) -> float:
    """1 - P(Z_j <= u_j for all j) for one arm's cumulative statistics
    under its null."""
    u = np.asarray(boundaries, dtype=float)
    j = np.arange(1, len(u) + 1, dtype=float)
    cov = np.sqrt(np.minimum.outer(j, j) / np.maximum.outer(j, j))
    p = multivariate_normal.cdf(u, cov=cov, abseps=SCIPY_ABSEPS, releps=0.0,
                                maxpts=10**8, rng=np.random.default_rng(seed))
    return 1.0 - float(p)


def _design_of(record):
    from dtldesign.covariance import TrialDesign
    d = record["design"]
    return TrialDesign(d["arms"], d["stages"], d["n_per_stage"],
                       tuple(float(u) for u in d["boundaries"]),
                       d["alpha"], d["sigma"])


def _simulate(design, deltas, seed: int) -> dict:
    from dtldesign.covariance import EffectConfig
    from dtldesign.simulate import estimate_characteristics
    return estimate_characteristics(design, EffectConfig(tuple(deltas)),
                                    CHECK_REPS, seed=seed).estimates


# ---------------------------------------------------------------------------
# design

def design_references(record, lfc_deltas, seed: int) -> dict:
    design = _design_of(record)
    return {"pwer": scipy_pwer(design.boundaries, seed),
            "sim": _simulate(design, lfc_deltas, seed)}


def check_design(record, refs, cal, *, paper: bool) -> list[str]:
    """cal is the input's CalibrationConfig; paper adds the K=3 values."""
    fails = []
    d = record["design"]
    u = [float(x) for x in d["boundaries"]]
    n = d["n_per_stage"]
    J = len(u)
    if paper:
        if any(abs(a - b) > PAPER_BOUNDARY_TOL
               for a, b in zip(u, PAPER_K3_BOUNDARIES)) or J != 3:
            fails.append(f"paper_boundaries: {u} vs {PAPER_K3_BOUNDARIES}")
        if abs(n - PAPER_K3_N) > PAPER_N_TOL:
            fails.append(f"paper_n: {n} vs {PAPER_K3_N}")
        if abs(record["max_total_patients"] - PAPER_K3_MAX_N) > PAPER_MAX_N_TOL:
            fails.append(f"paper_max_n: {record['max_total_patients']} vs "
                         f"{PAPER_K3_MAX_N}")
    for j, uj in enumerate(u, start=1):
        want = u[-1] * math.sqrt(J / j)
        if abs(uj - want) > 1e-9 * want:
            fails.append(f"obf_shape: u_{j}={uj} but u_J sqrt(J/j)={want}")
    p = refs["pwer"]
    lo = cal.alpha - cal.omega - SCIPY_ABSEPS
    hi = cal.alpha + SCIPY_ABSEPS
    if not lo <= p <= hi:
        fails.append(f"pwer_window: scipy PWER {p:.7f} outside "
                     f"[{lo:.7f}, {hi:.7f}]")
    power, se = refs["sim"]["power"]
    if power < cal.power_target - Z * se:
        fails.append(f"lfc_power: simulated {power:.5f} +/- {se:.5f} below "
                     f"{cal.power_target}")
    closed = sum(range(1, J)) * n + 2 * J * n
    if record["max_total_patients"] != closed:
        fails.append(f"max_n: {record['max_total_patients']} != "
                     f"sum_(i<J) i n + 2 J n = {closed}")
    return fails


# ---------------------------------------------------------------------------
# evaluate

def evaluate_references(report, effects, seed: int) -> dict:
    """effects maps configuration name to its effect vector; the names
    global_null and lfc must be among them."""
    design = _design_of(report)
    return {"pwer": scipy_pwer(design.boundaries, seed),
            "sim": {name: _simulate(design, e.deltas, seed)
                    for name, e in effects.items()}}


def check_evaluate(report, refs) -> list[str]:
    fails = []
    c = report["characteristics"]
    sim = refs["sim"]
    for name, probs in c["stop_probs"].items():
        total = math.fsum(probs)
        if abs(total - 1.0) > PARTITION_TOL:
            fails.append(f"partition: stop_probs[{name}] sum to {total}")
    if c["type_i_global_null"] > c["pwer"] + ERROR_ALLOWANCE:
        fails.append(f"type1_le_pwer: {c['type_i_global_null']} > "
                     f"pwer {c['pwer']} + {ERROR_ALLOWANCE}")
    if abs(c["pwer"] - refs["pwer"]) > SCIPY_ABSEPS + ENGINE_PWER_TARGET:
        fails.append(f"pwer_scipy: {c['pwer']:.8f} vs scipy "
                     f"{refs['pwer']:.8f}")

    def near(check, value, est, allowance):
        ref, se = est
        if abs(value - ref) > Z * se + allowance:
            fails.append(f"{check}: {value:.6f} vs simulated {ref:.6f} "
                         f"+/- {se:.6f}")

    near("sim_power", c["power_lfc"], sim["lfc"]["power"], ERROR_ALLOWANCE)
    near("sim_type1", c["type_i_global_null"], sim["global_null"]["reject"],
         ERROR_ALLOWANCE)
    for name, ess in c["ess"].items():
        near(f"sim_ess[{name}]", ess, sim[name]["ess"],
             ERROR_ALLOWANCE * c["max_n"])
    for name, probs in c["stop_probs"].items():
        for j, p in enumerate(probs, start=1):
            near(f"sim_stop[{name}][{j}]", p, sim[name][f"stop_stage_{j}"],
                 ERROR_ALLOWANCE)
    return fails


# ---------------------------------------------------------------------------
# type I lattice

def null_point(points) -> int:
    """Index of the lattice point with every effect zero."""
    return min(range(len(points)),
               key=lambda i: max(abs(d) for d in points[i]))


def lattice_references(design, points, seed: int) -> dict:
    """The scipy PWER, and point seed mod len(points) rerun with the seed
    the workload gave it."""
    import workloads
    i = seed % len(points)
    again = workloads.lattice_op(design, points[i], seed + i).run()
    return {"pwer": scipy_pwer(design.boundaries, seed),
            "rerun": (i, again.estimates)}


def check_lattice(design, points, estimates, reps: int, refs) -> list[str]:
    """estimates[i] is the estimate dict at points[i]."""
    fails = []
    alpha = design.alpha
    # the SE at alpha: a point's own SE is 0 wherever it never rejects
    bound = alpha + Z * math.sqrt(alpha * (1.0 - alpha) / reps)
    for deltas, est in zip(points, estimates):
        if est["reject"][0] > bound:
            fails.append(f"type1_bound: {est['reject'][0]:.5f} > {bound:.5f} "
                         f"at {deltas}")
        total = math.fsum(est[f"stop_stage_{j}"][0]
                          for j in range(1, design.stages + 1))
        if abs(total - 1.0) > 1e-12:
            fails.append(f"stop_sum: {total} at {deltas}")
    crossing, se = estimates[null_point(points)]["focal_crossing"]
    if abs(crossing - refs["pwer"]) > Z * se + SCIPY_ABSEPS:
        fails.append(f"null_crossing: {crossing:.5f} +/- {se:.5f} vs scipy "
                     f"PWER {refs['pwer']:.5f}")
    i, again = refs["rerun"]
    if again != estimates[i]:
        fails.append(f"rerun: point {points[i]} gave {again}, first "
                     f"{estimates[i]}")
    return fails
