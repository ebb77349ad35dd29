"""Monte Carlo oracle for the analytic engine.

Paths are drawn from the exact joint Gaussian law of the cumulative test
statistics: with S_k the running sum of iid standard normal stage increments
for arm k (arm 0 the shared control),

    Z_{k,j} = delta_k sqrt(j n) / (sigma sqrt(2)) + (S_{k,j} - S_{0,j}) / sqrt(2 j),

which reproduces the covariance module's moments exactly.  The simulator
therefore stresses the event bookkeeping and the integration, not the normal
approximation itself.

Reproducibility: replicate r reads a fixed window of the counter-based
Philox stream keyed by the seed (blocks [r*B, (r+1)*B) of four 64-bit words
each), and normals come from uniforms through the inverse CDF.  Every
replicate's draws are a pure function of (seed, replicate index), so the
estimates are bit-identical no matter how replicates are batched, and the
integer accumulators make the aggregation order immaterial as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .characteristics import stage_total_patients
from .covariance import EffectConfig, TrialDesign

__all__ = [
    "SimulationResult",
    "estimate_characteristics",
]

# replicates per vectorized batch; results do not depend on this value
_CHUNK = 1 << 15

# floor for the uniform before the inverse CDF: keeps a once-in-2^53 exact
# zero from producing an infinite statistic
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated estimates from independent simulated trials.

    estimates maps metric name to (value, Monte Carlo standard error).
    Probability metrics use sqrt(p(1-p)/reps); "ess" uses the sample
    standard deviation over replicates.
    """

    replicates: int
    estimates: dict[str, tuple[float, float]]
    seed: int


def _z_from_increments(design: TrialDesign, effects: EffectConfig,
                       xi: np.ndarray) -> np.ndarray:
    """Map standard normal stage increments (paths, arms+1, stages) to the
    cumulative statistics (paths, arms, stages); row 0 of axis 1 is the
    control."""
    j = np.arange(1, design.stages + 1, dtype=np.float64)
    s = np.cumsum(xi, axis=2)
    noise = (s[:, 1:, :] - s[:, :1, :]) / np.sqrt(2.0 * j)
    deltas = np.asarray(effects.deltas, dtype=np.float64)
    mean = deltas[:, None] * (np.sqrt(j * design.n_per_stage)
                              / (design.sigma * math.sqrt(2.0)))
    return mean[None, :, :] + noise


def _decide_paths(design: TrialDesign, z: np.ndarray):
    """Run the drop and stopping rules on every path at once.

    Returns (stop, winner, dropped_at): ending stage per path, selected
    arm per path (0 when no arm is recommended as best), and the stage at
    which each arm was dropped (0 for never).  Exact ties go to the lowest
    arm index.
    """
    m = z.shape[0]
    stages = design.stages
    alive = np.ones((m, design.arms), dtype=bool)
    running = np.ones(m, dtype=bool)
    stop = np.zeros(m, dtype=np.int64)
    winner = np.zeros(m, dtype=np.int64)
    dropped_at = np.zeros((m, design.arms), dtype=np.int64)
    for j in range(1, stages + 1):
        zj = z[:, :, j - 1]
        u = design.boundaries[j - 1]
        if j < stages:
            loser = np.where(alive, zj, np.inf).argmin(axis=1)
            rows = np.flatnonzero(running)
            alive[rows, loser[rows]] = False
            dropped_at[rows, loser[rows]] = j
            if math.isinf(u):
                continue
            stopping = running & np.all((zj > u) | ~alive, axis=1)
            rows = np.flatnonzero(stopping)
            if rows.size:
                best = np.where(alive[rows], zj[rows], -np.inf).argmax(axis=1)
                winner[rows] = best + 1
                stop[rows] = j
                running[rows] = False
        else:
            rows = np.flatnonzero(running)
            stop[rows] = stages
            surv = alive[rows].argmax(axis=1)
            crossed = zj[rows, surv] > u
            winner[rows[crossed]] = surv[crossed] + 1
    return stop, winner, dropped_at


def _focal_rejected(design: TrialDesign, z: np.ndarray, stop: np.ndarray,
                    dropped_at: np.ndarray) -> np.ndarray:
    """Per-path indicator that arm 1's null was rejected.

    At an early stop a surviving arm 1 has cleared the boundary by the stop
    rule itself; an arm dropped at the ending stage still rejects if its
    own statistic cleared.  At the final stage the survivor must clear.
    """
    stages = design.stages
    u = np.asarray(design.boundaries)
    df = dropped_at[:, 0]
    z_at_stop = z[np.arange(z.shape[0]), 0, stop - 1]
    crossed = z_at_stop > u[stop - 1]
    early = stop < stages
    survivor = df == 0
    return np.where(early, survivor | ((df == stop) & crossed),
                    survivor & crossed)


def _chunk_increments(seed: int, start: int, count: int, arms: int,
                      stages: int) -> np.ndarray:
    """Standard normal increments for replicates [start, start+count).

    Each replicate owns a fixed run of Philox counter blocks, so the
    returned values depend only on (seed, replicate index).
    """
    words = (arms + 1) * stages
    blocks_per_rep = -(-words // 4)
    bits = np.random.Philox(np.random.SeedSequence(seed))
    bits.advance(start * blocks_per_rep)
    u = np.random.Generator(bits).random(count * 4 * blocks_per_rep)
    u = u.reshape(count, 4 * blocks_per_rep)[:, :words]
    return ndtri(np.maximum(u, _TINY)).reshape(count, arms + 1, stages)


def estimate_characteristics(design: TrialDesign, effects: EffectConfig,
                             reps: int, seed: int = 0) -> SimulationResult:
    """Estimate the operating characteristics from independent replicates.

    Metrics:
        power: arm 1 is selected as the single best crossing arm.
        reject: arm 1's null is rejected at the ending stage.
        focal_crossing: arm 1's statistic clears its boundary at any
            stage, selection ignored; under arm 1's null this is the
            pairwise error rate the boundaries were calibrated to.
        ess: patients recruited through the ending stage.
        stop_stage_j: the trial ends at stage j.

    Deterministic given (seed, reps); independent of batching.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if len(effects.deltas) != design.arms:
        raise ValueError("effects length must match the number of arms")
    stages = design.stages
    u_arr = np.asarray(design.boundaries)
    patients = np.array([stage_total_patients(design, j)
                         for j in range(1, stages + 1)], dtype=np.int64)
    wins = rejects = crossings = 0
    stop_counts = np.zeros(stages, dtype=np.int64)
    patient_sum = 0
    patient_sq = 0
    done = 0
    while done < reps:
        m = min(_CHUNK, reps - done)
        xi = _chunk_increments(seed, done, m, design.arms, stages)
        z = _z_from_increments(design, effects, xi)
        stop, winner, dropped_at = _decide_paths(design, z)
        wins += int(np.count_nonzero(winner == 1))
        rejects += int(np.count_nonzero(
            _focal_rejected(design, z, stop, dropped_at)))
        crossings += int(np.count_nonzero(np.any(z[:, 0, :] > u_arr, axis=1)))
        stop_counts += np.bincount(stop - 1, minlength=stages)
        tot = patients[stop - 1]
        patient_sum += int(tot.sum())
        patient_sq += int((tot * tot).sum())
        done += m

    def binomial(count: int) -> tuple[float, float]:
        p = count / reps
        return p, math.sqrt(p * (1.0 - p) / reps)

    estimates = {"power": binomial(wins), "reject": binomial(rejects),
                 "focal_crossing": binomial(crossings)}
    mean_patients = patient_sum / reps
    if reps > 1:
        var = (patient_sq - patient_sum * (patient_sum / reps)) / (reps - 1)
        ess_se = math.sqrt(max(var, 0.0) / reps)
    else:
        ess_se = 0.0
    estimates["ess"] = (mean_patients, ess_se)
    for j in range(1, stages + 1):
        estimates[f"stop_stage_{j}"] = binomial(int(stop_counts[j - 1]))
    return SimulationResult(replicates=reps, estimates=estimates, seed=seed)
