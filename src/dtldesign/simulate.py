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
each; Salmon et al., SC'11), and normals come from uniforms through the
inverse CDF.  Every replicate's draws are a pure function of (seed,
replicate index), so a stripe of replicates can jump straight to its own
window.  The estimates are therefore bit-identical however the replicates
are batched and however many CPUs share them, and the integer accumulators
make the aggregation order immaterial as well.

Layout: the replicates are cut into chunks of mvn's _SLAB paths, dealt
round-robin to one stripe per CPU the process may use; stripe 0 runs on the
calling thread and the others on threads that live for one call, where the
inverse CDF and the Philox draws run without the interpreter lock.  A chunk
is held as (groups, stages, paths) arrays, paths last, so every step runs
on contiguous per-group vectors of 64 KiB whatever the CPU count: the
integrator's slab rule.  Each path sees the same float operations and
comparisons in any layout, so no result depends on it.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .characteristics import stage_total_patients
from .covariance import EffectConfig, TrialDesign
from .mvn import _SLAB

__all__ = [
    "SimulationResult",
    "estimate_characteristics",
]

# stripes per call: the CPUs this process may run on; results do not depend
# on this value
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

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
    """Map standard normal stage increments (groups, stages, paths), group 0
    the control, to the cumulative statistics (arms, stages, paths).

    Works in place and returns a view of xi.  Each step runs on vectors
    along the paths axis; every path sees the same float operations in any
    layout, so the values do not depend on it."""
    for j in range(1, design.stages):
        xi[:, j] += xi[:, j - 1]
    j = np.arange(1, design.stages + 1, dtype=np.float64)
    deltas = np.asarray(effects.deltas, dtype=np.float64)
    mean = deltas[:, None] * (np.sqrt(j * design.n_per_stage)
                              / (design.sigma * math.sqrt(2.0)))
    z = xi[1:]
    z -= xi[:1]
    z /= np.sqrt(2.0 * j)[:, None]
    z += mean[:, :, None]
    return z


def _first_loser(zj: np.ndarray, dead: np.ndarray) -> list:
    """Per arm, the mask of paths on which it holds the lowest value among
    the alive arms, exact ties to the lowest index; zj and dead are (arms,
    paths)."""
    marks = [~dead[a] for a in range(zj.shape[0])]
    for a, b in itertools.combinations(range(zj.shape[0]), 2):
        lower = zj[a] <= zj[b]
        marks[a] &= lower | dead[b]
        marks[b] &= ~lower | dead[a]
    return marks


def _decide_paths(design: TrialDesign, z: np.ndarray):
    """Run the drop and stopping rules on every path at once.

    z is (arms, stages, paths).  Returns (stop, won, rejected): the ending
    stage per path, and arm 1's two outcomes as boolean masks.  won: the
    trial stops with every survivor clearing the boundary and arm 1 the
    highest of them.  rejected: arm 1 clears the boundary at the ending
    stage, having survived to it or been the arm dropped there.  Exact ties
    go to the lowest arm index, in the drop and in the selection alike, so
    arm 1 wins a tie for best and is dropped on a tie for worst.  The
    decisions do not depend on the layout.
    """
    arms, stages, m = z.shape
    dead = np.zeros((arms, m), dtype=bool)
    running = np.ones(m, dtype=bool)
    stop = np.zeros(m, dtype=np.int64)
    won = np.zeros(m, dtype=bool)
    rejected = np.zeros(m, dtype=bool)
    for j, u in enumerate(design.boundaries, start=1):
        zj = z[:, j - 1]
        alive = ~dead[0]
        if j < stages:
            for a, loser in enumerate(_first_loser(zj, dead)):
                dead[a] |= loser & running
        # every survivor clears u; at the final stage one arm survives
        crossing = running.copy()
        for a in range(arms):
            crossing &= (zj[a] > u) | dead[a]
        best = ~dead[0]
        for a in range(1, arms):
            best &= (zj[0] >= zj[a]) | dead[a]
        won |= best & crossing
        ending = crossing if j < stages else running
        rejected |= ending & alive & (zj[0] > u)
        stop += j * ending
        running &= ~ending
    return stop, won, rejected


def _increment_chunks(seed: int, reps: int, arms: int, stages: int,
                      stripe: int, stripes: int):
    """Standard normal increments (arms+1, stages, m) for the chunks of at
    most _SLAB replicates starting at stripe * _SLAB, every `stripes`-th
    chunk, written into buffers reused across chunks.

    Replicate r reads blocks [r*B, (r+1)*B) of one Philox stream, B =
    ceil(words / 4) counter blocks per replicate; the stream jumps over
    the other stripes' chunks, so the values depend only on (seed,
    replicate index).
    """
    words = (arms + 1) * stages
    width = 4 * -(-words // 4)
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    gen = np.random.Generator(bitgen)
    u = np.empty((min(_SLAB, reps), width))
    xi = np.empty((arms + 1, stages, len(u)))
    pos = 0
    for start in range(stripe * _SLAB, reps, stripes * _SLAB):
        m = min(_SLAB, reps - start)
        bitgen.advance((start - pos) * (width // 4))
        pos = start + m
        gen.random(out=u[:m])
        np.maximum(u[:m, :words], _TINY, out=u[:m, :words])
        ndtri(u[:m, :words].T, out=xi.reshape(words, -1)[:, :m])
        yield xi[:, :, :m]


def _stripe_counts(design: TrialDesign, effects: EffectConfig, reps: int,
                   seed: int, stripe: int, stripes: int) -> np.ndarray:
    """One stripe's integer counts: arm 1's wins, rejections and boundary
    crossings, then the paths ending at each stage."""
    u_arr = np.asarray(design.boundaries)
    counts = np.zeros(3 + design.stages, dtype=np.int64)
    for xi in _increment_chunks(seed, reps, design.arms, design.stages,
                                stripe, stripes):
        z = _z_from_increments(design, effects, xi)
        stop, won, rejected = _decide_paths(design, z)
        counts[0] += np.count_nonzero(won)
        counts[1] += np.count_nonzero(rejected)
        counts[2] += np.count_nonzero(np.any(z[0] > u_arr[:, None], axis=0))
        counts[3:] += np.bincount(stop - 1, minlength=design.stages)
    return counts


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

    Deterministic given (seed, reps); independent of batching and of the
    number of CPUs.
    """
    for name, value, least in (("reps", reps, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    if len(effects.deltas) != design.arms:
        raise ValueError("effects length must match the number of arms")
    stages = design.stages
    # a stripe with no chunk would start a thread for nothing
    stripes = min(_WORKERS, -(-reps // _SLAB))
    args = (design, effects, reps, seed)
    # the pool starts threads only on submit, so one stripe starts none
    with ThreadPoolExecutor(max(stripes - 1, 1)) as pool:
        others = [pool.submit(_stripe_counts, *args, s, stripes)
                  for s in range(1, stripes)]
        totals = _stripe_counts(*args, 0, stripes)
        for f in others:
            totals = totals + f.result()
    wins, rejects, crossings, *counts = totals.tolist()
    # every path ending at stage j recruits that stage's total
    patients = [int(stage_total_patients(design, j))
                for j in range(1, stages + 1)]
    patient_sum = sum(c * t for c, t in zip(counts, patients))
    patient_sq = sum(c * t * t for c, t in zip(counts, patients))

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
        estimates[f"stop_stage_{j}"] = binomial(counts[j - 1])
    return SimulationResult(replicates=reps, estimates=estimates, seed=seed)
