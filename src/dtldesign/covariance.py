"""Joint moments of the drop-the-loser test statistics.

With n patients per remaining arm per stage (control included) the cumulative
statistic for arm k at stage j is

    Z_{k,j} = (Xbar_{k,j} - Xbar_{0,j}) / sqrt(V_j),    V_j = 2 sigma^2 / (j n),

so E[Z_{k,j}] = delta_k sqrt(j n) / (sigma sqrt(2)).  Every single statistic
and every same-stage difference Z_{k,j} - Z_{k*,j} has unit variance under
this equal-allocation model, which is why the covariances returned here are
also correlations.  The building blocks are the stage ratio
r = sqrt(min(j, j*) / max(j, j*)) and the arm rule: same arm contributes r,
different arms r/2 (the shared control is half the variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mvn import OrthantProblem

__all__ = [
    "EffectConfig",
    "StatCoord",
    "TrialDesign",
    "single",
    "difference",
    "corr_between",
    "mean_of",
    "build_moment_problem",
]


@dataclass(frozen=True)
class TrialDesign:
    """A drop-the-loser design with superiority stopping boundaries.

    Attributes:
        arms: number of active treatment arms K (control not counted).
        stages: number of analyses J; one arm is dropped at each of the
            first J-1, so J equals K.
        n_per_stage: patients recruited per remaining arm (and control)
            per stage.
        boundaries: superiority boundaries u_1..u_J.  A boundary may be
            +inf to disable stopping at that stage (pure drop-the-loser
            mode); the final boundary must be finite.
        alpha: pairwise type I error target the boundaries were (or will
            be) calibrated to.
        sigma: nuisance standard deviation on the outcome scale.
    """

    arms: int
    stages: int
    n_per_stage: int
    boundaries: tuple[float, ...]
    alpha: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "boundaries",
                           tuple(float(u) for u in self.boundaries))
        if self.arms < 1:
            raise ValueError("arms must be at least 1")
        if self.stages != self.arms:
            raise ValueError("stages must equal arms (one drop per interim)")
        if len(self.boundaries) != self.stages:
            raise ValueError("need one boundary per stage")
        if not (isinstance(self.n_per_stage, (int, np.integer))
                and self.n_per_stage >= 1):
            raise ValueError("n_per_stage must be a positive integer")
        for u in self.boundaries:
            if math.isnan(u) or u == -math.inf:
                raise ValueError("boundaries must be real or +inf")
        if not math.isfinite(self.boundaries[-1]):
            raise ValueError("final boundary must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")

    def with_n(self, n_per_stage: int) -> "TrialDesign":
        return TrialDesign(self.arms, self.stages, int(n_per_stage),
                           self.boundaries, self.alpha, self.sigma)

    def with_boundaries(self, boundaries) -> "TrialDesign":
        return TrialDesign(self.arms, self.stages, self.n_per_stage,
                           tuple(boundaries), self.alpha, self.sigma)


@dataclass(frozen=True)
class EffectConfig:
    """True treatment effects delta_1..delta_K versus control."""

    deltas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas",
                           tuple(float(d) for d in self.deltas))
        if len(self.deltas) == 0:
            raise ValueError("need at least one arm effect")
        for d in self.deltas:
            if not math.isfinite(d):
                raise ValueError("effects must be finite")

    @classmethod
    def global_null(cls, arms: int) -> "EffectConfig":
        return cls((0.0,) * arms)

    @classmethod
    def least_favorable(cls, arms: int, theta_prime: float,
                        theta_zero: float) -> "EffectConfig":
        """Arm 1 at the relevant effect, every other arm at the uninteresting one."""
        return cls((theta_prime,) + (theta_zero,) * (arms - 1))

    @classmethod
    def all_relevant(cls, arms: int, theta_prime: float) -> "EffectConfig":
        return cls((theta_prime,) * arms)


@dataclass(frozen=True, order=True)
class StatCoord:
    """One coordinate of the joint statistic vector.

    kind "single" is Z_{arm_a, stage}; kind "difference" is
    Z_{arm_a, stage} - Z_{arm_b, stage}.  arm_b is 0 (unused) for singles.
    """

    kind: str
    arm_a: int
    arm_b: int
    stage: int

    def __post_init__(self):
        if self.kind not in ("single", "difference"):
            raise ValueError(f"unknown coordinate kind {self.kind!r}")
        if self.kind == "difference" and self.arm_a == self.arm_b:
            raise ValueError("difference coordinate needs two distinct arms")

    def validate(self, design: TrialDesign) -> None:
        arms = (self.arm_a,) if self.kind == "single" else (self.arm_a, self.arm_b)
        for a in arms:
            if not 1 <= a <= design.arms:
                raise ValueError(f"arm index {a} outside 1..{design.arms}")
        if not 1 <= self.stage <= design.stages:
            raise ValueError(f"stage {self.stage} outside 1..{design.stages}")


def single(arm: int, stage: int) -> StatCoord:
    return StatCoord("single", arm, 0, stage)


def difference(arm_a: int, arm_b: int, stage: int) -> StatCoord:
    return StatCoord("difference", arm_a, arm_b, stage)


def _signed_arms(c: StatCoord):
    if c.kind == "single":
        return ((1.0, c.arm_a),)
    return ((1.0, c.arm_a), (-1.0, c.arm_b))


def corr_between(a: StatCoord, b: StatCoord) -> float:
    """Correlation of two coordinates (both have unit variance).

    Expands each coordinate into signed arm terms and applies the pair rule:
    same arm contributes the stage ratio r, different arms r/2.  All the
    special cases (matched, swapped, one shared arm, disjoint) fall out of
    this bilinear expansion.
    """
    jmin, jmax = min(a.stage, b.stage), max(a.stage, b.stage)
    r = math.sqrt(jmin / jmax)
    total = 0.0
    for sa, ka in _signed_arms(a):
        for sb, kb in _signed_arms(b):
            total += sa * sb * (r if ka == kb else 0.5 * r)
    return total


def mean_of(design: TrialDesign, effects: EffectConfig, c: StatCoord) -> float:
    """Expected value of a coordinate under the given effects."""
    c.validate(design)
    if len(effects.deltas) != design.arms:
        raise ValueError("effects length must match the number of arms")
    scale = math.sqrt(c.stage * design.n_per_stage) / (design.sigma * math.sqrt(2.0))
    if c.kind == "single":
        return effects.deltas[c.arm_a - 1] * scale
    return (effects.deltas[c.arm_a - 1] - effects.deltas[c.arm_b - 1]) * scale


def build_moment_problem(design: TrialDesign, effects: EffectConfig,
                         coords, lowers, uppers) -> OrthantProblem:
    """Assemble the OrthantProblem for a list of coordinates and bounds."""
    coords = list(coords)
    if not coords:
        raise ValueError("need at least one coordinate")
    if not (len(coords) == len(lowers) == len(uppers)):
        raise ValueError("coords and bounds lengths must agree")
    d = len(coords)
    mean = np.array([mean_of(design, effects, c) for c in coords])
    corr = np.empty((d, d))
    for i in range(d):
        corr[i, i] = 1.0
        for m in range(i + 1, d):
            corr[i, m] = corr[m, i] = corr_between(coords[i], coords[m])
    return OrthantProblem(mean, corr,
                          np.asarray(lowers, dtype=float),
                          np.asarray(uppers, dtype=float))
