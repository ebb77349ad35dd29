"""Joint moments of the drop-the-loser test statistics.

With n patients per remaining arm per stage (control included) the cumulative
statistic for arm k at stage j is

    Z_{k,j} = (Xbar_{k,j} - Xbar_{0,j}) / sqrt(V_j),    V_j = 2 sigma^2 / (j n),

so E[Z_{k,j}] = delta_k sqrt(j n) / (sigma sqrt(2)).  Every coordinate is a
same-stage contrast Z_{a,j} - Z_{b,j} of two groups, group 0 the control
(Z_{0,j} = 0: b = 0 gives arm a's own statistic), and has unit variance under
this equal-allocation model, so the covariances returned here are also
correlations.  With the stage ratio r = sqrt(min(j, j*) / max(j, j*)), each
group two contrasts share adds r/2 at the same sign and -r/2 at opposite ones.
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
        for name in ("arms", "stages", "n_per_stage"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.arms < 1:
            raise ValueError("arms must be at least 1")
        if self.stages != self.arms:
            raise ValueError("stages must equal arms (one drop per interim)")
        if len(self.boundaries) != self.stages:
            raise ValueError("need one boundary per stage")
        if self.n_per_stage < 1:
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


@dataclass(frozen=True)
class StatCoord:
    """One coordinate of the joint statistic vector: the stage-`stage`
    contrast Z_{arm_a} - Z_{arm_b} of two groups, group 0 the control.
    With arm_b = 0 it is arm_a's own statistic (see `single`)."""

    arm_a: int
    arm_b: int
    stage: int

    def __post_init__(self):
        if self.arm_a == self.arm_b:
            raise ValueError("a contrast needs two distinct groups")

    def validate(self, design: TrialDesign) -> None:
        if not (1 <= self.arm_a <= design.arms
                and 0 <= self.arm_b <= design.arms):
            raise ValueError(f"arm indices ({self.arm_a}, {self.arm_b}) "
                             f"outside 1..{design.arms} and 0..{design.arms}")
        if not 1 <= self.stage <= design.stages:
            raise ValueError(f"stage {self.stage} outside 1..{design.stages}")


def single(arm: int, stage: int) -> StatCoord:
    return StatCoord(arm, 0, stage)


def corr_between(a: StatCoord, b: StatCoord) -> float:
    """Correlation of two coordinates (both have unit variance).

    Group g's standardized cumulative mean has variance 1/2 at every
    stage; at two stages it covaries r/2, since the later mean holds the
    earlier one's patients, and distinct groups are independent.  So
    Z_a - Z_b at one stage against Z_c - Z_d at another correlates
    r/2 ([a=c] - [a=d] - [b=c] + [b=d]).
    """
    r = math.sqrt(min(a.stage, b.stage) / max(a.stage, b.stage))
    shared = ((a.arm_a == b.arm_a) - (a.arm_a == b.arm_b)
              - (a.arm_b == b.arm_a) + (a.arm_b == b.arm_b))
    return 0.5 * r * shared


def _difference(effects: EffectConfig, c: StatCoord) -> float:
    # delta_{arm_a} - delta_{arm_b}, group 0 the control
    deltas = (0.0, *effects.deltas)
    return deltas[c.arm_a] - deltas[c.arm_b]


def _stage_scale(design: TrialDesign, stage: int) -> float:
    # the mean of a stage-`stage` coordinate per unit of effect difference
    return math.sqrt(stage * design.n_per_stage) / (design.sigma * math.sqrt(2.0))


def mean_of(design: TrialDesign, effects: EffectConfig, c: StatCoord) -> float:
    """Expected value of a coordinate under the given effects: its effect
    difference times its stage's scale, one multiply, so a caller that
    checked the coordinate once can form the same product itself."""
    c.validate(design)
    if len(effects.deltas) != design.arms:
        raise ValueError("effects length must match the number of arms")
    return _difference(effects, c) * _stage_scale(design, c.stage)


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
