"""Boundary scale and sample size calibration.

Two searches, run in this order (design_trial runs both):

1. calibrate_boundaries fixes the boundary shape (O'Brien-Fleming by
   default) and bisects on the scale c until the pairwise type I error
   lands inside [alpha - omega, alpha].  PWER does not depend on the
   per-stage sample size, so this is done once per shape.

2. find_sample_size takes the calibrated design and finds the smallest
   integer per-stage sample size whose power under the least favourable
   configuration reaches the target.  probit(power) is nearly linear in
   sqrt(n), so a secant search seeded with the one-look z test's n finds
   the same n as a one-patient-at-a-time scan in a few integrals; it
   falls back to bisection when the secant stalls.

PWER is one arm's group-sequential crossing probability, computed by
deterministic recursive quadrature (_no_crossing), so the boundaries
depend on no seed.  The sample size search integrates with a fixed seed
so its objective is a deterministic function of n; the monotonicity that
makes bracketing valid is asserted on the visited grid rather than
assumed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .covariance import TrialDesign
from .endpoint import NormalEffectSpec
from .events import power_lfc_problems, total_probability
from .mvn import ProbabilityEstimate

__all__ = [
    "BracketError",
    "SearchLimitError",
    "ConvergenceError",
    "CalibrationConfig",
    "BoundaryShape",
    "calibrate_boundaries",
    "find_sample_size",
    "design_trial",
]

_SHAPE_KINDS = ("obrien_fleming", "pocock", "custom")
_MAX_BISECTIONS = 200  # scale bisections before calibrate_boundaries gives up
# the boundary scale bisection searches c in this bracket, and the sample
# size searches n in 1.._MAX_N
_SCALE_BRACKET = (0.5, 10.0)
_MAX_N = 100_000
# Gauss-Legendre nodes per stage of the no-crossing recursion: 128 nodes
# move its value by under 1e-13 at up to eight stages
_QUADRATURE_NODES = 64
# the recursion drops the walk's mass more than this many standard
# deviations below its mean (about 8e-24)
_TAIL_SDS = 10.0
# per-problem integration target of the sample size search: well below the
# power gap between consecutive n near the reference designs (~5e-4)
SEARCH_TARGET = 1e-5
# a bracket within noise at the search target is integrated once more at
# the target divided by this
BRACKET_RETRY_FACTOR = 5


class BracketError(ValueError):
    """No boundary scale in the search bracket reaches the PWER target."""


class SearchLimitError(RuntimeError):
    """The sample size search hit its cap before reaching the target."""


class ConvergenceError(RuntimeError):
    """An integration failed to converge during a search."""


@dataclass(frozen=True)
class CalibrationConfig:
    """Targets for both calibration passes.

    Attributes:
        alpha: pairwise type I error target.
        power_target: required power under the least favourable
            configuration (1 - beta).
        omega: width of the accepted PWER window [alpha - omega, alpha].
    """

    alpha: float
    power_target: float
    omega: float = 1e-5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.power_target < 1.0:
            raise ValueError("power_target must be in (0, 1)")
        if not 0.0 < self.omega < self.alpha:
            raise ValueError("need 0 < omega < alpha")


@dataclass(frozen=True)
class BoundaryShape:
    """Boundary profile up to a common scale factor.

    kind "obrien_fleming" uses multipliers sqrt(J/j), "pocock" a flat
    profile, "custom" the supplied multipliers.  Custom multipliers must
    be strictly positive; +inf on a non-final stage disables stopping
    there (drop-the-loser without early stopping is custom
    (inf, ..., inf, 1)).
    """

    kind: str = "obrien_fleming"
    custom_multipliers: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if (self.custom_multipliers is not None) != (self.kind == "custom"):
            raise ValueError(
                "custom_multipliers required iff kind == 'custom'")
        if self.custom_multipliers is not None:
            object.__setattr__(
                self, "custom_multipliers",
                tuple(float(m) for m in self.custom_multipliers))

    def multipliers(self, stages: int) -> tuple[float, ...]:
        if stages < 1:
            raise ValueError("stages must be at least 1")
        if self.kind == "obrien_fleming":
            return tuple(math.sqrt(stages / j)
                         for j in range(1, stages + 1))
        if self.kind == "pocock":
            return (1.0,) * stages
        mults = self.custom_multipliers
        if len(mults) != stages:
            raise ValueError(
                f"need {stages} multipliers, got {len(mults)}")
        if any(not m > 0.0 or math.isnan(m) for m in mults):
            raise ValueError("multipliers must be strictly positive")
        if not math.isfinite(mults[-1]):
            raise ValueError("final multiplier must be finite")
        return mults


def _converged(est: ProbabilityEstimate, what: str) -> float:
    """est.value, unless an integration behind it hit its evaluation cap."""
    if not est.converged:
        raise ConvergenceError(
            f"{what} integration stalled at error bound "
            f"{est.error_bound:.2e}")
    return est.value


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(nodes)


def _no_crossing(boundaries, drift: float) -> float:
    """P(S_j < u_j sqrt(j) at every stage j), where S is a Gaussian random
    walk whose stage increments have mean `drift` and unit variance: one
    arm's cumulative z statistics Z_j = S_j / sqrt(j) all stay below
    their boundaries.

    Recursive numerical integration (Armitage, McPherson & Rowe 1969;
    Jennison & Turnbull 2000, ch. 19).  The sub-density of S_j lives on a
    Gauss-Legendre rule over [drift j - 10 sqrt(j), u_j sqrt(j)]; each
    stage's weights are the previous stage's weights convolved with the
    increment density, and the final stage closes with ndtr.  A stage
    with u_j = +inf constrains nothing, so the walk carries on to the next
    finite stage over the summed gap.  The final boundary must be finite.
    """
    nodes, weights = _gauss_legendre(_QUADRATURE_NODES)
    finite = [(j, u) for j, u in enumerate(boundaries, start=1)
              if math.isfinite(u)]
    last, u_last = finite[-1]
    x, w, t = np.zeros(1), np.ones(1), 0   # S_0 = 0 with mass one
    for j, u in finite[:-1]:
        lo = drift * j - _TAIL_SDS * math.sqrt(j)
        hi = u * math.sqrt(j)
        if not hi > lo:
            return 0.0
        half = 0.5 * (hi - lo)
        x_next = lo + half * (nodes + 1.0)
        sd = math.sqrt(j - t)
        z = (x_next[:, None] - x - drift * (j - t)) / sd
        density = np.exp(-0.5 * z * z) @ w / (sd * math.sqrt(2.0 * math.pi))
        x, w, t = x_next, half * weights * density, j
    gap = last - t        # u_last sqrt(last / gap) is exactly u_last at t = 0
    return float(w @ ndtr(u_last * math.sqrt(last / gap)
                          - (x + drift * gap) / math.sqrt(gap)))


def calibrate_boundaries(design_template: TrialDesign,
                         shape: BoundaryShape = BoundaryShape(),
                         cfg: CalibrationConfig = CalibrationConfig(0.025, 0.9)
                         ) -> TrialDesign:
    """Bisect the boundary scale until PWER falls in [alpha - omega, alpha].

    PWER is continuous and strictly decreasing in the scale, so plain
    bisection converges; the ends of _SCALE_BRACKET are checked to straddle
    the window first.  PWER comes from _no_crossing, deterministic and
    converged far below the window width.  Returns the template with the
    calibrated boundaries and cfg.alpha installed.
    """
    mults = shape.multipliers(design_template.stages)
    window_lo = cfg.alpha - cfg.omega
    window_hi = cfg.alpha

    def at(c: float) -> tuple[TrialDesign, float]:
        d = design_template.with_boundaries(tuple(c * m for m in mults))
        return d, 1.0 - _no_crossing(d.boundaries, 0.0)

    def done(design: TrialDesign) -> TrialDesign:
        return dataclasses.replace(design, alpha=cfg.alpha)

    c_lo, c_hi = _SCALE_BRACKET
    d_lo, p_lo = at(c_lo)      # largest PWER: boundaries lowest here
    if window_lo <= p_lo <= window_hi:
        return done(d_lo)
    if p_lo < window_lo:
        raise BracketError(
            f"PWER at the lowest boundary scale {c_lo} is {p_lo:.6g}, below "
            f"the window [{window_lo:.6g}, {window_hi:.6g}]: alpha is out of "
            "the search's reach")
    d_hi, p_hi = at(c_hi)
    if window_lo <= p_hi <= window_hi:
        return done(d_hi)
    if p_hi > window_hi:
        raise BracketError(
            f"PWER at the highest boundary scale {c_hi} is {p_hi:.6g}, above "
            f"the window [{window_lo:.6g}, {window_hi:.6g}]: alpha is out of "
            "the search's reach")

    for _ in range(_MAX_BISECTIONS):
        c_mid = 0.5 * (c_lo + c_hi)
        d_mid, p_mid = at(c_mid)
        if window_lo <= p_mid <= window_hi:
            return done(d_mid)
        if p_mid > window_hi:
            c_lo = c_mid
        else:
            c_hi = c_mid
    raise ConvergenceError(
        "bisection exhausted its iteration budget without landing in "
        f"the PWER window [{window_lo:.6f}, {window_hi:.6f}]")


def _one_look_model(alpha: float, power_target: float, theta_prime: float,
                    sigma: float, looks: int = 1) -> tuple[float, float]:
    """(n, slope): the one-look z test on `looks` stages' patients per n
    has probit(power) = slope sqrt(n) - z_{1-alpha}, which reaches
    power_target at n = 2 sigma^2 (z_{1-alpha} + z_{power})^2 / theta'^2 /
    looks (unrounded), slope = theta' sqrt(looks / 2) / sigma."""
    if not theta_prime > 0.0:
        raise ValueError("theta_prime must be positive")
    z_sum = float(ndtri(1.0 - alpha)) + float(ndtri(power_target))
    # square the ratio, not theta', so a huge theta' cannot overflow
    n = 2.0 * (sigma * z_sum / theta_prime) ** 2 / looks
    return n, theta_prime * math.sqrt(looks / 2.0) / sigma


def _smallest_passing_n(power_at, target: float, max_n: int, guess: float,
                        slope: float) -> int:
    """Smallest n in 1..max_n with power_at(n) >= target, for a
    nondecreasing power_at.

    Regula falsi on g(n) = probit(power_at(n)) - probit(target), which is
    close to linear in sqrt(n): visit ceil(guess), step once along the
    model slope of g in sqrt(n), then along secants through the bracketing
    visits (the two nearest visits while one side is open), strictly
    inside the bracket, so no n is visited twice.  A secant step that does
    not halve the bracket (double the largest failing n while none passes)
    is followed by a bisection (doubling) step, as is a step with no
    finite secant (power 0, 1 or outside [0, 1]): the worst case stays
    logarithmic in max_n.  Ends with n - 1 failing and n passing, both
    visited.
    """
    z_target = float(ndtri(target))
    g: dict[int, float] = {}   # visited n -> probit(power) - probit(target)
    lo, hi = 0, max_n + 1      # largest failing and smallest passing n
    n, root = min(max(math.ceil(guess), 1), max_n), math.nan
    while True:
        power = power_at(n)
        if power < target and n == max_n:
            raise SearchLimitError(
                f"power {power:.4f} at n={n} still below {target} "
                f"(max_n={max_n})")
        g[n] = float(ndtri(power)) - z_target
        was_lo, was_hi = lo, hi
        lo, hi = (lo, n) if power >= target else (n, hi)
        if hi - lo == 1:
            return hi
        stalled = len(g) > 2 and math.isfinite(root) and (
            lo < 2 * was_lo if hi > max_n
            else was_hi <= max_n and 2 * (hi - lo) > was_hi - was_lo)
        if stalled:
            root = math.nan
        elif len(g) == 1:                           # the model step
            root = math.sqrt(n) - g[n] / slope
        else:
            ends = [m for m in (lo, hi) if m in g]
            a, b = sorted(ends if len(ends) == 2 else
                          sorted(g, key=lambda m: abs(m - ends[0]))[:2])
            rise = g[b] - g[a]    # inf or nan unless both probits are finite
            root = (math.sqrt(a) - g[a] * (math.sqrt(b) - math.sqrt(a)) / rise
                    if 0.0 < rise < math.inf else math.nan)
        if math.isfinite(root):
            root = min(max(root, math.sqrt(lo)), math.sqrt(hi))
            n = min(max(math.ceil(root ** 2), lo + 1), hi - 1)
        else:
            n = (lo + hi) // 2 if hi <= max_n else min(2 * lo, max_n)


def _lfc_power(design: TrialDesign, theta_prime: float, theta_zero: float,
               *, target: float, seed: int) -> tuple[float, float]:
    sets = power_lfc_problems(design, theta_prime, theta_zero)
    est = total_probability(sets, target_abs_error=target, seed=seed)
    return _converged(est, "power"), est.error_bound


def find_sample_size(design: TrialDesign, theta_prime: float,
                     theta_zero: float,
                     cfg: CalibrationConfig = CalibrationConfig(0.025, 0.9),
                     *,
                     seed: int = 0,
                     target_abs_error: float = SEARCH_TARGET) -> TrialDesign:
    """Smallest per-stage n with LFC power >= cfg.power_target.

    A probit-secant search seeded with the one-look z test's n over the
    stage count.  The same integration seed is used at every n (common
    random numbers), so the visited power curve is smooth; it is asserted
    nondecreasing up to twice the integration error bound.  The answer n
    must clear the target, and n - 1 fall short of it, each by more than
    its error bound; if not, both are integrated once more at
    target_abs_error / BRACKET_RETRY_FACTOR, and if the bracket still
    rests on integration noise the search raises ConvergenceError.
    """
    visited: dict[int, tuple[float, float]] = {}

    def power_at(n: int, tol: float = target_abs_error) -> float:
        visited[n] = _lfc_power(design.with_n(n), theta_prime, theta_zero,
                                target=tol, seed=seed)
        return visited[n][0]

    n = _smallest_passing_n(
        power_at, cfg.power_target, _MAX_N,
        *_one_look_model(cfg.alpha, cfg.power_target, theta_prime,
                         design.sigma, design.stages))

    grid = sorted(visited)
    for a, b in zip(grid, grid[1:]):
        (pa, ea), (pb, eb) = visited[a], visited[b]
        if pb < pa - 2.0 * (ea + eb):
            raise ConvergenceError(
                f"power not nondecreasing on the visited grid: "
                f"power({a})={pa:.6f} vs power({b})={pb:.6f}")
    if n == 1:
        return design.with_n(n)
    target = cfg.power_target
    for retry in (False, True):
        if retry:
            for m in (n - 1, n):
                power_at(m, target_abs_error / BRACKET_RETRY_FACTOR)
        (p_hi, e_hi), (p_lo, e_lo) = visited[n], visited[n - 1]
        if p_hi - target > e_hi and target - p_lo > e_lo:
            return design.with_n(n)
    raise ConvergenceError(
        f"power bracket around {target} rests on integration noise: "
        f"power({n - 1})={p_lo:.6f} at error bound {e_lo:.2e}, "
        f"power({n})={p_hi:.6f} at error bound {e_hi:.2e}; lower "
        "target_abs_error (--tol on the CLI)")


def design_trial(arms: int, shape: BoundaryShape, cfg: CalibrationConfig,
                 endpoint: NormalEffectSpec, *, seed: int = 0,
                 target_abs_error: float = SEARCH_TARGET) -> TrialDesign:
    """A K-arm, K-stage trial with calibrated boundaries and the smallest
    per-stage n that powers it: calibrate_boundaries, then
    find_sample_size at target_abs_error."""
    template = TrialDesign(arms, arms, 1, shape.multipliers(arms), cfg.alpha,
                           endpoint.sigma)
    design = calibrate_boundaries(template, shape, cfg)
    return find_sample_size(design, endpoint.theta_prime, endpoint.theta_zero,
                            cfg, seed=seed, target_abs_error=target_abs_error)
