"""Boundary scale and sample size calibration, and the comparators' sizes.

Two searches, run in this order (design_trial runs both):

1. calibrate_boundaries fixes the boundary shape (O'Brien-Fleming by
   default) and bisects on the scale c until the pairwise type I error
   lands inside [alpha - omega, alpha].  PWER does not depend on the
   per-stage sample size, so this is done once per shape.

2. find_sample_size takes the calibrated design and finds the smallest
   integer per-stage sample size whose power under the least favourable
   configuration reaches the target.  probit(power) is nearly linear in
   sqrt(n), so a secant search finds the same n as a one-patient-at-a-time
   scan in a few integrals, starting from the one-look z test's n; it
   falls back to bisection when the secant stalls.  Each visit's power is
   refined, on the scheduler that integrates every weighted family
   (mvn._refine), only while it sits within its error bound of the
   target.

PWER is one arm's group-sequential crossing probability, computed by
deterministic recursive quadrature (_no_crossing), so the boundaries
depend on no seed.  The sample size search integrates with a fixed seed
so its objective is a deterministic function of n; the monotonicity that
makes bracketing valid is asserted on the visited grid rather than
assumed.

The single-look comparators are sized here as well: comparator_multiarm
runs the same integer search on multiarm_lfc_power, one 1-D integral on
_no_crossing's Gauss-Legendre rule, and comparator_separate_trials is the
one-look z test's n in closed form.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .covariance import TrialDesign
from .endpoint import NormalEffectSpec
from .events import PERMUTATION_CAP, CapacityError, _lfc_family, _seeded
from .mvn import DEFAULT_TARGET, ProbabilityEstimate, _check_target, _refine

__all__ = [
    "BracketError",
    "SearchLimitError",
    "ConvergenceError",
    "CalibrationConfig",
    "BoundaryShape",
    "calibrate_boundaries",
    "find_sample_size",
    "design_trial",
    "multiarm_lfc_power",
    "comparator_multiarm",
    "comparator_separate_trials",
    "separate_trials_power",
]

_SHAPE_KINDS = ("obrien_fleming", "pocock", "custom")
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
    More than PERMUTATION_CAP stages, beyond the range the node count is
    verified for, raise CapacityError.
    """
    if len(boundaries) > PERMUTATION_CAP:
        raise CapacityError(
            f"{len(boundaries)} stages exceeds the cap of {PERMUTATION_CAP} "
            "that the crossing quadrature is verified for")
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
    the window first.  Bisection ends when the bracket can no longer be
    halved in floating point, which happens only when the window is
    narrower than PWER's rounding there.  PWER comes from _no_crossing,
    deterministic and converged far below the window width.  Returns the
    template with the calibrated boundaries and cfg.alpha installed.
    """
    mults = shape.multipliers(design_template.stages)
    window_lo = cfg.alpha - cfg.omega
    window_hi = cfg.alpha

    def at(c: float) -> tuple[TrialDesign, float]:
        d = dataclasses.replace(design_template,
                                boundaries=tuple(c * m for m in mults))
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

    while (c_mid := 0.5 * (c_lo + c_hi)) not in (c_lo, c_hi):
        d_mid, p_mid = at(c_mid)
        if window_lo <= p_mid <= window_hi:
            return done(d_mid)
        if p_mid > window_hi:
            c_lo = c_mid
        else:
            c_hi = c_mid
    raise BracketError(
        f"the boundary scale bisection stopped at {c_lo:.6g} without PWER "
        f"landing in the window [{window_lo:.6g}, {window_hi:.6g}]: "
        "alpha or omega is finer than PWER can resolve")


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
    inside the bracket, so no n is visited twice.  A secant step that
    neither halves the bracket nor, while none passes, doubles the largest
    failing n or halves |g| there is followed by a bisection (doubling)
    step, as is a step with no finite secant (power 0, 1 or outside
    [0, 1]).  |g| can halve only about 60 times before it reaches the
    resolution of doubles, so the worst case stays logarithmic in max_n.
    Ends with n - 1 failing and n passing, both visited.
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
            lo < 2 * was_lo and not 2 * abs(g[lo]) < abs(g[was_lo])
            if hi > max_n
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


def find_sample_size(design: TrialDesign, theta_prime: float,
                     theta_zero: float,
                     cfg: CalibrationConfig = CalibrationConfig(0.025, 0.9),
                     *,
                     seed: int = 0,
                     target_abs_error: float = DEFAULT_TARGET) -> TrialDesign:
    """Smallest per-stage n with LFC power >= cfg.power_target.

    A probit-secant search, seeded with the one-look z test's n over the
    stage count.  Each visit integrates the whole LFC win family on
    mvn._refine: every problem runs its first round, and the problem
    that dominates the family bound runs one more only while the power
    sits within that bound of the target and the bound is above
    target_abs_error.  A visit still that close then raises
    ConvergenceError.  So the answer n passes, and n - 1 fails, each by
    more than its error bound.  The same integration seed is used at
    every n (common random numbers), so the visited power curve is
    smooth; it is asserted nondecreasing up to twice the integration
    error bound.

    The family is enumerated and checked once per call, and a visit
    computes only its means (events._family); each problem's Sobol draws
    are made at its first visit and reused after (mvn._Integral).
    Neither outlives the call.
    """
    _check_target(target_abs_error)
    target = cfg.power_target
    guess, slope = _one_look_model(cfg.alpha, target, theta_prime,
                                   design.sigma, design.stages)
    visited: dict[int, tuple[float, float]] = {}
    sets_at = _lfc_family(design, theta_prime, theta_zero)
    draws: dict = {}

    def power_at(n: int) -> float:
        est = _refine(
            [term for pset in sets_at(n) for term in _seeded(pset, seed)],
            lambda est: (abs(est.value - target) > est.error_bound
                         or est.error_bound <= target_abs_error), draws)
        power = _converged(est, "power")
        if abs(power - target) <= est.error_bound:
            raise ConvergenceError(
                f"power({n})={power:.6f} is within its error bound "
                f"{est.error_bound:.2e} of the target {target} at the "
                f"integration target {target_abs_error:.2e}; lower "
                "target_abs_error (--tol on the CLI)")
        visited[n] = power, est.error_bound
        return power

    n = _smallest_passing_n(power_at, target, _MAX_N, guess, slope)
    grid = sorted(visited)
    for a, b in zip(grid, grid[1:]):
        (pa, ea), (pb, eb) = visited[a], visited[b]
        if pb < pa - 2.0 * (ea + eb):
            raise ConvergenceError(
                f"power not nondecreasing on the visited grid: "
                f"power({a})={pa:.6f} vs power({b})={pb:.6f}")
    return dataclasses.replace(design, n_per_stage=n)


def design_trial(arms: int, shape: BoundaryShape, cfg: CalibrationConfig,
                 endpoint: NormalEffectSpec, *, seed: int = 0,
                 target_abs_error: float = DEFAULT_TARGET) -> TrialDesign:
    """A K-arm, K-stage trial with calibrated boundaries and the smallest
    per-stage n that powers it: calibrate_boundaries, then
    find_sample_size at target_abs_error."""
    template = TrialDesign(arms, arms, 1, shape.multipliers(arms), cfg.alpha,
                           endpoint.sigma)
    design = calibrate_boundaries(template, shape, cfg)
    return find_sample_size(design, endpoint.theta_prime, endpoint.theta_zero,
                            cfg, seed=seed, target_abs_error=target_abs_error)


def _check_comparator(arms: int, alpha: float, power_target: float,
                      theta_prime: float, sigma: float) -> None:
    if not isinstance(arms, numbers.Integral) or arms < 1:
        raise ValueError(f"arms must be an integer >= 1, got {arms!r}")
    if not 0.0 < alpha < 1.0 or not 0.0 < power_target < 1.0:
        raise ValueError("alpha and power_target must be in (0, 1)")
    if not (0.0 < theta_prime < math.inf and 0.0 < sigma < math.inf):
        raise ValueError("theta_prime and sigma must be positive and finite")


def multiarm_lfc_power(arms: int, n: int, alpha: float, theta_prime: float,
                       theta_zero: float, sigma: float) -> float:
    """LFC power of the single-look K-arm comparator at n per arm.

    Arm 1 must beat the critical value and every other arm.  Given the
    standardized mean t of arm 1, the control and the K - 1 rivals are
    independent, so the K-dimensional probability is one integral
    (Dunnett 1955):

        int phi(t) Phi(a + t) Phi(b + t)^(K-1) dt,
        a = theta' sqrt(n) / sigma - z_{1-alpha} sqrt(2),
        b = (theta' - theta_0) sqrt(n) / sigma,

    taken with _no_crossing's Gauss-Legendre rule on |t| <= _TAIL_SDS.
    Deterministic: no integration target, no seed.
    """
    nodes, weights = _gauss_legendre(_QUADRATURE_NODES)
    t = _TAIL_SDS * nodes
    scale = math.sqrt(n) / sigma
    a = theta_prime * scale - float(ndtri(1.0 - alpha)) * math.sqrt(2.0)
    b = (theta_prime - theta_zero) * scale
    density = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return float(_TAIL_SDS * weights
                 @ (density * ndtr(a + t) * ndtr(b + t) ** (arms - 1)))


def comparator_multiarm(arms: int, alpha: float, power_target: float,
                        theta_prime: float, theta_zero: float, sigma: float
                        ) -> tuple[int, int]:
    """Single-look K-arm design: (n per arm, maximum total patients).

    Pairwise error control needs only the marginal critical value; the
    sample size comes from the same probit-secant search as the main
    design, seeded with the two-arm z test's n, on the one-dimensional
    recommendation probability of multiarm_lfc_power.  A single arm has
    no rival, so theta_zero is then unconstrained.
    """
    _check_comparator(arms, alpha, power_target, theta_prime, sigma)
    if arms > 1 and not theta_prime > theta_zero:
        raise ValueError("need theta_prime > theta_zero")

    n = _smallest_passing_n(
        lambda n: multiarm_lfc_power(arms, n, alpha, theta_prime,
                                     theta_zero, sigma),
        power_target, _MAX_N,
        *_one_look_model(alpha, power_target, theta_prime, sigma))
    return n, (arms + 1) * n


def comparator_separate_trials(arms: int, alpha: float, power_target: float,
                               theta_prime: float, sigma: float
                               ) -> tuple[int, int]:
    """K independent two-arm trials: (n per group, maximum total patients).

    Each trial brings its own control, so the total is 2*K*n with
    n = ceil(2 sigma^2 (z_{1-alpha} + z_{power})^2 / theta_prime^2), and
    at least 1.
    """
    _check_comparator(arms, alpha, power_target, theta_prime, sigma)
    n = max(math.ceil(_one_look_model(alpha, power_target, theta_prime,
                                      sigma)[0]), 1)
    return n, 2 * arms * n


def separate_trials_power(n: int, alpha: float, theta_prime: float,
                          sigma: float) -> float:
    """Power of one two-arm trial at n per group: the inverse of the
    sample size formula in comparator_separate_trials."""
    return float(ndtr(theta_prime * math.sqrt(n / 2.0) / sigma
                      - ndtri(1.0 - alpha)))
