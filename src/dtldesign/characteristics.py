"""Operating characteristics of a calibrated design, plus comparators.

All quantities are analytic: the events module assembles each one as a
small family of multivariate-normal rectangle probabilities and this
module integrates them and does the patient bookkeeping.  PWER and the
crossing probability of arm 1 are one arm's group-sequential crossing
probability, computed by recursive quadrature (calibrate._no_crossing)
instead, and the single-look multi-arm comparator's power is one 1-D
integral on the same Gauss-Legendre rule.  Integration
noise is kept two orders of magnitude below the reporting precision;
a result whose error bound exceeds the allowance raises instead of
silently degrading the report.

Patient counts assume the equal-allocation schedule: n patients per
remaining arm (control included) per stage, one arm dropped at each
interim.  If the trial stops at stage j the total spent is

    N_j = sum_{i<j} i*n + (K - j + 2) * j * n,

the dropped arms having received n, 2n, ... and the j*n block covering
each of the K - j + 1 surviving arms and the control.  An equivalent
per-group rendering (cumulative arm totals plus the control's j*n) is
used as a cross-check in the tests; the two are algebraically identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .calibrate import (_MAX_N, _QUADRATURE_NODES, _TAIL_SDS,
                        ConvergenceError, _converged, _gauss_legendre,
                        _no_crossing, _one_look_model, _smallest_passing_n)
from .covariance import EffectConfig, TrialDesign, mean_of, single
from .endpoint import NormalEffectSpec
from .events import (
    _weighted_sum,
    global_null_typeI_problems,
    power_lfc_problems,
    reject_problems,
    set_probability,
    stop_stage_problems,
    total_probability,
    win_problems,
)
from .mvn import ProbabilityEstimate

__all__ = [
    "OperatingCharacteristics",
    "pwer",
    "power_lfc",
    "type_i_global_null",
    "stop_stage_probabilities",
    "stage_total_patients",
    "max_total_patients",
    "multiarm_lfc_power",
    "comparator_multiarm",
    "comparator_separate_trials",
    "separate_trials_power",
    "full_report",
    "analytic_estimates",
]

# Per-problem integration target, and the weighted set-level error bound
# beyond which a result is refused; a smaller target is the remedy.  The
# allowance sits two orders below the coarsest reported digit, and is also
# how far a reported probability may stray outside [0, 1].
DEFAULT_TARGET = 2e-6
ERROR_ALLOWANCE = 5e-5

_PARTITION_SLACK = 2e-5   # stop-stage probabilities must sum to one


@dataclass(frozen=True)
class OperatingCharacteristics:
    """One report row: error rates, power, and patient numbers.

    ess and stop_probs are keyed by the caller's configuration names
    (for example "global_null", "lfc", "all_relevant").
    """

    pwer: float
    power_lfc: float
    type_i_global_null: float
    max_n: int
    ess: dict[str, float] = field(default_factory=dict)
    stop_probs: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name, p in (("pwer", self.pwer),
                        ("power_lfc", self.power_lfc),
                        ("type_i_global_null", self.type_i_global_null)):
            if not -ERROR_ALLOWANCE <= p <= 1.0 + ERROR_ALLOWANCE:
                raise ValueError(f"{name}={p} is not a probability")
        if self.max_n < 1:
            raise ValueError("max_n must be positive")
        if set(self.ess) != set(self.stop_probs):
            raise ValueError("ess and stop_probs must share their keys")
        # per-stage probability noise times the largest stage cost
        ess_slack = ERROR_ALLOWANCE * self.max_n * max(
            (len(p) for p in self.stop_probs.values()), default=1)
        for name, value in self.ess.items():
            if not 0.0 <= value <= self.max_n + ess_slack:
                raise ValueError(
                    f"ess[{name!r}]={value} outside [0, max_n={self.max_n}]")
        for name, probs in self.stop_probs.items():
            if any(not -ERROR_ALLOWANCE <= p <= 1.0 + ERROR_ALLOWANCE
                   for p in probs):
                raise ValueError(f"stop_probs[{name!r}] not probabilities")
            if abs(math.fsum(probs) - 1.0) > _PARTITION_SLACK:
                raise ValueError(
                    f"stop_probs[{name!r}] sum to {math.fsum(probs)}, not 1")


def pwer(design: TrialDesign) -> float:
    """Pairwise type I error: the chance that a given arm's statistic ever
    clears its boundary under its null, which bounds P(recommend that arm)
    whatever the other arms do.  Deterministic quadrature: no integration
    target, no seed."""
    return 1.0 - _no_crossing(design.boundaries, 0.0)


def _checked(est: ProbabilityEstimate, what: str) -> float:
    if est.error_bound > ERROR_ALLOWANCE:
        raise ConvergenceError(
            f"{what} error bound {est.error_bound:.2e} exceeds the "
            f"allowance {ERROR_ALLOWANCE:.0e}; lower target_abs_error "
            "(--tol on the CLI)")
    return est.value


def _checked_total(sets, what: str, **integration) -> float:
    return _checked(total_probability(sets, **integration), what)


def power_lfc(design: TrialDesign, theta_prime: float, theta_zero: float,
              *, target_abs_error: float = DEFAULT_TARGET,
              seed: int = 0) -> float:
    """P(recommend arm 1) when arm 1 sits at theta_prime and the rest at
    theta_zero; theta_prime must exceed theta_zero."""
    return _checked_total(power_lfc_problems(design, theta_prime, theta_zero),
                          "power", target_abs_error=target_abs_error,
                          seed=seed)


def type_i_global_null(design: TrialDesign, *,
                       target_abs_error: float = DEFAULT_TARGET,
                       seed: int = 0) -> float:
    """P(reject a given null) when no treatment works."""
    return _checked_total(global_null_typeI_problems(design), "type I",
                          target_abs_error=target_abs_error, seed=seed)


def _stop_estimates(design: TrialDesign, effects: EffectConfig,
                    **integration) -> list[ProbabilityEstimate]:
    """P(trial ends at stage j), j = 1..J: the interim sets integrated, then
    the final stage as one minus them, their bounds in quadrature.  The
    final value is clamped to [0, 1], where integration noise could take a
    near-certain or near-impossible stage past them; its bound is kept."""
    interim = [set_probability(pset, **integration)
               for pset in stop_stage_problems(design, effects)]
    final = _weighted_sum(
        [(1, ProbabilityEstimate(1.0, 0.0, 0)), *((-1, e) for e in interim)])
    return [*interim, replace(final, value=min(max(final.value, 0.0), 1.0))]


def stop_stage_probabilities(design: TrialDesign, effects: EffectConfig,
                             *, target_abs_error: float = DEFAULT_TARGET,
                             seed: int = 0) -> tuple[float, ...]:
    """P(trial ends at stage j) for j = 1..J; sums to one."""
    return tuple(_checked(est, f"stop-stage {j}") for j, est in enumerate(
        _stop_estimates(design, effects, target_abs_error=target_abs_error,
                        seed=seed), start=1))


def stage_total_patients(design: TrialDesign, stage: int) -> int:
    """Patients recruited in total when the trial ends at `stage`."""
    if not 1 <= stage <= design.stages:
        raise ValueError(f"stage must be in 1..{design.stages}")
    n = design.n_per_stage
    dropped = sum(range(1, stage)) * n
    running = (design.arms - stage + 2) * stage * n
    return dropped + running


def max_total_patients(design: TrialDesign) -> int:
    """Patient total when no early stop occurs (the design maximum)."""
    return stage_total_patients(design, design.stages)


def _ess_from_stop_probs(design: TrialDesign,
                         probs: tuple[float, ...]) -> float:
    return math.fsum(p * stage_total_patients(design, j + 1)
                     for j, p in enumerate(probs))


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

    taken with calibrate._no_crossing's Gauss-Legendre rule on
    |t| <= _TAIL_SDS.  Deterministic: no integration target, no seed.
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


def full_report(design: TrialDesign, endpoint: NormalEffectSpec,
                named_effect_configs: dict[str, EffectConfig], *,
                target_abs_error: float = DEFAULT_TARGET,
                seed: int = 0) -> OperatingCharacteristics:
    """Assemble the full report for one design.

    Expected sample size and stop-stage probabilities are computed for
    every named configuration; an empty map yields a report with the
    scalar fields only.
    """
    ess: dict[str, float] = {}
    stops: dict[str, tuple[float, ...]] = {}
    for name, effects in named_effect_configs.items():
        probs = stop_stage_probabilities(
            design, effects, target_abs_error=target_abs_error, seed=seed)
        stops[name] = probs
        ess[name] = _ess_from_stop_probs(design, probs)
    return OperatingCharacteristics(
        pwer=pwer(design),
        power_lfc=power_lfc(design, endpoint.theta_prime,
                            endpoint.theta_zero,
                            target_abs_error=target_abs_error, seed=seed),
        type_i_global_null=type_i_global_null(
            design, target_abs_error=target_abs_error, seed=seed),
        max_n=max_total_patients(design),
        ess=ess,
        stop_probs=stops,
    )


def analytic_estimates(design: TrialDesign, effects: EffectConfig, *,
                       target_abs_error: float = DEFAULT_TARGET,
                       seed: int = 0) -> dict[str, float]:
    """simulate.estimate_characteristics' metrics, computed analytically.

    Every integration must converge, but set bounds are not held to
    ERROR_ALLOWANCE, so a cheap cross-check may run at a coarse target.
    focal_crossing is the no-crossing quadrature at arm 1's per-stage
    drift, delta_1 sqrt(n) / (sigma sqrt(2)).
    """
    kw = {"target_abs_error": target_abs_error, "seed": seed}
    win = total_probability(win_problems(design, effects), **kw)
    rej = total_probability(reject_problems(design, effects), **kw)
    stops = tuple(_converged(est, f"stop-stage {j}") for j, est in
                  enumerate(_stop_estimates(design, effects, **kw), start=1))
    out = {"power": _converged(win, "power"),
           "reject": _converged(rej, "reject"),
           "focal_crossing": 1.0 - _no_crossing(
               design.boundaries, mean_of(design, effects, single(1, 1))),
           "ess": _ess_from_stop_probs(design, stops)}
    out.update((f"stop_stage_{j}", p) for j, p in enumerate(stops, start=1))
    return out
