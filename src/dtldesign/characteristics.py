"""Operating characteristics of a calibrated design.

All quantities are analytic: the events module assembles each one as a
small family of multivariate-normal rectangle probabilities and this
module integrates them and does the patient bookkeeping.  PWER and the
crossing probability of arm 1 are one arm's group-sequential crossing
probability, computed by recursive quadrature (calibrate._no_crossing)
instead.  Each event set is integrated to one set-level error bound
(target_abs_error, DEFAULT_TARGET by default), its evaluations spent on the
problems that dominate that bound.  Integration noise is kept two orders of
magnitude below the reporting precision; a result whose error bound exceeds
the allowance raises instead of silently degrading the report.

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
from dataclasses import dataclass, field, replace

from .calibrate import ConvergenceError, _no_crossing
from .covariance import EffectConfig, TrialDesign, mean_of, single
from .endpoint import NormalEffectSpec
from .events import (
    global_null_typeI_problems,
    power_lfc_problems,
    reject_problems,
    set_probability,
    stop_stage_problems,
    total_probability,
    win_problems,
)
from .mvn import DEFAULT_TARGET, ProbabilityEstimate, _weighted_sum

__all__ = [
    "OperatingCharacteristics",
    "pwer",
    "power_lfc",
    "type_i_global_null",
    "stop_stage_probabilities",
    "stage_total_patients",
    "max_total_patients",
    "full_report",
    "analytic_estimates",
]

# The bound beyond which a result is refused; a smaller target is the
# remedy.  The allowance sits two orders below the coarsest reported
# digit, and is also how far a reported probability may stray outside
# [0, 1].  A family of J per-stage sets, each integrated to
# DEFAULT_TARGET, sums to a bound of at most sqrt(J) * DEFAULT_TARGET, and
# the final stop stage, one minus the J - 1 interim sets, to sqrt(J - 1)
# times it: both under the allowance for J <= 6.
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


def power_lfc(design: TrialDesign, theta_prime: float, theta_zero: float,
              *, target_abs_error: float = DEFAULT_TARGET,
              seed: int = 0) -> float:
    """P(recommend arm 1) when arm 1 sits at theta_prime and the rest at
    theta_zero; theta_prime must exceed theta_zero."""
    return _checked(total_probability(
        power_lfc_problems(design, theta_prime, theta_zero),
        target_abs_error=target_abs_error, seed=seed), "power")


def type_i_global_null(design: TrialDesign, *,
                       target_abs_error: float = DEFAULT_TARGET,
                       seed: int = 0) -> float:
    """P(reject a given null) when no treatment works."""
    return _checked(total_probability(
        global_null_typeI_problems(design),
        target_abs_error=target_abs_error, seed=seed), "type I")


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


def full_report(design: TrialDesign, endpoint: NormalEffectSpec,
                named_effect_configs: dict[str, EffectConfig], *,
                target_abs_error: float = DEFAULT_TARGET,
                seed: int = 0) -> OperatingCharacteristics:
    """Assemble the full report for one design.

    Expected sample size and stop-stage probabilities are computed for
    every named configuration; an empty map yields a report with the
    scalar fields only.
    """
    kw = {"target_abs_error": target_abs_error, "seed": seed}
    stops = {name: stop_stage_probabilities(design, effects, **kw)
             for name, effects in named_effect_configs.items()}
    return OperatingCharacteristics(
        pwer=pwer(design),
        power_lfc=power_lfc(design, endpoint.theta_prime,
                            endpoint.theta_zero, **kw),
        type_i_global_null=type_i_global_null(design, **kw),
        max_n=max_total_patients(design),
        ess={name: _ess_from_stop_probs(design, probs)
             for name, probs in stops.items()},
        stop_probs=stops,
    )


def analytic_estimates(design: TrialDesign, effects: EffectConfig, *,
                       target_abs_error: float = DEFAULT_TARGET,
                       seed: int = 0) -> dict[str, float]:
    """simulate.estimate_characteristics' metrics, computed analytically.

    Every number is held to ERROR_ALLOWANCE, as full_report's are, and the
    stop stages are checked first, so a refusal names what evaluate's
    would.  focal_crossing is the no-crossing quadrature at arm 1's
    per-stage drift, delta_1 sqrt(n) / (sigma sqrt(2)).
    """
    kw = {"target_abs_error": target_abs_error, "seed": seed}
    stops = stop_stage_probabilities(design, effects, **kw)
    out = {"power": _checked(total_probability(
               win_problems(design, effects), **kw), "power"),
           "reject": _checked(total_probability(
               reject_problems(design, effects), **kw), "reject"),
           "focal_crossing": 1.0 - _no_crossing(
               design.boundaries, mean_of(design, effects, single(1, 1))),
           "ess": _ess_from_stop_probs(design, stops)}
    out.update((f"stop_stage_{j}", p) for j, p in enumerate(stops, start=1))
    return out
