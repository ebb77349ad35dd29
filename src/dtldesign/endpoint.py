"""Binary endpoint to normal approximation.

The design engine works on a normal scale: a log-odds ratio theta with
variance parameter sigma^2.  A binary endpoint enters as a control event
rate and two absolute risk decreases (the clinically relevant one and the
largest uninteresting one); each decrease maps to

    theta = logit(p_control) - logit(p_control - rd),

and the variance convention is sigma^2 = 1 / (p_control (1 - p_control)),
the control-rate form.  A pooled-rate convention would be defensible too,
but this one is what the reference sample sizes were computed under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import logit

__all__ = [
    "BinaryEndpointSpec",
    "NormalEffectSpec",
    "binary_to_normal",
    "risk_decrease_to_log_odds",
]


@dataclass(frozen=True)
class BinaryEndpointSpec:
    """Clinical inputs for a binary (event rate) endpoint.

    Attributes:
        p_control: event probability on control.
        rd_relevant: absolute risk decrease considered clinically relevant.
        rd_uninteresting: largest absolute risk decrease of no interest.
    """

    p_control: float
    rd_relevant: float
    rd_uninteresting: float

    def __post_init__(self):
        if not 0.0 < self.p_control < 1.0:
            raise ValueError("p_control must be in (0, 1)")
        if not 0.0 < self.rd_uninteresting < self.rd_relevant:
            raise ValueError(
                "need 0 < rd_uninteresting < rd_relevant")
        if self.rd_relevant >= self.p_control:
            raise ValueError(
                "rd_relevant must leave a positive treated rate")


@dataclass(frozen=True)
class NormalEffectSpec:
    """Effect sizes on the working normal scale.

    theta_prime is the clinically relevant log-odds ratio, theta_zero the
    largest uninteresting one, sigma_sq the variance parameter of a single
    observation under the approximation.
    """

    theta_prime: float
    theta_zero: float
    sigma_sq: float

    def __post_init__(self):
        for name in ("theta_prime", "theta_zero", "sigma_sq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.theta_prime > self.theta_zero > 0.0:
            raise ValueError("need theta_prime > theta_zero > 0")
        if not self.sigma_sq > 0.0:
            raise ValueError("sigma_sq must be positive")

    @property
    def sigma(self) -> float:
        return self.sigma_sq ** 0.5


def risk_decrease_to_log_odds(p_control: float, rd: float) -> float:
    """Log-odds ratio for an absolute risk decrease of rd from p_control.

    rd = 0 gives exactly 0.  The treated rate p_control - rd must stay in
    (0, 1).
    """
    if not 0.0 < p_control < 1.0:
        raise ValueError("p_control must be in (0, 1)")
    treated = p_control - rd
    if not 0.0 < treated < 1.0:
        raise ValueError("treated rate p_control - rd must be in (0, 1)")
    return float(logit(p_control) - logit(treated))


def binary_to_normal(spec: BinaryEndpointSpec) -> NormalEffectSpec:
    """Convert a binary endpoint spec to normal-scale effect sizes."""
    return NormalEffectSpec(
        theta_prime=risk_decrease_to_log_odds(spec.p_control,
                                              spec.rd_relevant),
        theta_zero=risk_decrease_to_log_odds(spec.p_control,
                                             spec.rd_uninteresting),
        sigma_sq=1.0 / (spec.p_control * (1.0 - spec.p_control)),
    )
