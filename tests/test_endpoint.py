"""Binary-to-normal endpoint conversion."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy.special import expit, logit

from dtldesign.endpoint import (
    BinaryEndpointSpec,
    NormalEffectSpec,
    binary_to_normal,
    risk_decrease_to_log_odds,
)


class TestSpecValidation:
    def test_valid_spec(self):
        spec = BinaryEndpointSpec(0.12, 0.05, 0.01)
        assert spec.p_control == 0.12

    @pytest.mark.parametrize("kwargs", [
        dict(p_control=0.0, rd_relevant=0.05, rd_uninteresting=0.01),
        dict(p_control=1.0, rd_relevant=0.05, rd_uninteresting=0.01),
        dict(p_control=0.12, rd_relevant=0.01, rd_uninteresting=0.05),
        dict(p_control=0.12, rd_relevant=0.05, rd_uninteresting=0.0),
        dict(p_control=0.12, rd_relevant=0.05, rd_uninteresting=0.05),
        dict(p_control=0.12, rd_relevant=0.12, rd_uninteresting=0.01),
        dict(p_control=0.12, rd_relevant=0.20, rd_uninteresting=0.01),
    ])
    def test_bad_spec(self, kwargs):
        with pytest.raises(ValueError):
            BinaryEndpointSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(theta_prime=0.1, theta_zero=0.2, sigma_sq=1.0),
        dict(theta_prime=0.2, theta_zero=0.0, sigma_sq=1.0),
        dict(theta_prime=0.2, theta_zero=-0.1, sigma_sq=1.0),
        dict(theta_prime=0.2, theta_zero=0.1, sigma_sq=0.0),
    ])
    def test_bad_effects(self, kwargs):
        with pytest.raises(ValueError):
            NormalEffectSpec(**kwargs)

    @pytest.mark.parametrize("field", ["theta_prime", "theta_zero",
                                       "sigma_sq"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_effects_refused_by_name(self, field, value):
        kwargs = dict(theta_prime=0.5, theta_zero=0.1, sigma_sq=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NormalEffectSpec(**kwargs)

    def test_sigma_property(self):
        eff = NormalEffectSpec(0.5, 0.1, 9.0)
        assert eff.sigma == 3.0


class TestConversion:
    def test_reference_case(self):
        # 12% control rate, 5-point relevant and 1-point uninteresting
        # decreases: theta' = 0.594, theta_0 = 0.098, sigma^2 = 9.47.
        eff = binary_to_normal(BinaryEndpointSpec(0.12, 0.05, 0.01))
        assert eff.theta_prime == pytest.approx(0.594, abs=1e-3)
        assert eff.theta_zero == pytest.approx(0.098, abs=1e-3)
        assert eff.sigma_sq == pytest.approx(9.47, abs=1e-2)

    def test_zero_decrease_is_zero_effect(self):
        assert risk_decrease_to_log_odds(0.12, 0.0) == 0.0

    def test_hand_computed_case(self):
        # logit(0.5) - logit(0.4) = 0 - log(0.4/0.6) = log(1.5)
        theta = risk_decrease_to_log_odds(0.5, 0.1)
        assert theta == pytest.approx(math.log(1.5), abs=1e-12)
        eff = binary_to_normal(BinaryEndpointSpec(0.5, 0.1, 0.05))
        assert eff.theta_prime == pytest.approx(math.log(1.5), abs=1e-12)
        assert eff.sigma_sq == pytest.approx(4.0, abs=1e-12)

    def test_treated_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            risk_decrease_to_log_odds(0.12, 0.12)
        with pytest.raises(ValueError):
            risk_decrease_to_log_odds(0.12, -0.9)


@given(
    p=st.floats(min_value=0.05, max_value=0.95),
    rd_a=st.floats(min_value=1e-6, max_value=0.04),
    rd_b=st.floats(min_value=1e-6, max_value=0.04),
)
def test_log_odds_increasing_in_risk_decrease(p, rd_a, rd_b):
    lo, hi = sorted((rd_a, rd_b))
    if hi - lo < 1e-9:
        # below float resolution of the logit difference
        return
    assert (risk_decrease_to_log_odds(p, lo)
            < risk_decrease_to_log_odds(p, hi))


@given(
    p=st.floats(min_value=0.05, max_value=0.95),
    rd=st.floats(min_value=0.0, max_value=0.04),
)
def test_round_trip_recovers_treated_rate(p, rd):
    theta = risk_decrease_to_log_odds(p, rd)
    # theta = logit(p) - logit(p - rd), so the treated rate is
    # expit(logit(p) - theta)
    assert expit(logit(p) - theta) == pytest.approx(p - rd, abs=1e-12)
