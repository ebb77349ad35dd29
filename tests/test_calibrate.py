"""Boundary calibration and sample size search."""

import math

import pytest
from scipy.stats import norm

from dtldesign import calibrate
from dtldesign.calibrate import (
    BoundaryShape,
    BracketError,
    CalibrationConfig,
    ConvergenceError,
    SearchLimitError,
    calibrate_boundaries,
    design_trial,
    find_sample_size,
    obf_shape,
)
from dtldesign.characteristics import comparator_separate_trials
from dtldesign.covariance import TrialDesign
from dtldesign.endpoint import NormalEffectSpec
from dtldesign.events import pwer_problem
from dtldesign.mvn import ProbabilityEstimate, mvn_rectangle_prob

SIGMA = math.sqrt(9.47)
THETA_P = 0.594
THETA_0 = 0.098

TEMPLATE3 = TrialDesign(3, 3, 10, (3.5, 2.5, 2.0), 0.025, SIGMA)
TEMPLATE1 = TrialDesign(1, 1, 10, (2.0,), 0.025, 1.0)
CFG = CalibrationConfig(alpha=0.025, power_target=0.9)
DTL_SHAPE = BoundaryShape("custom", (math.inf, math.inf, 1.0))


@pytest.fixture(scope="module")
def calibrated3():
    return calibrate_boundaries(TEMPLATE3, BoundaryShape(), CFG)


@pytest.fixture(scope="module")
def calibrated_dtl():
    return calibrate_boundaries(TEMPLATE3, DTL_SHAPE, CFG)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, power_target=0.9),
        dict(alpha=1.0, power_target=0.9),
        dict(alpha=0.025, power_target=0.0),
        dict(alpha=0.025, power_target=1.0),
        dict(alpha=0.025, power_target=0.9, omega=0.0),
        dict(alpha=0.025, power_target=0.9, omega=0.025),
        dict(alpha=0.025, power_target=0.9, omega=0.05),
        dict(alpha=0.025, power_target=0.9, bracket=(2.0, 1.0)),
        dict(alpha=0.025, power_target=0.9, bracket=(0.0, 1.0)),
        dict(alpha=0.025, power_target=0.9, max_n=0),
    ])
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CalibrationConfig(**kwargs)

    def test_defaults(self):
        cfg = CalibrationConfig(0.025, 0.9)
        assert cfg.omega == 1e-5
        assert cfg.bracket == (0.5, 10.0)
        assert cfg.max_n == 100_000


class TestBoundaryShape:
    def test_obf_multipliers(self):
        m = BoundaryShape().multipliers(3)
        assert m == pytest.approx(
            (math.sqrt(3.0), math.sqrt(1.5), 1.0), abs=1e-15)

    def test_pocock_multipliers(self):
        assert BoundaryShape("pocock").multipliers(4) == (1.0,) * 4

    def test_custom_multipliers(self):
        shape = BoundaryShape("custom", (math.inf, math.inf, 1.0))
        assert shape.multipliers(3) == (math.inf, math.inf, 1.0)

    @pytest.mark.parametrize("kind,mults", [
        ("nope", None),
        ("custom", None),
        ("obrien_fleming", (1.0, 1.0, 1.0)),
        ("pocock", (1.0,)),
    ])
    def test_bad_shape(self, kind, mults):
        with pytest.raises(ValueError):
            BoundaryShape(kind, mults)

    @pytest.mark.parametrize("mults", [
        (1.0, 1.0),                      # wrong length
        (1.0, 0.0, 1.0),                 # zero multiplier
        (1.0, -2.0, 1.0),                # negative
        (1.0, math.nan, 1.0),            # nan
        (1.0, 1.0, math.inf),            # final must be finite
    ])
    def test_bad_custom_multipliers(self, mults):
        with pytest.raises(ValueError):
            BoundaryShape("custom", mults).multipliers(3)


class TestObfShape:
    def test_three_stage_reference_scale(self):
        u = obf_shape(3, 2.004)
        assert u == pytest.approx((3.471, 2.454, 2.004), abs=1e-3)

    def test_single_stage(self):
        assert obf_shape(1, 1.96) == (1.96,)

    def test_final_boundary_two(self):
        u = obf_shape(3, 2.00)
        assert u[0] == pytest.approx(3.464, abs=5e-4)
        assert u[1] == pytest.approx(2.449, abs=5e-4)
        assert u[2] == 2.00

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            obf_shape(3, 0.0)
        with pytest.raises(ValueError):
            obf_shape(0, 2.0)


class TestCalibrateBoundaries:
    def test_reference_three_stage(self, calibrated3):
        for got, want in zip(calibrated3.boundaries, (3.47, 2.45, 2.00)):
            assert got == pytest.approx(want, abs=0.005)

    def test_reference_pwer_in_window(self, calibrated3):
        est = mvn_rectangle_prob(pwer_problem(calibrated3),
                                 target_abs_error=1e-7, seed=17)
        pwer = 1.0 - est.value
        assert 0.025 - 1e-5 - 3e-7 <= pwer <= 0.025 + 3e-7

    def test_single_stage_is_normal_quantile(self):
        d = calibrate_boundaries(TEMPLATE1, BoundaryShape(), CFG)
        assert d.boundaries[0] == pytest.approx(norm.ppf(0.975), abs=1e-3)

    def test_dtl_final_boundary_is_normal_quantile(self, calibrated_dtl):
        assert calibrated_dtl.boundaries[:2] == (math.inf, math.inf)
        assert calibrated_dtl.boundaries[2] == pytest.approx(
            norm.ppf(0.975), abs=1e-3)

    def test_installs_alpha(self, calibrated3):
        assert calibrated3.alpha == 0.025

    def test_deterministic(self):
        a = calibrate_boundaries(TEMPLATE1, BoundaryShape(), CFG)
        b = calibrate_boundaries(TEMPLATE1, BoundaryShape(), CFG)
        assert a.boundaries == b.boundaries

    def test_pwer_ignores_n(self, calibrated3):
        other = calibrate_boundaries(TEMPLATE3.with_n(999),
                                     BoundaryShape(), CFG)
        assert other.boundaries == calibrated3.boundaries

    def test_bracket_entirely_below_window(self):
        with pytest.raises(BracketError, match="below"):
            calibrate_boundaries(
                TEMPLATE1, BoundaryShape(),
                CalibrationConfig(0.025, 0.9, bracket=(3.0, 10.0)))

    def test_bracket_entirely_above_window(self):
        with pytest.raises(BracketError, match="above"):
            calibrate_boundaries(
                TEMPLATE1, BoundaryShape(),
                CalibrationConfig(0.025, 0.9, bracket=(0.5, 1.2)))


class TestFindSampleSize:
    def test_reference_sample_size(self, calibrated3):
        d = find_sample_size(calibrated3, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == 206

    def test_dtl_sample_size(self, calibrated_dtl):
        d = find_sample_size(calibrated_dtl, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == 203

    def test_larger_effect_needs_fewer_patients(self, calibrated3):
        d = find_sample_size(calibrated3, 2.0 * THETA_P, THETA_0, CFG)
        assert d.n_per_stage < 206

    def test_search_cap(self, calibrated3):
        with pytest.raises(SearchLimitError):
            find_sample_size(calibrated3, THETA_P, THETA_0,
                             CalibrationConfig(0.025, 0.9, max_n=50))

    def test_keeps_boundaries(self, calibrated3):
        d = find_sample_size(calibrated3, 2.0 * THETA_P, THETA_0, CFG)
        assert d.boundaries == calibrated3.boundaries


class TestPowerBracket:
    """The answer n and n - 1 must each sit farther from the power target
    than their error bounds."""

    @staticmethod
    def _linear_power(monkeypatch, bound):
        # power crosses 0.9 halfway between n=100 and n=101, 5e-4 from each
        def fake(design, theta_prime, theta_zero, *, target, seed):
            return 0.9 + 1e-3 * (design.n_per_stage - 100.5), bound
        monkeypatch.setattr(calibrate, "_lfc_power", fake)

    def test_clear_bracket_passes(self, monkeypatch):
        self._linear_power(monkeypatch, 4e-4)
        d = find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == 101

    def test_bracket_within_noise_raises(self, monkeypatch):
        self._linear_power(monkeypatch, 6e-4)
        with pytest.raises(ConvergenceError,
                           match=r"power\(100\)=0\.899500 .* 6\.00e-04.*"
                                 r"power\(101\)=0\.900500 .*--tol"):
            find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)


class TestDesignTrial:
    def test_one_arm_is_the_two_arm_trial(self):
        # one arm, one stage: the boundary is z_{1-alpha} and n the
        # closed-form two-arm sample size
        endpoint = NormalEffectSpec(THETA_P, THETA_0, SIGMA ** 2)
        d = design_trial(1, BoundaryShape(), CFG, endpoint)
        n, _ = comparator_separate_trials(1, 0.025, 0.9, THETA_P, SIGMA)
        assert d.n_per_stage == n
        assert d.boundaries[0] == pytest.approx(norm.ppf(0.975), abs=1e-3)
        assert (d.arms, d.stages, d.alpha) == (1, 1, 0.025)


class TestConverged:
    def test_converged_estimate_gives_its_value(self):
        est = ProbabilityEstimate(0.5, 1e-6, 1024)
        assert calibrate._converged(est, "PWER") == 0.5

    def test_stalled_estimate_names_what_and_bound(self):
        est = ProbabilityEstimate(0.5, 3e-4, 1 << 24, converged=False)
        with pytest.raises(ConvergenceError,
                           match=r"^focal crossing integration stalled at "
                                 r"error bound 3\.00e-04$"):
            calibrate._converged(est, "focal crossing")
