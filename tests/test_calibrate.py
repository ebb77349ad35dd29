"""Boundary calibration and sample size search."""

import math
import sys
from pathlib import Path

import pytest
from scipy.special import ndtr
from scipy.stats import norm

from dtldesign import calibrate, characteristics
from dtldesign.calibrate import (
    BoundaryShape,
    BracketError,
    CalibrationConfig,
    ConvergenceError,
    SearchLimitError,
    calibrate_boundaries,
    design_trial,
    find_sample_size,
)
from dtldesign.characteristics import comparator_separate_trials
from dtldesign.cli import parse_config
from dtldesign.covariance import EffectConfig, TrialDesign, mean_of, single
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
CONFIG_K3 = Path(__file__).resolve().parent.parent / "configs" / "poptarts.cfg"


def obf(stages, c):
    """O'Brien-Fleming boundaries u_j = c sqrt(J/j)."""
    return tuple(c * m for m in BoundaryShape().multipliers(stages))


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
    ])
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CalibrationConfig(**kwargs)

    def test_defaults(self):
        cfg = CalibrationConfig(0.025, 0.9)
        assert cfg.omega == 1e-5


class TestBoundaryShape:
    def test_obf_multipliers(self):
        m = BoundaryShape().multipliers(3)
        assert m == pytest.approx(
            (math.sqrt(3.0), math.sqrt(1.5), 1.0), abs=1e-15)

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError, match="stages"):
            BoundaryShape().multipliers(0)

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
        u = obf(3, 2.004)
        assert u == pytest.approx((3.471, 2.454, 2.004), abs=1e-3)

    def test_single_stage(self):
        assert obf(1, 1.96) == (1.96,)

    def test_final_boundary_two(self):
        u = obf(3, 2.00)
        assert u[0] == pytest.approx(3.464, abs=5e-4)
        assert u[1] == pytest.approx(2.449, abs=5e-4)
        assert u[2] == 2.00


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
        # the lowest boundary scale still gives a PWER below the window
        with pytest.raises(BracketError,
                           match="below .*alpha is out of the search's reach"):
            calibrate_boundaries(TEMPLATE1, BoundaryShape(),
                                 CalibrationConfig(0.9, 0.9))

    def test_bracket_entirely_above_window(self):
        # the highest boundary scale still gives a PWER above the window:
        # about 8e-24 in exact arithmetic, 1.1e-16 as computed
        with pytest.raises(BracketError,
                           match="above .*alpha is out of the search's reach"):
            calibrate_boundaries(TEMPLATE3, BoundaryShape(),
                                 CalibrationConfig(1e-25, 0.9, omega=1e-26))


class TestGoldenBoundaries:
    """The exact floats the bisection stops at: a change of integrator that
    moves any step of the bisection path fails here first."""

    @pytest.mark.parametrize("stages, final", [
        (3, 2.00408935546875),
        (4, 2.024383544921875),
        (5, 2.0401840209960938),
    ])
    def test_obrien_fleming(self, stages, final):
        template = TrialDesign(stages, stages, 10, obf(stages, 1.0),
                               0.025, SIGMA)
        d = calibrate_boundaries(template, BoundaryShape(), CFG)
        assert d.boundaries == obf(stages, final)

    def test_dtl_shape(self, calibrated_dtl):
        assert calibrated_dtl.boundaries == (math.inf, math.inf,
                                             1.96002197265625)

    def test_no_rectangle_integral(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mvn_rectangle_prob called")

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "dtldesign"
                    and hasattr(module, "mvn_rectangle_prob")):
                monkeypatch.setattr(module, "mvn_rectangle_prob", refuse)
        for shape in (BoundaryShape(), DTL_SHAPE):
            calibrate_boundaries(TEMPLATE3, shape, CFG)


class TestNoCrossing:
    @pytest.mark.parametrize("stages", range(1, 9))
    def test_node_doubling_moves_nothing(self, stages, monkeypatch):
        cases = [(obf(stages, c), drift)
                 for c in (1.8, 2.0, 2.2) for drift in (0.0, 1.9)]
        coarse = [calibrate._no_crossing(u, drift) for u, drift in cases]
        monkeypatch.setattr(calibrate, "_QUADRATURE_NODES",
                            2 * calibrate._QUADRATURE_NODES)
        fine = [calibrate._no_crossing(u, drift) for u, drift in cases]
        for a, b in zip(coarse, fine):
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("boundaries", [
        (3.47, 2.45, 2.0),
        (math.inf, 2.45, 2.0),
    ])
    @pytest.mark.parametrize("effects", [
        EffectConfig.global_null(3),
        EffectConfig.least_favorable(3, THETA_P, THETA_0),
    ])
    def test_agrees_with_rectangle_integral(self, boundaries, effects):
        d = TrialDesign(3, 3, 206, boundaries, 0.025, SIGMA)
        est = mvn_rectangle_prob(pwer_problem(d, effects),
                                 target_abs_error=1e-8, seed=0)
        got = calibrate._no_crossing(d.boundaries,
                                     mean_of(d, effects, single(1, 1)))
        assert abs(got - est.value) <= 3.0 * est.error_bound + 1e-9

    @pytest.mark.parametrize("u", [0.7, 1.1, 1.96, 1.96002197265625, 2.3,
                                   3.3, 4.0])
    def test_final_look_only_is_the_normal_tail(self, u):
        d = TrialDesign(3, 3, 10, (math.inf, math.inf, u), 0.025, SIGMA)
        assert calibrate._no_crossing(d.boundaries, 0.0) == ndtr(u)
        assert abs(characteristics.pwer(d) - (1.0 - ndtr(u))) <= 1e-15

    @pytest.mark.parametrize("boundaries, drift", [
        ((-20.0, 2.0, 2.0), 0.0),
        ((-11.0, math.inf, 2.0), 0.0),
        ((2.0, -20.0, 2.0), 1.9),
        ((2.0, 1.0, 2.0), 20.0),
    ])
    def test_unreachable_interval_gives_zero(self, boundaries, drift):
        assert calibrate._no_crossing(boundaries, drift) == 0.0


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
        # an effect this small needs more patients than the search allows
        with pytest.raises(SearchLimitError, match="max_n=100000"):
            find_sample_size(calibrated3, 1e-3, 0.0, CFG)

    @pytest.mark.parametrize("theta_prime", [0.0, -THETA_P])
    def test_no_positive_effect_is_refused(self, calibrated3, theta_prime):
        with pytest.raises(ValueError, match="theta_prime"):
            find_sample_size(calibrated3, theta_prime, THETA_0, CFG)

    def test_keeps_boundaries(self, calibrated3):
        d = find_sample_size(calibrated3, 2.0 * THETA_P, THETA_0, CFG)
        assert d.boundaries == calibrated3.boundaries


def _search(curve, max_n, guess, target=0.9, slope=0.05):
    """_smallest_passing_n on curve, with the visits in order; asserts no
    n is visited twice."""
    visits = []

    def power_at(n):
        assert n not in visits, f"n={n} visited twice: {visits}"
        visits.append(n)
        return curve(n)

    return calibrate._smallest_passing_n(power_at, target, max_n, guess,
                                         slope), visits


def _safeguard_bound(max_n):
    # the seed and the model step, then at most one stalled secant step
    # and one safeguard step per doubling of the largest failing n, for
    # the first passing n, and per halving of the bracket
    return 4 * max_n.bit_length() + 2


class TestSmallestPassingN:
    """The probit-secant search on curves built to defeat its model."""

    @pytest.mark.parametrize("max_n", [1, 2, 3, 7, 64, 100, 1000])
    @pytest.mark.parametrize("low,high", [(0.0, 1.0), (0.1, 0.95),
                                          (0.8999, 0.999999)])
    def test_step_curves_give_the_threshold(self, max_n, low, high):
        # 0/1 steps leave no finite probit; the others give secants that
        # point anywhere but the threshold, and the last ones creep one n
        # at a time from the failing end unless the safeguard bisects
        for t in range(1, max_n + 1):
            for guess in (t / 1000.0, t, 1000.0 * t):
                n, visits = _search(lambda m: high if m >= t else low,
                                    max_n, guess)
                assert n == t, (t, guess, visits)
                assert t in visits and (t == 1 or t - 1 in visits)
                assert len(visits) <= _safeguard_bound(max_n), visits

    @pytest.mark.parametrize("max_n", [1, 2, 3, 7, 64, 100, 1000])
    def test_threshold_above_max_n_raises(self, max_n):
        for guess in (1, max_n, 10 * max_n):
            with pytest.raises(SearchLimitError, match=f"max_n={max_n}"):
                _search(lambda m: float(m > max_n), max_n, guess)

    @pytest.mark.parametrize("max_n", [7, 100, 1000, 100_000])
    def test_hostile_curves_take_logarithmic_visits(self, max_n):
        # with no finite probit every step doubles or bisects, as the old
        # double-then-bisect search did: 2 visits per bit of max_n
        no_secant = 2 * max_n.bit_length()
        step = max_n // 3 + 1
        curves = [  # (curve, threshold, bound on visits)
            (lambda m: float(m >= step), step, no_secant),
            (lambda m: float(m == max_n), max_n, no_secant),
        ]
        if max_n > 100:
            # TestPowerBracket's fake: below 0 and above 1 far from 100.5
            curves.append((lambda m: 0.9 + 1e-3 * (m - 100.5), 101,
                           _safeguard_bound(max_n)))
        for curve, t, bound in curves:
            for guess in (1, t, max_n):
                n, visits = _search(curve, max_n, guess)
                assert n == t, (guess, visits)
                assert len(visits) <= bound, (guess, visits)

    def test_linear_probit_is_found_by_the_model_step(self):
        # probit(power) = slope sqrt(n) - 1.96 is what the model assumes:
        # from any guess where power is not 0 or 1 in floating point, its
        # one step lands next to the answer
        slope = 0.0675
        want = math.ceil(((norm.ppf(0.9) + 1.96) / slope) ** 2)
        for guess in (50, want, 4 * want):
            n, visits = _search(
                lambda m: norm.cdf(slope * math.sqrt(m) - 1.96), 100_000,
                guess, slope=slope)
            assert n == want
            assert len(visits) <= 3, visits


class TestSearchVisits:
    def test_reference_design_takes_few_power_integrals(self, monkeypatch):
        calls, real = [], calibrate._lfc_power

        def counted(design, *args, **kwargs):
            calls.append(design.n_per_stage)
            return real(design, *args, **kwargs)
        monkeypatch.setattr(calibrate, "_lfc_power", counted)
        parsed = parse_config(CONFIG_K3.read_text(encoding="utf-8"))
        d = design_trial(parsed.arms, parsed.shape, parsed.calibration,
                         parsed.normal)
        assert d.n_per_stage == 206
        assert len(calls) <= 4, calls


class TestPowerBracket:
    """The answer n and n - 1 must each sit farther from the power target
    than their error bounds, at the search target or after one retry at
    the search target over BRACKET_RETRY_FACTOR."""

    @staticmethod
    def _linear_power(monkeypatch, bound, shift=lambda target: 0.0):
        # power crosses 0.9 halfway between n=100 and n=101, 5e-4 from
        # each; bound and shift are functions of the integration target
        calls = []

        def fake(design, theta_prime, theta_zero, *, target, seed):
            calls.append((design.n_per_stage, target))
            power = 0.9 + 1e-3 * (design.n_per_stage - 100.5)
            return power + shift(target), bound(target)
        monkeypatch.setattr(calibrate, "_lfc_power", fake)
        return calls

    def test_clear_bracket_passes(self, monkeypatch):
        calls = self._linear_power(monkeypatch, lambda target: 4e-4)
        d = find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == 101
        assert {target for _, target in calls} == {calibrate.SEARCH_TARGET}

    def test_bracket_within_noise_raises(self, monkeypatch):
        self._linear_power(monkeypatch, lambda target: 6e-4)
        with pytest.raises(ConvergenceError,
                           match=r"power\(100\)=0\.899500 .* 6\.00e-04.*"
                                 r"power\(101\)=0\.900500 .*--tol"):
            find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)

    def test_noisy_bracket_passes_after_one_tighter_retry(self, monkeypatch):
        # bound 60 x target: 6e-4 at the search target, inside the 5e-4
        # margins; 1.2e-4 at the retry target, well outside them
        calls = self._linear_power(monkeypatch, lambda target: 60 * target)
        d = find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == 101
        tight = calibrate.SEARCH_TARGET / calibrate.BRACKET_RETRY_FACTOR
        assert tight == pytest.approx(2e-6)
        assert [c for c in calls if c[1] != calibrate.SEARCH_TARGET] == [
            (100, tight), (101, tight)]

    def test_flipped_retry_raises_with_the_tighter_numbers(self,
                                                           monkeypatch):
        # at the retry target power(100) clears 0.9: the pair no longer
        # brackets the target, and the search is not rerun
        calls = self._linear_power(
            monkeypatch, lambda target: 60 * target,
            shift=lambda target: (0.0 if target == calibrate.SEARCH_TARGET
                                  else 1e-3))
        with pytest.raises(ConvergenceError,
                           match=r"power\(100\)=0\.900500 at error bound "
                                 r"1\.20e-04, power\(101\)=0\.901500"):
            find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert len([c for c in calls
                    if c[1] != calibrate.SEARCH_TARGET]) == 2


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
                           match=r"^power integration stalled at "
                                 r"error bound 3\.00e-04$"):
            calibrate._converged(est, "power")
