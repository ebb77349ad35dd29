"""Boundary calibration and sample size search."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from dtldesign import calibrate, characteristics, mvn
from dtldesign.calibrate import (
    BoundaryShape,
    BracketError,
    CalibrationConfig,
    ConvergenceError,
    SearchLimitError,
    calibrate_boundaries,
    comparator_separate_trials,
    design_trial,
    find_sample_size,
)
from dtldesign.cli import parse_config
from dtldesign.covariance import EffectConfig, TrialDesign, mean_of, single
from dtldesign.endpoint import NormalEffectSpec
from dtldesign.events import PERMUTATION_CAP, CapacityError, pwer_problem
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
        other = calibrate_boundaries(replace(TEMPLATE3, n_per_stage=999),
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

    @pytest.mark.parametrize("template, cfg", [
        # PWER is 0.0 at scale 10 on one stage and -1.8e-15 on two, so the
        # bracket straddles the window but no scale lands in it
        (TEMPLATE1, CalibrationConfig(1e-25, 0.9, omega=1e-26)),
        (TrialDesign(2, 2, 10, (2.5, 2.0), 0.025, 1.0),
         CalibrationConfig(1e-25, 0.9, omega=1e-26)),
        # a window far narrower than PWER's rounding near 0.025
        (TEMPLATE3, CalibrationConfig(0.025, 0.9, omega=1e-19)),
    ])
    def test_window_finer_than_pwer_resolves(self, template, cfg):
        with pytest.raises(BracketError,
                           match=r"window \[.*\]: alpha or omega is finer "
                                 "than PWER can resolve"):
            calibrate_boundaries(template, BoundaryShape(), cfg)

    def test_more_stages_than_the_quadrature_is_verified_for(self,
                                                            monkeypatch):
        # TestNoCrossing verifies the node count at 1..PERMUTATION_CAP
        # stages; a longer walk is refused before any quadrature runs
        monkeypatch.setattr(calibrate, "_gauss_legendre", None)
        stages = PERMUTATION_CAP + 1
        template = TrialDesign(stages, stages, 10, obf(stages, 2.0), 0.025,
                               SIGMA)
        with pytest.raises(CapacityError,
                           match=f"^{stages} stages exceeds the cap of "
                                 f"{PERMUTATION_CAP} "):
            calibrate_boundaries(template)


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

    def test_secant_step_landing_just_below_is_not_stalled(self):
        # probit(power) - probit(0.9), piecewise linear in sqrt(n) through
        # the readings of the K=5 O'Brien-Fleming search at seed 3.  The
        # model step lands on 125 and the secant on 126, which fails by a
        # twelfth of 125's margin but does not double 125: that is
        # progress, so the next secant lands on 127, with no doubling to
        # 252 first
        knots = [(1, -5.0), (113, -0.167825), (125, -0.011155),
                 (126, -0.000969), (127, 0.023946), (100_000, 5.0)]
        x, g = zip(*((math.sqrt(m), v) for m, v in knots))
        n, visits = _search(
            lambda m: norm.cdf(np.interp(math.sqrt(m), x, g) + norm.ppf(0.9)),
            100_000, 113, slope=0.32)
        assert (n, visits) == (127, [113, 125, 126, 127])

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


def _record_visits(monkeypatch, refine):
    """Route each search visit through refine(n, terms, done, draws) and
    record (n, rounds after the first, final estimate) per visit, in
    order.  Each visit's n is the one it asks the LFC family's sets at."""
    visits, ns = [], []
    real = calibrate._lfc_family

    def family(*args):
        sets_at = real(*args)

        def recording(n):
            ns.append(n)
            return sets_at(n)
        return recording

    def refining(terms, done, draws):
        checks = []

        def counted(est):
            checks.append(est)
            return done(est)
        est = refine(ns[-1], terms, counted, draws)
        visits.append((ns[-1], len(checks) - 1, est))
        return est
    monkeypatch.setattr(calibrate, "_lfc_family", family)
    monkeypatch.setattr(calibrate, "_refine", refining)
    return visits


class TestSearchVisits:
    def test_reference_design_takes_few_power_integrals(self, monkeypatch):
        rows, integrand = [], mvn._sov_integrand

        def recording(pivots, x):
            rows.append(x.shape[0])
            return integrand(pivots, x)
        monkeypatch.setattr(mvn, "_sov_integrand", recording)
        real = calibrate._refine
        visits = _record_visits(
            monkeypatch, lambda n, terms, done, draws: real(terms, done, draws))
        parsed = parse_config(CONFIG_K3.read_text(encoding="utf-8"))
        # per arm count: the answer n, and each visit's rounds after the
        # first and evaluations.  205 first reads 0.899852 at bound 4.5e-4
        # and settles after 10 more rounds at 0.899943, bound 4.3e-5; 156
        # reads 0.899601 at 1.6e-3 and settles after 5 at 0.900526, bound
        # 4.6e-4.  The other visits clear 0.9 on their first round
        for arms, n, want in [
                (3, 206, [(188, 0, 10_752), (205, 10, 55_296),
                          (206, 0, 10_752)]),
                (4, 156, [(141, 0, 23_040), (156, 5, 33_792),
                          (155, 0, 23_040)])]:
            visits.clear()
            rows.clear()
            d = design_trial(arms, parsed.shape, parsed.calibration,
                             parsed.normal)
            assert d.n_per_stage == n
            got = [(m, rounds, est.evaluations) for m, rounds, est in visits]
            assert got == want
            # each round runs once: the integrand sees exactly the
            # evaluations of each visit's final estimate
            assert sum(rows) == sum(e for *_, e in want)

    def test_draws_are_reused_within_one_search_only(self, monkeypatch):
        # each problem's scramble and shifts are drawn at the first visit
        # that integrates it and reused at the later visits; the next
        # search draws every one of them again
        drawn, started = [], []
        real_draw, real_start = mvn._draw, mvn._Integral._start

        def draw(*key):
            drawn.append(key)
            return real_draw(*key)

        def start(integral):
            est = real_start(integral)
            started.append(est is None)
            return est
        monkeypatch.setattr(mvn, "_draw", draw)
        monkeypatch.setattr(mvn._Integral, "_start", start)
        parsed = parse_config(CONFIG_K3.read_text(encoding="utf-8"))
        searches = []
        for _ in range(2):
            drawn.clear()
            started.clear()
            design_trial(3, parsed.shape, parsed.calibration, parsed.normal)
            assert len(set(drawn)) == len(drawn) < sum(started)
            searches.append(list(drawn))
        assert searches[0] == searches[1]

    def test_visits_reproduce_recorded_bits(self, monkeypatch):
        # each visit's power and bound, as float.hex(), in visit order
        real = calibrate._refine
        visits = _record_visits(
            monkeypatch, lambda n, terms, done, draws: real(terms, done, draws))
        parsed = parse_config(CONFIG_K3.read_text(encoding="utf-8"))
        for arms, want in [
                (3, [("0x1.bf07b7c18bc13p-1", "0x1.cb4493fe582c4p-12"),
                     ("0x1.ccc5606321e6dp-1", "0x1.6926e2ace7253p-15"),
                     ("0x1.cd70c64c85c41p-1", "0x1.d69948fb6ced7p-12")]),
                (4, [("0x1.bc6364d111662p-1", "0x1.9aa4ea59a6787p-10"),
                     ("0x1.cd11c3022bd91p-1", "0x1.e2b857a3c44b1p-12"),
                     ("0x1.cba394e369173p-1", "0x1.9a1db4d68c5cdp-10")])]:
            visits.clear()
            design_trial(arms, parsed.shape, parsed.calibration,
                         parsed.normal)
            assert [(est.value.hex(), est.error_bound.hex())
                    for *_, est in visits] == want


class TestPowerBracket:
    """Every visit settles at the first round of its power integral at
    which the power clears 0.9 by more than its error bound; a visit still
    within noise once the bound reaches target_abs_error raises.  So the
    answer n and n - 1 each sit farther from 0.9 than their bounds."""

    @staticmethod
    def _fake_power(monkeypatch, bound,
                    curve=lambda n, r: 0.9 + 1e-3 * (n - 100.5)):
        # by default power crosses 0.9 halfway between n=100 and n=101,
        # 5e-4 from each.  Round r of a visit at n reads curve(n, r) with
        # error bound bound(r), so each visit models one family integral
        def refine(n, terms, done, draws):
            for r in range(40):
                est = ProbabilityEstimate(curve(n, r), bound(r), 0)
                if done(est):
                    return est
            raise AssertionError(f"visit at n={n} never settled")
        monkeypatch.setattr(calibrate, "_lfc_family",
                            lambda *args: lambda n: [])
        return _record_visits(monkeypatch, refine)

    @staticmethod
    def _rounds(visits):
        return [(n, rounds) for n, rounds, _ in visits]

    def test_clear_bracket_passes(self, monkeypatch):
        visits = self._fake_power(monkeypatch, lambda r: 4e-4)
        d = find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == 101
        # every verdict clears 0.9 on its first round and is never refined
        assert all(rounds == 0 for _, rounds in self._rounds(visits))
        assert {100, 101} <= {n for n, _ in self._rounds(visits)}

    @pytest.mark.parametrize("misread", [-0.05, 0.05])
    def test_misread_first_round_still_finds_n(self, monkeypatch, misread):
        # theta' = 0.8 puts the model's n at 104, where the fake power is
        # 0.9035.  Its first round is off by `misread`, inside that
        # round's 0.06 bound, so the visit is refined before it decides
        # anything, and the search goes on as if it had read true
        def curve(n, r):
            return (0.9 + 1e-3 * (n - 100.5)
                    + (misread if (n, r) == (104, 0) else 0.0))

        def bound(r):
            return 0.06 if r == 0 else 4e-4
        visits = self._fake_power(monkeypatch, bound, curve)
        d = find_sample_size(TEMPLATE3, 0.8, THETA_0, CFG)
        assert d.n_per_stage == 101
        assert self._rounds(visits)[0] == (104, 1)
        true_visits = self._fake_power(monkeypatch, bound)
        find_sample_size(TEMPLATE3, 0.8, THETA_0, CFG)
        assert visits == true_visits

    @pytest.mark.parametrize("reading", [0.0, 1.0])
    def test_power_of_zero_or_one_doubles_or_halves_the_bracket(
            self, monkeypatch, reading):
        # the search starts at the model's n, 189, where a steep curve
        # reads exactly 0 or 1: an infinite probit takes no model step, so
        # the next visit doubles (power 0) or halves (power 1) the
        # bracket, and the secants then find the threshold
        threshold = 101 if reading else 401

        def curve(n, r):
            return min(max(0.9 + 1e-2 * (n - threshold + 0.5), 0.0), 1.0)
        visits = self._fake_power(monkeypatch, lambda r: 4e-4, curve)
        d = find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == threshold
        assert self._rounds(visits)[:2] == [(189, 0),
                                            (94 if reading else 378, 0)]

    @staticmethod
    def _halving(r):
        # 6e-3, 3e-3, 1.5e-3, 7.5e-4, 3.75e-4, ...: clear of the 5e-4
        # margins of n=100 and 101 from round 4
        return 6e-3 / 2 ** r

    def test_noisy_visits_are_refined_until_clear(self, monkeypatch):
        visits = self._fake_power(monkeypatch, self._halving)
        d = find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert d.n_per_stage == 101
        # each visit stops at the first round whose bound its margin
        # exceeds, so only unclear visits are refined
        for n, rounds in self._rounds(visits):
            margin = abs(1e-3 * (n - 100.5))
            assert rounds == next(r for r in range(40)
                                  if margin > self._halving(r)), visits
        assert dict(self._rounds(visits))[100] == 4

    def test_bracket_within_noise_raises(self, monkeypatch):
        # power crosses 0.9 with margins of 6e-6 and 1.8e-5 at n=100 and
        # 99, under the default target of 2e-5.  The bound halves from
        # 6.4e-4 each round, so refinement stops at 2e-5 after 5 more
        # rounds, and a visit still within its bound of 0.9 is refused
        def curve(n, r):
            return 0.9 + 1.2e-5 * (n - 100.5)
        visits = self._fake_power(monkeypatch, lambda r: 6.4e-4 / 2 ** r,
                                  curve)
        with pytest.raises(ConvergenceError,
                           match=r"power\(99\)=0\.899982 is within its "
                                 r"error bound 2\.00e-05 of the target 0\.9 "
                                 r"at the integration target 2\.00e-05; "
                                 r".*--tol"):
            find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        assert self._rounds(visits)[-1] == (99, 5)
        # a finer target lets the same visits refine until they clear:
        # n=99 after 6 more rounds (bound 1e-5), n=100 after 7 (5e-6)
        visits.clear()
        d = find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG,
                             target_abs_error=2e-6)
        assert d.n_per_stage == 101
        rounds = dict(self._rounds(visits))
        assert (rounds[99], rounds[100]) == (6, 7), visits

    def test_flipped_refinement_raises_with_the_refined_numbers(
            self, monkeypatch):
        # from round 3 on, power(101) reads 1e-2 low: its refined reading
        # clears 0.9 from below and drops under power(100).  The search
        # takes the refined verdict, and the monotonicity check, which
        # covers every visit, refuses with the refined numbers of both
        def curve(n, r):
            return (0.9 + 1e-3 * (n - 100.5)
                    - (1e-2 if n == 101 and r >= 3 else 0.0))
        visits = self._fake_power(monkeypatch, self._halving, curve)
        with pytest.raises(ConvergenceError,
                           match=r"power\(100\)=0\.899500 vs "
                                 r"power\(101\)=0\.890500"):
            find_sample_size(TEMPLATE3, THETA_P, THETA_0, CFG)
        rounds = dict(self._rounds(visits))
        assert rounds[100] == 4 and rounds[101] == 3, visits


class TestDesignTrial:
    # the README's table of reference designs: the example config at its
    # defaults, arms and shape varied
    @pytest.mark.parametrize("kind,arms,n", [
        (kind, arms, n)
        for kind, ns in (("obrien_fleming", (303, 206, 156, 127)),
                         ("pocock", (326, 234, 182, 149)))
        for arms, n in zip(range(2, 6), ns)])
    def test_reference_sample_sizes(self, kind, arms, n):
        parsed = parse_config(CONFIG_K3.read_text(encoding="utf-8"))
        d = design_trial(arms, BoundaryShape(kind), parsed.calibration,
                         parsed.normal)
        assert d.n_per_stage == n

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
