"""Monte Carlo machinery: path laws, trial mechanics, estimator agreement."""

import math

import numpy as np
import pytest

from dtldesign import simulate
from dtldesign.characteristics import stage_total_patients
from dtldesign.covariance import (
    EffectConfig,
    StatCoord,
    TrialDesign,
    build_moment_problem,
    corr_between,
    mean_of,
    single,
)
from dtldesign.endpoint import BinaryEndpointSpec, binary_to_normal
from dtldesign.events import (
    reject_problems,
    set_probability,
    stop_event_rectangles,
    stop_stage_problems,
    total_probability,
    win_event_rectangles,
    win_problems,
)
from dtldesign.mvn import mvn_rectangle_prob
from dtldesign.simulate import (
    SimulationResult,
    draw_statistics,
    estimate_characteristics,
)
from oracles import rect_satisfied

EFF = binary_to_normal(BinaryEndpointSpec(0.12, 0.05, 0.01))
DESIGN = TrialDesign(3, 3, 206, (3.471, 2.454, 2.004), 0.025, EFF.sigma)
DTL = TrialDesign(3, 3, 203, (math.inf, math.inf, 1.95996398454), 0.025,
                  EFF.sigma)
NULL = EffectConfig.global_null(3)
LFC = EffectConfig.least_favorable(3, EFF.theta_prime, EFF.theta_zero)


class _ZeroDraw:
    """Degenerate random source: every increment zero, so all statistics tie
    at their means."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestDrawStatistics:
    def test_shape_and_determinism(self):
        a = draw_statistics(DESIGN, LFC, np.random.default_rng(5), 40)
        b = draw_statistics(DESIGN, LFC, np.random.default_rng(5), 40)
        assert a.shape == (40, 3, 3)
        assert np.array_equal(a, b)

    def test_stagewise_correlation_within_arm(self):
        # corr(Z_{1,1}, Z_{1,2}) = sqrt(1/2); correlation estimates have
        # standard error about (1 - rho^2)/sqrt(m)
        m = 100_000
        z = draw_statistics(DESIGN, NULL, np.random.default_rng(11), m)
        r = np.corrcoef(z[:, 0, 0], z[:, 0, 1])[0, 1]
        rho = math.sqrt(0.5)
        assert abs(r - rho) <= 4.0 * (1.0 - rho ** 2) / math.sqrt(m)

    @pytest.mark.parametrize("a, b", [
        (single(1, 1), single(2, 1)),
        (single(1, 1), single(1, 3)),
        (single(1, 1), single(2, 2)),
        (StatCoord(1, 2, 2), StatCoord(2, 3, 1)),
        (single(3, 2), StatCoord(1, 3, 3)),
    ])
    def test_moments_match_covariance_module(self, a, b):
        m = 100_000
        z = draw_statistics(DESIGN, LFC, np.random.default_rng(23), m)
        # group 0, the control, contributes Z_{0,j} = 0
        groups = np.concatenate([np.zeros_like(z[:, :1]), z], axis=1)

        def values(c):
            return (groups[:, c.arm_a, c.stage - 1]
                    - groups[:, c.arm_b, c.stage - 1])

        va, vb = values(a), values(b)
        rho = corr_between(a, b)
        assert abs(np.corrcoef(va, vb)[0, 1] - rho) <= \
            4.0 * (1.0 - rho ** 2) / math.sqrt(m)
        # every contrast has unit variance, so the mean SE is 1/sqrt(m)
        for coord, v in ((a, va), (b, vb)):
            assert abs(v.mean() - mean_of(DESIGN, LFC, coord)) <= \
                4.0 / math.sqrt(m)
            assert abs(v.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / m)

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="paths"):
            draw_statistics(DESIGN, NULL, rng, 0)
        with pytest.raises(ValueError, match="length"):
            draw_statistics(DESIGN, EffectConfig((0.0, 0.0)), rng, 4)


class TestSimulateTrial:
    """The drop and stopping rules of simulate._decide_paths, one trial per
    drawn statistic path."""

    @staticmethod
    def _decide(design, effects, draw, paths):
        z = draw_statistics(design, effects, draw, paths)
        return simulate._decide_paths(design, z)

    def test_infinite_interims_always_reach_final_stage(self):
        stop, winner, dropped_at = self._decide(
            DTL, LFC, np.random.default_rng(3), 300)
        assert np.all(stop == 3)
        assert stage_total_patients(DTL, 3) == 1827
        # one arm dropped at each interim, and any winner survived both
        assert np.array_equal(np.sort(dropped_at, axis=1),
                              np.tile([0, 1, 2], (300, 1)))
        won = np.flatnonzero(winner)
        assert np.all(dropped_at[won, winner[won] - 1] == 0)

    def test_separated_arm_never_dropped(self):
        # arm 1 forced maximal; rivals can never clear the interim bound, so
        # every trial drops them in turn and stops at stage 2 with arm 1
        effects = EffectConfig((10.0 * EFF.sigma, -10.0 * EFF.sigma,
                                -10.0 * EFF.sigma))
        stop, winner, dropped_at = self._decide(
            DESIGN, effects, np.random.default_rng(7), 300)
        assert np.all(dropped_at[:, 0] == 0)
        assert np.all(stop == 2)
        assert np.all(winner == 1)

    def test_ties_drop_lowest_arm_index(self):
        stop, winner, dropped_at = self._decide(DESIGN, NULL, _ZeroDraw(), 1)
        assert dropped_at.tolist() == [[1, 2, 0]]
        assert stop.tolist() == [3]
        assert winner.tolist() == [0]
        assert stage_total_patients(DESIGN, 3) == 1854

    def test_patient_accounting_matches_schedule(self):
        stop, _, dropped_at = self._decide(
            DESIGN, NULL, np.random.default_rng(19), 200)
        n = DESIGN.n_per_stage
        for s, drops in zip(stop.tolist(), dropped_at.tolist()):
            # one drop at each interim up to the stop, none at the final
            assert sorted(d for d in drops if d) == \
                list(range(1, min(s, 2) + 1))
            # a dropped arm holds its stage's patients, every survivor
            # and the control hold s stages'
            survivors = drops.count(0)
            assert sum(d * n for d in drops) + (survivors + 1) * s * n == \
                stage_total_patients(DESIGN, s)
        assert 3 in stop

    def test_outcomes_reproducible(self):
        runs = [self._decide(DESIGN, LFC, np.random.default_rng(101), 50)
                for _ in range(2)]
        for a, b in zip(*runs):
            assert np.array_equal(a, b)


class TestEstimateCharacteristics:
    def test_bit_identical_for_same_seed(self):
        a = estimate_characteristics(DESIGN, LFC, 20_000, seed=9)
        b = estimate_characteristics(DESIGN, LFC, 20_000, seed=9)
        assert a == b
        assert isinstance(a, SimulationResult)
        assert a.replicates == 20_000 and a.seed == 9

    def test_seed_matters(self):
        a = estimate_characteristics(DESIGN, LFC, 20_000, seed=9)
        b = estimate_characteristics(DESIGN, LFC, 20_000, seed=10)
        assert a != b

    def test_batching_does_not_change_results(self, monkeypatch):
        reference = estimate_characteristics(DESIGN, LFC, 50_000, seed=4)
        monkeypatch.setattr(simulate, "_CHUNK", 977)
        assert estimate_characteristics(DESIGN, LFC, 50_000, seed=4) == \
            reference

    def test_stop_histogram_counts_every_replicate(self):
        reps = 12_345
        res = estimate_characteristics(DESIGN, NULL, reps, seed=2)
        counts = [round(res.value(f"stop_stage_{j}") * reps) for j in (1, 2, 3)]
        for j, c in zip((1, 2, 3), counts):
            assert abs(res.value(f"stop_stage_{j}") * reps - c) < 1e-6
        assert sum(counts) == reps

    def test_probability_standard_errors(self):
        reps = 8_192
        res = estimate_characteristics(DESIGN, LFC, reps, seed=6)
        for name in ("power", "reject", "focal_crossing", "stop_stage_1",
                     "stop_stage_2", "stop_stage_3"):
            p, se = res.estimates[name]
            assert se == pytest.approx(math.sqrt(p * (1.0 - p) / reps),
                                       rel=1e-12)

    def test_selection_implies_rejection(self):
        for effects in (NULL, LFC):
            res = estimate_characteristics(DESIGN, effects, 30_000, seed=13)
            assert res.value("power") <= res.value("reject")
            assert res.value("reject") <= res.value("focal_crossing") + 1e-12

    def test_single_replicate(self):
        res = estimate_characteristics(DESIGN, LFC, 1, seed=0)
        assert res.stderr("ess") == 0.0
        for name in ("power", "reject", "focal_crossing"):
            assert res.value(name) in (0.0, 1.0)
        assert sum(res.value(f"stop_stage_{j}") for j in (1, 2, 3)) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="reps"):
            estimate_characteristics(DESIGN, NULL, 0)
        with pytest.raises(ValueError, match="length"):
            estimate_characteristics(DESIGN, EffectConfig((0.1,)), 10)


def _random_design(design_seed):
    """A moderate random three-arm design; odd seeds get an infinite first
    boundary so the pure drop path is exercised too."""
    rng = np.random.default_rng((1009, design_seed))
    n = int(rng.integers(30, 120))
    c = float(rng.uniform(1.9, 2.8))
    bounds = tuple(c * math.sqrt(3.0 / j) for j in (1, 2, 3))
    if design_seed % 2:
        bounds = (math.inf,) + bounds[1:]
    sigma = float(rng.uniform(0.8, 2.5))
    return TrialDesign(3, 3, n, bounds, 0.025, sigma)


def _random_effects(design, delta_seed):
    rng = np.random.default_rng((2003, delta_seed))
    scale = design.sigma * math.sqrt(30.0 / design.n_per_stage)
    return EffectConfig(tuple(rng.uniform(-0.3, 0.45, 3) * scale))


class TestAgreementWithAnalyticEngine:
    """Empirical estimates must land within Monte Carlo noise of the
    integrated values; the binomial SE at the analytic probability guards
    the cases where the empirical count is zero."""

    REPS = 100_000

    @staticmethod
    def _check(sim, metric, analytic, bound):
        value, se = sim.estimates[metric]
        null_se = math.sqrt(max(analytic * (1.0 - analytic), 0.0)
                            / sim.replicates)
        assert abs(value - analytic) <= 4.0 * max(se, null_se) + bound, \
            f"{metric}: simulated {value}, analytic {analytic}"

    @pytest.mark.parametrize("design_seed", range(10))
    @pytest.mark.parametrize("delta_seed", range(5))
    def test_random_designs(self, design_seed, delta_seed):
        design = _random_design(design_seed)
        effects = _random_effects(design, delta_seed)
        case_seed = 10 * design_seed + delta_seed
        sim = estimate_characteristics(design, effects, self.REPS,
                                       seed=case_seed + 500)
        kw = dict(target_abs_error=1e-4, seed=3)

        win = total_probability(win_problems(design, effects), **kw)
        self._check(sim, "power", win.value, win.error_bound)

        rej = total_probability(reject_problems(design, effects), **kw)
        self._check(sim, "reject", rej.value, rej.error_bound)

        stops = [set_probability(s, **kw)
                 for s in stop_stage_problems(design, effects)]
        ess = 0.0
        ess_bound = 0.0
        for j, est in enumerate(stops, start=1):
            self._check(sim, f"stop_stage_{j}", est.value, est.error_bound)
            patients = stage_total_patients(design, j)
            ess += est.value * patients
            ess_bound += est.error_bound * patients
        sim_ess, ess_se = sim.estimates["ess"]
        assert abs(sim_ess - ess) <= 4.0 * ess_se + ess_bound

        coords = [single(1, j) for j in range(1, 4)]
        never = mvn_rectangle_prob(
            build_moment_problem(design, effects, coords, [-math.inf] * 3,
                                 list(design.boundaries)),
            target_abs_error=1e-5, seed=5)
        self._check(sim, "focal_crossing", 1.0 - never.value,
                    never.error_bound)


class TestEventMembership:
    """The enumerated signed rectangles must describe exactly the paths the
    simulator assigns to each event: over a stage's rectangles, the signs
    of those a path satisfies sum to its event indicator."""

    @pytest.mark.parametrize("design, effects", [
        (DESIGN, NULL),
        (DESIGN, LFC),
        (DTL, LFC),
    ])
    def test_stop_rectangles_partition_paths(self, design, effects):
        m = 100_000
        z = draw_statistics(design, effects, np.random.default_rng(37), m)
        stop, _, _ = simulate._decide_paths(design, z)
        counts = np.zeros(m, dtype=np.int64)
        for j, terms in enumerate(stop_event_rectangles(design), start=1):
            members = np.zeros(m, dtype=np.int64)
            for sign, rect in terms:
                members += sign * rect_satisfied(z, rect)
            counts += members
            assert np.array_equal(members, stop == j)
        assert np.all(counts == 1)

    @pytest.mark.parametrize("design, effects", [
        (DESIGN, LFC),
        (DTL, NULL),
    ])
    def test_win_rectangles_match_selection(self, design, effects):
        m = 100_000
        z = draw_statistics(design, effects, np.random.default_rng(41), m)
        stop, winner, _ = simulate._decide_paths(design, z)
        counts = np.zeros(m, dtype=np.int64)
        for j, terms in enumerate(win_event_rectangles(design), start=1):
            members = np.zeros(m, dtype=np.int64)
            for sign, rect in terms:
                members += sign * rect_satisfied(z, rect)
            counts += members
            assert np.array_equal(members, (winner == 1) & (stop == j))
        assert np.all(counts <= 1)
        assert np.array_equal(counts == 1, winner == 1)
