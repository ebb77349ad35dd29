"""Monte Carlo machinery: path laws, trial mechanics, estimator agreement."""

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dtldesign import simulate
from dtldesign.characteristics import _stop_estimates, stage_total_patients
from dtldesign.cli import _load_designed
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
    _reject_paths,
    _stage_rects,
    _stop_paths,
    _win_paths,
    reject_problems,
    total_probability,
    win_problems,
)
from dtldesign.mvn import mvn_rectangle_prob
from dtldesign.simulate import SimulationResult, estimate_characteristics
from oracles import rect_satisfied

EFF = binary_to_normal(BinaryEndpointSpec(0.12, 0.05, 0.01))
DESIGN = TrialDesign(3, 3, 206, (3.471, 2.454, 2.004), 0.025, EFF.sigma)
DTL = TrialDesign(3, 3, 203, (math.inf, math.inf, 1.95996398454), 0.025,
                  EFF.sigma)
NULL = EffectConfig.global_null(3)
LFC = EffectConfig.least_favorable(3, EFF.theta_prime, EFF.theta_zero)
K3_RECORD = (Path(__file__).resolve().parent.parent / "benchmark" / "inputs"
             / "design_k3.json")
# the design `dtldesign design` gives for configs/poptarts.cfg with arms = 4
K4 = TrialDesign(4, 4, 156, (4.04876708984375, 2.8629106646734397,
                             2.337556769207387, 2.024383544921875),
                 0.025, EFF.sigma)
LFC4 = EffectConfig.least_favorable(4, EFF.theta_prime, EFF.theta_zero)
# the same design with stopping disabled at stages 1 and 3
K4_SKIP = replace(K4, boundaries=(math.inf, K4.boundaries[1], math.inf,
                                  K4.boundaries[3]))


def _draw(design, effects, rng, paths):
    """Statistic paths (arms, stages, paths) through the estimator's own
    increment-to-statistic map, from the caller's random source.  The
    normals are drawn path by path, as (paths, groups, stages)."""
    xi = rng.standard_normal((paths, design.arms + 1, design.stages))
    return simulate._z_from_increments(design, effects, xi.transpose(1, 2, 0))


class _ZeroDraw:
    """Degenerate random source: every increment zero, so all statistics tie
    at their means."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestDrawStatistics:
    def test_stagewise_correlation_within_arm(self):
        # corr(Z_{1,1}, Z_{1,2}) = sqrt(1/2); correlation estimates have
        # standard error about (1 - rho^2)/sqrt(m)
        m = 100_000
        z = _draw(DESIGN, NULL, np.random.default_rng(11), m)
        r = np.corrcoef(z[0, 0], z[0, 1])[0, 1]
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
        z = _draw(DESIGN, LFC, np.random.default_rng(23), m)
        # group 0, the control, contributes Z_{0,j} = 0
        groups = np.concatenate([np.zeros_like(z[:1]), z])

        def values(c):
            return (groups[c.arm_a, c.stage - 1]
                    - groups[c.arm_b, c.stage - 1])

        va, vb = values(a), values(b)
        rho = corr_between(a, b)
        assert abs(np.corrcoef(va, vb)[0, 1] - rho) <= \
            4.0 * (1.0 - rho ** 2) / math.sqrt(m)
        # every contrast has unit variance, so the mean SE is 1/sqrt(m)
        for coord, v in ((a, va), (b, vb)):
            assert abs(v.mean() - mean_of(DESIGN, LFC, coord)) <= \
                4.0 / math.sqrt(m)
            assert abs(v.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / m)


class TestSimulateTrial:
    """The drop and stopping rules of simulate._decide_paths, one trial per
    drawn statistic path."""

    @staticmethod
    def _decide(design, effects, draw, paths):
        z = _draw(design, effects, draw, paths)
        return simulate._decide_paths(design, z)

    def test_infinite_interims_always_reach_final_stage(self):
        stop, won, rejected = self._decide(
            DTL, LFC, np.random.default_rng(3), 300)
        assert np.all(stop == 3)
        assert stage_total_patients(DTL, 3) == 1827
        # no drop at the final stage, so arm 1 rejects exactly when it
        # survives both interims and clears: the same paths it wins on
        assert np.array_equal(won, rejected)
        assert 0 < np.count_nonzero(won) < 300

    def test_won_implies_rejected(self):
        stop, won, rejected = self._decide(
            DESIGN, LFC, np.random.default_rng(29), 2000)
        assert not np.any(won & ~rejected)
        # arm 1 dropped at the ending stage rejects without winning
        assert np.any(rejected & ~won)
        assert set(stop.tolist()) <= {1, 2, 3}

    def test_separated_arm_never_dropped(self):
        # arm 1 forced maximal; rivals can never clear the interim bound, so
        # every trial drops them in turn and stops at stage 2 with arm 1
        effects = EffectConfig((10.0 * EFF.sigma, -10.0 * EFF.sigma,
                                -10.0 * EFF.sigma))
        stop, won, rejected = self._decide(
            DESIGN, effects, np.random.default_rng(7), 300)
        assert np.all(stop == 2)
        assert np.all(won)
        assert np.all(rejected)

    def test_ties_drop_lowest_arm_index(self):
        # all statistics tie at 0 and only the final boundary can be
        # cleared: arm 1 is dropped first, so it neither wins nor rejects;
        # were ties dropped from the highest index, it would do both
        design = TrialDesign(3, 3, DESIGN.n_per_stage,
                             (math.inf, math.inf, -1.0), 0.025, EFF.sigma)
        stop, won, rejected = self._decide(design, NULL, _ZeroDraw(), 1)
        assert stop.tolist() == [3]
        assert won.tolist() == [False]
        assert rejected.tolist() == [False]

    def test_ties_select_lowest_arm_index(self):
        # arms 1 and 2 tie above arm 3, which is dropped; both survivors
        # clear, and the tie for best goes to arm 1
        design = TrialDesign(3, 3, DESIGN.n_per_stage, (-1.0, -1.0, -1.0),
                             0.025, EFF.sigma)
        effects = EffectConfig((EFF.sigma, EFF.sigma, 0.0))
        stop, won, rejected = self._decide(design, effects, _ZeroDraw(), 1)
        assert stop.tolist() == [1]
        assert won.tolist() == [True]
        assert rejected.tolist() == [True]

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
        monkeypatch.setattr(simulate, "_SLAB", 977)
        assert estimate_characteristics(DESIGN, LFC, 50_000, seed=4) == \
            reference

    def test_stop_histogram_counts_every_replicate(self):
        reps = 12_345
        res = estimate_characteristics(DESIGN, NULL, reps, seed=2)
        stops = [res.estimates[f"stop_stage_{j}"][0] for j in (1, 2, 3)]
        counts = [round(p * reps) for p in stops]
        for p, c in zip(stops, counts):
            assert abs(p * reps - c) < 1e-6
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
            value = {m: est[0] for m, est in res.estimates.items()}
            assert value["power"] <= value["reject"]
            assert value["reject"] <= value["focal_crossing"] + 1e-12

    def test_single_replicate(self):
        res = estimate_characteristics(DESIGN, LFC, 1, seed=0)
        assert res.estimates["ess"][1] == 0.0
        for name in ("power", "reject", "focal_crossing"):
            assert res.estimates[name][0] in (0.0, 1.0)
        assert sum(res.estimates[f"stop_stage_{j}"][0]
                   for j in (1, 2, 3)) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="reps"):
            estimate_characteristics(DESIGN, NULL, 0)
        with pytest.raises(ValueError, match="length"):
            estimate_characteristics(DESIGN, EffectConfig((0.1,)), 10)
        with pytest.raises(ValueError,
                           match="reps must be an integer, got 100000.0"):
            estimate_characteristics(DESIGN, NULL, 100_000.0)
        with pytest.raises(ValueError,
                           match="reps must be an integer, got True"):
            estimate_characteristics(DESIGN, NULL, True)
        for seed in (True, 1.5, "3"):
            with pytest.raises(ValueError,
                               match=f"seed must be an integer, got {seed!r}"):
                estimate_characteristics(DESIGN, NULL, 10, seed=seed)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            estimate_characteristics(DESIGN, NULL, 10, seed=-1)


# exact estimates at seed 0, recorded from the earlier (paths, arms, stages)
# kernel; any change to the draws or the decision rules shows here
_RECORDED_ESTIMATES = {
    ("k3_global_null", 1): {
        "power": (0.0, 0.0),
        "reject": (0.0, 0.0),
        "focal_crossing": (0.0, 0.0),
        "ess": (1854.0, 0.0),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (0.0, 0.0),
        "stop_stage_3": (1.0, 0.0),
    },
    ("k3_global_null", 12_345): {
        "power": (0.017982989064398543, 0.0011960377805553877),
        "reject": (0.018388011340623733, 0.0012091822440963545),
        "focal_crossing": (0.0246253543944917, 0.0013948625960437213),
        "ess": (1845.5897934386392, 0.5243792065309794),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (0.020413122721749697, 0.0012727135135312381),
        "stop_stage_3": (0.9795868772782503, 0.0012727135135312373),
    },
    ("k3_global_null", 100_000): {
        "power": (0.01864, 0.0004276979120828158),
        "reject": (0.01928, 0.0004348365394030267),
        "focal_crossing": (0.02519, 0.0004955347000967742),
        "ess": (1846.12462, 0.1792901027607574),
        "stop_stage_1": (5e-05, 2.2360120751015635e-05),
        "stop_stage_2": (0.01899, 0.0004316176537168052),
        "stop_stage_3": (0.98096, 0.0004321744832819257),
    },
    ("k3_lfc", 1): {
        "power": (1.0, 0.0),
        "reject": (1.0, 0.0),
        "focal_crossing": (1.0, 0.0),
        "ess": (1442.0, 0.0),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (1.0, 0.0),
        "stop_stage_3": (0.0, 0.0),
    },
    ("k3_lfc", 12_345): {
        "power": (0.9007695423248279, 0.0026908147309207256),
        "reject": (0.9036046982584042, 0.002656266386745614),
        "focal_crossing": (0.9189145402997165, 0.0024567643771798557),
        "ess": (1596.737788578372, 1.8177643479863141),
        "stop_stage_1": (0.0015390846496557311, 0.00035281841188010275),
        "stop_stage_2": (0.6205751316322398, 0.004367315157791355),
        "stop_stage_3": (0.3778857837181045, 0.004363849785212899),
    },
    ("k3_lfc", 100_000): {
        "power": (0.90144, 0.0009425811710404574),
        "reject": (0.90387, 0.00093214281684729),
        "focal_crossing": (0.91959, 0.0008599083201132549),
        "ess": (1595.63686, 0.6355181669526114),
        "stop_stage_1": (0.00109, 0.00010434614990501565),
        "stop_stage_2": (0.62437, 0.0015314440998613042),
        "stop_stage_3": (0.37454, 0.0015305547634763025),
    },
    ("k3_all_relevant", 1): {
        "power": (1.0, 0.0),
        "reject": (1.0, 0.0),
        "focal_crossing": (1.0, 0.0),
        "ess": (1442.0, 0.0),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (1.0, 0.0),
        "stop_stage_3": (0.0, 0.0),
    },
    ("k3_all_relevant", 12_345): {
        "power": (0.32604293236127985, 0.0042189848327432505),
        "reject": (0.5226407452409882, 0.004495507830772365),
        "focal_crossing": (0.9189145402997165, 0.0024567643771798557),
        "ess": (1485.3025516403402, 1.817302241574818),
        "stop_stage_1": (0.038963142972863504, 0.00174161223014468),
        "stop_stage_2": (0.7974888618874038, 0.003616939322831044),
        "stop_stage_3": (0.16354799513973267, 0.003328875696117692),
    },
    ("k3_all_relevant", 100_000): {
        "power": (0.32524, 0.0014814146698342095),
        "reject": (0.52167, 0.001579653161614916),
        "focal_crossing": (0.91959, 0.0008599083201132549),
        "ess": (1485.44334, 0.6313706100104094),
        "stop_stage_1": (0.03747, 0.0006005497406543442),
        "stop_stage_2": (0.80088, 0.0012628191699526896),
        "stop_stage_3": (0.16165, 0.0011641274736900594),
    },
    ("dtl_lfc", 1): {
        "power": (1.0, 0.0),
        "reject": (1.0, 0.0),
        "focal_crossing": (1.0, 0.0),
        "ess": (1827.0, 0.0),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (0.0, 0.0),
        "stop_stage_3": (1.0, 0.0),
    },
    ("dtl_lfc", 12_345): {
        "power": (0.8995544754961523, 0.0027054124397393395),
        "reject": (0.8995544754961523, 0.0027054124397393395),
        "focal_crossing": (0.9181855002025111, 0.002466804930068729),
        "ess": (1827.0, 0.0),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (0.0, 0.0),
        "stop_stage_3": (1.0, 0.0),
    },
    ("dtl_lfc", 100_000): {
        "power": (0.90072, 0.0009456398976354584),
        "reject": (0.90072, 0.0009456398976354584),
        "focal_crossing": (0.91956, 0.0008600546866333557),
        "ess": (1827.0, 0.0),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (0.0, 0.0),
        "stop_stage_3": (1.0, 0.0),
    },
    ("k4_lfc", 1): {
        "power": (1.0, 0.0),
        "reject": (1.0, 0.0),
        "focal_crossing": (1.0, 0.0),
        "ess": (1404.0, 0.0),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (1.0, 0.0),
        "stop_stage_3": (0.0, 0.0),
        "stop_stage_4": (0.0, 0.0),
    },
    ("k4_lfc", 12_345): {
        "power": (0.903280680437424, 0.0026602498654777268),
        "reject": (0.9083029566626164, 0.0025974517153497887),
        "focal_crossing": (0.9261239368165249, 0.0023541865790386238),
        "ess": (1946.8976913730255, 1.3908604165549938),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (0.016767922235722963, 0.0011556387554683856),
        "stop_stage_3": (0.718023491292021, 0.004049768928147915),
        "stop_stage_4": (0.265208586472256, 0.003973107168169076),
    },
    ("k4_lfc", 100_000): {
        "power": (0.90077, 0.0009454279829791375),
        "reject": (0.90508, 0.0009268775194166703),
        "focal_crossing": (0.92196, 0.0008482320342925041),
        "ess": (1948.65528, 0.4856125866130966),
        "stop_stage_1": (0.0, 0.0),
        "stop_stage_2": (0.01518, 0.00038664670695610486),
        "stop_stage_3": (0.71636, 0.0014254415119534017),
        "stop_stage_4": (0.26846, 0.0014013894119765569),
    },
}



def _recorded_case(name):
    if name.startswith("k3_"):
        design, _, _, effects = _load_designed(str(K3_RECORD))
        return design, effects[name[3:]]
    if name == "dtl_lfc":
        return DTL, LFC
    return K4, LFC4


# the default chunk, and one four times as long
_CHUNKS = (simulate._SLAB, 4 * simulate._SLAB)


@pytest.mark.parametrize("name, reps, chunk", [
    *((name, reps, chunk) for name, reps in _RECORDED_ESTIMATES
      for chunk in _CHUNKS),
    ("k4_lfc", 12_345, 977),
])
def test_estimates_reproduce_recorded_bits(name, reps, chunk, monkeypatch):
    monkeypatch.setattr(simulate, "_SLAB", chunk)
    design, effects = _recorded_case(name)
    res = estimate_characteristics(design, effects, reps, seed=0)
    assert res.estimates == _RECORDED_ESTIMATES[name, reps]


@pytest.mark.parametrize("name, reps, chunk", [
    *((name, reps, chunk) for name, reps in _RECORDED_ESTIMATES
      for chunk in _CHUNKS),
    # stripes end unevenly, the last chunk short
    ("k4_lfc", 12_345, 977),
    # two chunks, so three workers run two stripes
    ("k4_lfc", 12_345, 6_400),
    # fewer replicates than one chunk, so one stripe runs
    ("k4_lfc", 12_345, 24_576),
    ("k4_lfc", 12_345, 40_000),
])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_stripes_reproduce_recorded_bits(name, reps, chunk, workers,
                                         monkeypatch):
    monkeypatch.setattr(simulate, "_SLAB", chunk)
    monkeypatch.setattr(simulate, "_WORKERS", workers)
    design, effects = _recorded_case(name)
    res = estimate_characteristics(design, effects, reps, seed=0)
    assert res.estimates == _RECORDED_ESTIMATES[name, reps]


@pytest.mark.parametrize("workers, started", [(1, 0), (3, 2)])
def test_stripes_leave_no_thread(workers, started, monkeypatch):
    # one worker runs on the calling thread; more start one thread per
    # extra stripe and join them all before returning
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(simulate, "_WORKERS", workers)
    before = threading.active_count()
    estimate_characteristics(DESIGN, LFC, 100_000, seed=5)
    assert len(starts) == started
    assert threading.active_count() == before


_SIMULATOR_MEMORY = """
import json, sys, tracemalloc
from dtldesign import simulate
from dtldesign.covariance import EffectConfig, TrialDesign
simulate._WORKERS = int(sys.argv[1])
peaks = []
tracemalloc.start()
for reps in (100_000, 1_000_000):
    tracemalloc.reset_peak()
    simulate.estimate_characteristics({design!r}, {effects!r}, reps)
    peaks.append(tracemalloc.get_traced_memory()[1])
print(json.dumps(peaks))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_stripe_memory_does_not_grow_with_replicates(workers):
    # a fresh interpreter, so the trace holds the simulator's own buffers
    code = _SIMULATOR_MEMORY.format(design=K4, effects=LFC4)
    src = str(Path(simulate.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, str(workers)],
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    peaks = json.loads(out)
    # per stripe: one chunk's increments, (groups, stages, _SLAB) floats,
    # its uniforms, _SLAB rows of its words rounded up to a whole Philox
    # block of 4, and ten per-path vectors of _SLAB floats
    words = (K4.arms + 1) * K4.stages
    bound = (words + 4 * -(-words // 4) + 10) * simulate._SLAB * 8
    assert max(peaks) <= workers * bound
    # threads may meet their peaks together in one run and not in the
    # other: at most one stripe's bound per extra stripe
    assert peaks[1] <= peaks[0] + 4096 + (workers - 1) * bound


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

        # the interim sets, then the final stage as their complement
        stops = _stop_estimates(design, effects, **kw)
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
    of those a path satisfies sum to its event indicator.  At four arms
    "did not stop" spans up to three interims.  Stop events cover the
    interim stages only, so a path's memberships sum to 0 exactly when it
    stops at the final stage."""

    @staticmethod
    def _paths(design):
        # the K4 design has 329 raw rectangles over the three families,
        # DESIGN 48
        return 100_000 if design.arms == 3 else 30_000

    @pytest.mark.parametrize("design, effects", [
        (DESIGN, NULL),
        (DESIGN, LFC),
        (DTL, LFC),
        (K4, LFC4),
        (K4_SKIP, LFC4),
    ])
    def test_stop_rectangles_partition_paths(self, design, effects):
        m = self._paths(design)
        z = _draw(design, effects, np.random.default_rng(37), m)
        stop, _, _ = simulate._decide_paths(design, z)
        counts = np.zeros(m, dtype=np.int64)
        for j, terms in enumerate(
                _stage_rects(design, _stop_paths, design.stages - 1), start=1):
            members = np.zeros(m, dtype=np.int64)
            for sign, rect in terms:
                members += sign * rect_satisfied(z, rect)
            counts += members
            assert np.array_equal(members, stop == j)
        assert np.array_equal(counts == 0, stop == design.stages)

    @pytest.mark.parametrize("design, effects", [
        (DESIGN, LFC),
        (DTL, NULL),
        (K4, LFC4),
        (K4_SKIP, LFC4),
    ])
    def test_win_rectangles_match_selection(self, design, effects):
        m = self._paths(design)
        z = _draw(design, effects, np.random.default_rng(41), m)
        stop, won, _ = simulate._decide_paths(design, z)
        counts = np.zeros(m, dtype=np.int64)
        for j, terms in enumerate(
                _stage_rects(design, _win_paths, design.stages), start=1):
            members = np.zeros(m, dtype=np.int64)
            for sign, rect in terms:
                members += sign * rect_satisfied(z, rect)
            counts += members
            assert np.array_equal(members, won & (stop == j))
        assert np.all(counts <= 1)
        assert np.array_equal(counts == 1, won)

    @pytest.mark.parametrize("design, effects", [
        (DESIGN, NULL),
        (DESIGN, LFC),
        (DTL, LFC),
        (K4, LFC4),
        (K4_SKIP, LFC4),
    ])
    def test_reject_rectangles_match_rejection(self, design, effects):
        m = self._paths(design)
        z = _draw(design, effects, np.random.default_rng(43), m)
        stop, _, rejected = simulate._decide_paths(design, z)
        counts = np.zeros(m, dtype=np.int64)
        for j, terms in enumerate(
                _stage_rects(design, _reject_paths, design.stages), start=1):
            members = np.zeros(m, dtype=np.int64)
            for sign, rect in terms:
                members += sign * rect_satisfied(z, rect)
            counts += members
            assert np.array_equal(members, rejected & (stop == j))
        assert np.all(counts <= 1)
        assert np.array_equal(counts == 1, rejected)
