"""Operating characteristics: error rates, power, patient numbers."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from dtldesign import calibrate
from dtldesign.calibrate import (
    BoundaryShape,
    CalibrationConfig,
    SearchLimitError,
    calibrate_boundaries,
    comparator_multiarm,
    comparator_separate_trials,
    multiarm_lfc_power,
    separate_trials_power,
)
from dtldesign.characteristics import (
    DEFAULT_TARGET,
    OperatingCharacteristics,
    _stop_estimates,
    analytic_estimates,
    full_report,
    max_total_patients,
    pwer,
    power_lfc,
    stage_total_patients,
    stop_stage_probabilities,
    type_i_global_null,
)
from dtldesign.cli import _load_designed
from dtldesign.covariance import EffectConfig, TrialDesign
from dtldesign.endpoint import BinaryEndpointSpec, binary_to_normal
from dtldesign.events import (
    global_null_typeI_problems,
    power_lfc_problems,
    set_probability,
    stop_stage_problems,
    win_problems,
)
from dtldesign.mvn import OrthantProblem, mvn_rectangle_prob
from dtldesign.simulate import estimate_characteristics

EFF = binary_to_normal(BinaryEndpointSpec(0.12, 0.05, 0.01))
DESIGN = TrialDesign(3, 3, 206, (3.471, 2.454, 2.004), 0.025, EFF.sigma)
DTL = TrialDesign(3, 3, 203, (math.inf, math.inf, 1.95996398454), 0.025,
                  EFF.sigma)
K3_RECORD = (Path(__file__).resolve().parent.parent / "benchmark" / "inputs"
             / "design_k3.json")
CONFIGS = {
    "global_null": EffectConfig.global_null(3),
    "lfc": EffectConfig.least_favorable(3, EFF.theta_prime, EFF.theta_zero),
    "all_relevant": EffectConfig.all_relevant(3, EFF.theta_prime),
}


@pytest.fixture(scope="module")
def report():
    return full_report(DESIGN, EFF, CONFIGS)


@pytest.fixture(scope="module")
def dtl_report():
    return full_report(DTL, EFF, CONFIGS)


@pytest.fixture(scope="module")
def calibrated():
    return calibrate_boundaries(DESIGN, BoundaryShape(),
                                CalibrationConfig(0.025, 0.9))


def alloc_stage_total(design, stage):
    # per-group rendering: cumulative totals of the dropped arms, the
    # (K - j + 1) survivors at j*n each, and the control's j*n
    n = design.n_per_stage
    dropped = sum(i * n for i in range(1, stage))
    survivors = (design.arms - stage + 1) * stage * n
    control = stage * n
    return dropped + survivors + control


class TestRecordValidation:
    def good(self, **over):
        base = dict(pwer=0.025, power_lfc=0.9, type_i_global_null=0.019,
                    max_n=1854,
                    ess={"a": 1500.0}, stop_probs={"a": (0.1, 0.4, 0.5)})
        base.update(over)
        return OperatingCharacteristics(**base)

    def test_good_record(self):
        rec = self.good()
        assert rec.max_n == 1854

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="not a probability"):
            self.good(pwer=1.5)
        with pytest.raises(ValueError, match="not a probability"):
            self.good(power_lfc=-0.2)

    def test_bad_max_n(self):
        with pytest.raises(ValueError, match="max_n"):
            self.good(max_n=0)

    def test_ess_above_max(self):
        with pytest.raises(ValueError, match="outside"):
            self.good(ess={"a": 1900.0})

    def test_key_mismatch(self):
        with pytest.raises(ValueError, match="share their keys"):
            self.good(ess={"b": 1500.0})

    def test_leaky_partition(self):
        with pytest.raises(ValueError, match="sum to"):
            self.good(stop_probs={"a": (0.1, 0.4, 0.4)})

    def test_negative_stop_probability(self):
        with pytest.raises(ValueError, match="not probabilities"):
            self.good(stop_probs={"a": (-0.1, 0.6, 0.5)})


class TestPwer:
    def test_single_stage_tail(self):
        d = TrialDesign(1, 1, 10, (1.6449,), 0.05, 1.0)
        assert pwer(d) == pytest.approx(norm.sf(1.6449), abs=1e-4)
        assert pwer(d) == pytest.approx(0.05, abs=1e-4)

    def test_unreachable_boundaries(self):
        d = TrialDesign(3, 3, 206, (math.inf, math.inf, 40.0), 0.025,
                        EFF.sigma)
        assert pwer(d) <= 1e-12

    def test_calibrated_design_sits_in_window(self, calibrated):
        got = pwer(calibrated)
        assert 0.025 - 1e-5 - 5e-7 <= got <= 0.025 + 5e-7

    def test_report_value(self, report):
        assert report.pwer == pytest.approx(0.025, abs=5e-4)


class TestPowerLfc:
    def test_reference_power(self, report):
        assert report.power_lfc == pytest.approx(0.901, abs=2e-3)

    def test_dtl_power(self, dtl_report):
        assert dtl_report.power_lfc == pytest.approx(0.901, abs=2e-3)

    def test_rejects_reversed_effects(self):
        with pytest.raises(ValueError):
            power_lfc(DESIGN, 0.1, 0.5)


class TestTypeIGlobalNull:
    def test_reference_value(self, report):
        assert report.type_i_global_null == pytest.approx(0.019, abs=1e-3)

    def test_dtl_value(self, dtl_report):
        assert dtl_report.type_i_global_null == pytest.approx(0.018,
                                                              abs=1e-3)

    def test_below_pwer(self, report, dtl_report):
        for rec in (report, dtl_report):
            assert rec.type_i_global_null <= rec.pwer + 1e-6


class TestPatientCounts:
    def test_reference_stage_totals(self):
        assert [stage_total_patients(DESIGN, j) for j in (1, 2, 3)] == \
            [824, 1442, 1854]

    def test_max_totals(self):
        assert max_total_patients(DESIGN) == 1854
        assert max_total_patients(DTL) == 1827

    def test_stage_out_of_range(self):
        with pytest.raises(ValueError):
            stage_total_patients(DESIGN, 0)
        with pytest.raises(ValueError):
            stage_total_patients(DESIGN, 4)

    @given(arms=st.integers(min_value=1, max_value=6),
           n=st.integers(min_value=1, max_value=400))
    @settings(max_examples=60)
    def test_two_renderings_agree(self, arms, n):
        d = TrialDesign(arms, arms, n, (2.0,) * arms, 0.025, 1.0)
        for j in range(1, arms + 1):
            assert stage_total_patients(d, j) == alloc_stage_total(d, j)
        assert max_total_patients(d) == n * arms * (arms + 3) // 2


class TestStopAndEss:
    def test_reference_ess(self, report):
        assert report.ess["global_null"] == pytest.approx(1846.5, abs=1.5)
        assert report.ess["lfc"] == pytest.approx(1596.0, abs=2.0)
        assert report.ess["all_relevant"] == pytest.approx(1484.7, abs=2.0)

    def test_early_stopping_probabilities(self, report):
        lfc = report.stop_probs["lfc"]
        assert lfc[0] + lfc[1] == pytest.approx(0.625, abs=4e-3)
        allr = report.stop_probs["all_relevant"]
        assert allr[0] + allr[1] == pytest.approx(0.837, abs=4e-3)

    def test_partitions_sum_to_one(self, report):
        for probs in report.stop_probs.values():
            assert math.fsum(probs) == pytest.approx(1.0, abs=2e-5)

    def test_ess_identity_against_allocation_form(self, report):
        for name, probs in report.stop_probs.items():
            again = math.fsum(p * alloc_stage_total(DESIGN, j + 1)
                              for j, p in enumerate(probs))
            assert abs(again - report.ess[name]) <= 1e-9

    def test_dtl_never_stops_early(self, dtl_report):
        for probs in dtl_report.stop_probs.values():
            assert probs[0] == 0.0 and probs[1] == 0.0

    def test_dtl_ess_is_max_n(self, dtl_report):
        # no interim stop set, so the final stage is exactly one
        for value in dtl_report.ess.values():
            assert value == dtl_report.max_n

    def test_stop_probabilities_standalone(self):
        probs = stop_stage_probabilities(DTL, CONFIGS["global_null"])
        assert len(probs) == 3
        assert probs[:2] == (0.0, 0.0)


def _multiarm_rectangle(arms, n, alpha, theta_prime, theta_zero, sigma):
    """The single-look comparator's power as a K-dimensional orthant:
    coordinates (Z_1, Z_1 - Z_2, ..., Z_1 - Z_K), all of unit variance,
    pairwise correlated one half under equal allocation."""
    shift = math.sqrt(n / 2.0) / sigma
    mean = [theta_prime * shift] + [(theta_prime - theta_zero) * shift] * (
        arms - 1)
    corr = 0.5 * (np.eye(arms) + np.ones((arms, arms)))
    lower = [float(ndtri(1.0 - alpha))] + [0.0] * (arms - 1)
    return OrthantProblem(np.array(mean), corr, np.array(lower),
                          np.full(arms, math.inf))


class TestComparators:
    def test_multiarm_reference(self):
        n, total = comparator_multiarm(3, 0.025, 0.9, EFF.theta_prime,
                                       EFF.theta_zero, EFF.sigma)
        assert n == 569
        assert total == 2276

    def test_multiarm_reference_takes_few_power_integrals(self,
                                                          monkeypatch):
        visits, real = [], calibrate.multiarm_lfc_power

        def counted(arms, n, *args, **kwargs):
            visits.append(n)
            return real(arms, n, *args, **kwargs)
        monkeypatch.setattr(calibrate, "multiarm_lfc_power", counted)
        assert comparator_multiarm(3, 0.025, 0.9, EFF.theta_prime,
                                   EFF.theta_zero, EFF.sigma) == (569, 2276)
        assert len(visits) <= 4, visits

    def test_multiarm_minimality(self):
        args = (3, 0.025, EFF.theta_prime, EFF.theta_zero, EFF.sigma)
        assert multiarm_lfc_power(args[0], 569, args[1], *args[2:]) >= 0.9
        assert multiarm_lfc_power(args[0], 568, args[1], *args[2:]) < 0.9

    def test_multiarm_single_arm_closed_form(self):
        n, total = comparator_multiarm(1, 0.025, 0.9, EFF.theta_prime,
                                       EFF.theta_prime, EFF.sigma)
        z_sum = ndtri(0.975) + ndtri(0.9)
        want = math.ceil(2.0 * EFF.sigma_sq * z_sum ** 2
                         / EFF.theta_prime ** 2)
        assert n == want == 564
        assert total == 2 * 564

    def test_separate_trials_reference(self):
        n, total = comparator_separate_trials(3, 0.025, 0.9,
                                              EFF.theta_prime, EFF.sigma)
        assert (n, total) == (564, 3384)

    def test_separate_trials_power_inverts_the_sample_size(self):
        args = (0.025, EFF.theta_prime, EFF.sigma)
        assert separate_trials_power(564, *args) >= 0.9
        assert separate_trials_power(563, *args) < 0.9
        assert separate_trials_power(564, *args) == pytest.approx(
            0.900241, abs=1e-6)

    def test_separate_trials_half_power(self):
        n, _ = comparator_separate_trials(3, 0.025, 0.5, 0.8, 2.0)
        want = math.ceil(2.0 * 4.0 * ndtri(0.975) ** 2 / 0.64)
        assert n == want

    def test_separate_trials_variance_scaling(self):
        n1, _ = comparator_separate_trials(3, 0.025, 0.9, 0.5, 1.3)
        n2, _ = comparator_separate_trials(3, 0.025, 0.9, 0.5,
                                           1.3 * math.sqrt(2.0))
        assert 2 * n1 - 1 <= n2 <= 2 * n1

    def test_multiarm_validation(self):
        with pytest.raises(ValueError):
            comparator_multiarm(0, 0.025, 0.9, 0.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            comparator_multiarm(3, 0.025, 0.9, 0.1, 0.5, 1.0)

    @pytest.mark.parametrize("comparator", [
        lambda arms, alpha, power, theta_prime, sigma: comparator_multiarm(
            arms, alpha, power, theta_prime, 0.1, sigma),
        comparator_separate_trials,
    ], ids=["multi_arm", "separate_trials"])
    @pytest.mark.parametrize("args", [(0, 0.025, 0.9, 0.5, 1.0),
                                      (3, 0.0, 0.9, 0.5, 1.0),
                                      (3, 0.025, 1.0, 0.5, 1.0),
                                      (3, 0.025, 0.9, 0.0, 1.0),
                                      (3, 0.025, 0.9, 0.5, 0.0),
                                      (3, 0.025, 0.9, 0.5, -1.0),
                                      (2.5, 0.025, 0.9, 0.5, 1.0),
                                      (3, 0.025, 0.9, math.inf, 1.0),
                                      (3, 0.025, 0.9, math.nan, 1.0),
                                      (3, 0.025, 0.9, 0.5, math.inf)])
    def test_comparator_validation(self, comparator, args):
        with pytest.raises(ValueError):
            comparator(*args)

    def test_separate_trials_need_at_least_one_patient(self):
        # a huge effect asks for a fraction of a patient per group
        assert comparator_separate_trials(3, 0.025, 0.9, 1e308, 1.0) == (1, 6)

    @pytest.mark.parametrize("arms", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [100, 569])
    def test_multiarm_power_matches_the_rectangle_integral(self, arms, n):
        est = mvn_rectangle_prob(
            _multiarm_rectangle(arms, n, 0.025, EFF.theta_prime,
                                EFF.theta_zero, EFF.sigma),
            target_abs_error=1e-7, seed=0)
        got = multiarm_lfc_power(arms, n, 0.025, EFF.theta_prime,
                                 EFF.theta_zero, EFF.sigma)
        assert abs(got - est.value) <= est.error_bound + 1e-9

    @pytest.mark.parametrize("n", [1, 10, 100, 564, 5000])
    def test_multiarm_single_arm_is_one_two_arm_trial(self, n):
        got = multiarm_lfc_power(1, n, 0.025, EFF.theta_prime,
                                 EFF.theta_zero, EFF.sigma)
        want = separate_trials_power(n, 0.025, EFF.theta_prime, EFF.sigma)
        assert abs(got - want) <= 1e-12

    def test_multiarm_search_cap(self):
        # an effect this small needs more patients than the search allows
        with pytest.raises(SearchLimitError, match="max_n=100000"):
            comparator_multiarm(3, 0.025, 0.9, 1e-3, 0.0, EFF.sigma)


class TestAnalyticEstimates:
    def test_keys_are_the_simulator_metric_names(self):
        est = analytic_estimates(DESIGN, CONFIGS["lfc"])
        sim = estimate_characteristics(DESIGN, CONFIGS["lfc"], 100)
        assert list(est) == list(sim.estimates)

    def test_null_focal_crossing_is_the_pwer(self):
        est = analytic_estimates(DESIGN, CONFIGS["global_null"],
                                 target_abs_error=1e-3)
        assert est["focal_crossing"] == pwer(DESIGN)

    def test_same_numbers_as_the_checked_characteristics(self, report):
        # same problems, target and seed: the same floats
        est = {name: analytic_estimates(DESIGN, effects)
               for name, effects in CONFIGS.items()}
        assert est["lfc"]["power"] == report.power_lfc
        assert est["global_null"]["reject"] == report.type_i_global_null
        assert est["global_null"]["focal_crossing"] == report.pwer
        for name, got in est.items():
            assert got["ess"] == report.ess[name], name
            assert tuple(got[f"stop_stage_{j}"] for j in (1, 2, 3)) == \
                report.stop_probs[name], name


class TestFullReport:
    def test_max_n(self, report):
        assert report.max_n == 1854

    def test_empty_config_map(self):
        d = TrialDesign(1, 1, 50, (1.96,), 0.025, 3.0)
        rec = full_report(d, EFF, {})
        assert rec.ess == {} and rec.stop_probs == {}
        assert 0.0 <= rec.type_i_global_null <= rec.pwer + 1e-6
        assert rec.max_n == 2 * 50

    def test_deterministic(self):
        a = full_report(DTL, EFF, {"lfc": CONFIGS["lfc"]})
        b = full_report(DTL, EFF, {"lfc": CONFIGS["lfc"]})
        assert a == b

    @staticmethod
    def _k3_record_sets():
        # the event sets full_report integrates on the stored K=3 design
        # record, at the default target and seed
        design, _, normal, effects = _load_designed(str(K3_RECORD))
        lfc = EffectConfig.least_favorable(3, normal.theta_prime,
                                           normal.theta_zero)
        sets = [s for e in effects.values()
                for s in stop_stage_problems(design, e)]
        sets += win_problems(design, lfc)
        sets += global_null_typeI_problems(design)
        assert len(sets) == 12
        return [(pset, set_probability(pset, target_abs_error=DEFAULT_TARGET))
                for pset in sets]

    def test_every_set_converges_on_the_k3_record(self):
        for pset, est in self._k3_record_sets():
            assert est.converged, (pset.stage, est)

    def test_k3_record_sets_spend_within_budget(self):
        # each set's evaluations go to the problems that dominate its
        # bound; integrating every problem to one uniform target spent
        # 960,000 here
        sets = self._k3_record_sets()
        assert all(est.error_bound <= DEFAULT_TARGET for _, est in sets)
        assert sum(est.evaluations for _, est in sets) <= 400_000

    def test_k3_record_report_bits(self):
        # exact floats: each problem's integration seed is its index in a
        # canonically sorted set, so reordering coordinates or problems
        # reseeds the integrals and moves these
        design, _, normal, effects = _load_designed(str(K3_RECORD))
        assert full_report(design, normal, effects) == \
            OperatingCharacteristics(
                pwer=0.02499667296965913,
                power_lfc=0.901340039297738,
                type_i_global_null=0.019109434268356654,
                max_n=1854,
                ess={"all_relevant": 1485.278176817638,
                     "global_null": 1846.3651607653028,
                     "lfc": 1596.1680360030355},
                stop_probs={
                    "all_relevant": (0.03788933413056078,
                                     0.8002325461841847,
                                     0.16187811968525445),
                    "global_null": (2.336540773698584e-05,
                                    0.018472749671670678,
                                    0.9815038849205924),
                    "lfc": (0.000943968301742303, 0.6234458171023544,
                            0.3756102145959034)})

    def test_k3_record_set_bits(self):
        # value, bound (float.hex) and evaluations of every set estimate
        # behind full_report on the K=3 record: the stop stages of each
        # configuration (the last one minus the others), then the power
        # and type I sets
        design, _, normal, effects = _load_designed(str(K3_RECORD))
        got = {name: _stop_estimates(design, e,
                                     target_abs_error=DEFAULT_TARGET, seed=0)
               for name, e in effects.items()}
        for name, sets in (
                ("power", power_lfc_problems(design, normal.theta_prime,
                                             normal.theta_zero)),
                ("type1", global_null_typeI_problems(design))):
            got[name] = [set_probability(pset, target_abs_error=DEFAULT_TARGET)
                         for pset in sets]
        assert {name: [(e.value.hex(), e.error_bound.hex(), e.evaluations)
                       for e in ests] for name, ests in got.items()} == {
            "all_relevant": [
                ("0x1.3663b15ea7bb8p-5", "0x1.52c7fd89f5961p-17", 6144),
                ("0x1.99b8148e1c9cbp-1", "0x1.f42eb9ed66bb1p-17", 122880),
                ("0x1.4b86c16fe39e4p-3", "0x1.2e0ec1647a369p-16", 129024)],
            "global_null": [
                ("0x1.8801a97e9a62ep-16", "0x1.7a7119913386bp-24", 1536),
                ("0x1.2ea853ed3fd21p-6", "0x1.c087a2a3db790p-18", 3072),
                ("0x1.f687ad5d43044p-1", "0x1.c0919cf9cf05fp-18", 4608)],
            "lfc": [
                ("0x1.eee947e024191p-11", "0x1.00fdd720ea311p-21", 3072),
                ("0x1.3f344a4690b23p-1", "0x1.6dd1771e0b45ap-17", 56832),
                ("0x1.809ff6ceee89ap-2", "0x1.6e2bb10e1f897p-17", 59904)],
            "power": [
                ("0x1.829d3f006338fp-11", "0x1.bba979e35d6c3p-22", 1536),
                ("0x1.3cb5a43b9f2c2p-1", "0x1.35f3763ba9ac9p-16", 26112),
                ("0x1.20cc4b06b1386p-2", "0x1.ac8e061afab38p-17", 76800)],
            "type1": [
                ("0x1.0ba521d3c14d9p-16", "0x1.f8a7bfc676dc7p-25", 3072),
                ("0x1.b60a0b7bf3560p-8", "0x1.5d728bd54d903p-19", 6144),
                ("0x1.96a2b54e40348p-7", "0x1.0a74d24ee63fep-17", 6144)]}

    def test_k4_design_reports_at_the_default_target(self):
        # the design `dtldesign design` gives with arms = 4; each set is
        # integrated to the default set-level target, and its stop-stage
        # bounds stay within the error allowance at every seed
        design = TrialDesign(4, 4, 156, (4.04876708984375, 2.8629106646734397,
                                         2.337556769207387, 2.024383544921875),
                             0.025, EFF.sigma)
        configs = {
            "global_null": EffectConfig.global_null(4),
            "lfc": EffectConfig.least_favorable(4, EFF.theta_prime,
                                                EFF.theta_zero),
            "all_relevant": EffectConfig.all_relevant(4, EFF.theta_prime),
        }
        for seed in (0, 1, 2):
            rec = full_report(design, EFF, configs, seed=seed)
            assert {len(p) for p in rec.stop_probs.values()} == {4}
