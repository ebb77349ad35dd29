"""Event enumeration: structure of the problem sets and their probabilities.

Structural assertions pin the counts, dimensions and symmetry collapses of
the enumerated rectangles for the three-arm reference design; probability
assertions check the headline operating characteristics of that design and
the exact partition identity sum_j P(stop at j) = 1.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from dtldesign import events
from dtldesign.covariance import EffectConfig, TrialDesign, single
from dtldesign.events import (
    CapacityError,
    EventProblemSet,
    _weighted_sum,
    global_null_typeI_problems,
    power_lfc_problems,
    pwer_problem,
    reject_problems,
    set_probability,
    stop_event_rectangles,
    stop_stage_problems,
    total_probability,
    win_event_rectangles,
    win_problems,
)
from dtldesign.mvn import ProbabilityEstimate, mvn_rectangle_prob

from oracles import normal_tail

THETA_P = 0.594
THETA_0 = 0.098
SIGMA = math.sqrt(9.47)
U = (3.471, 2.454, 2.004)
Z975 = norm.ppf(0.975)

DESIGN = TrialDesign(3, 3, 206, U, 0.025, SIGMA)
DTL = TrialDesign(3, 3, 203, (math.inf, math.inf, Z975), 0.025, SIGMA)
LFC = EffectConfig.least_favorable(3, THETA_P, THETA_0)
ALL_RELEVANT = EffectConfig.all_relevant(3, THETA_P)
NULL = EffectConfig.global_null(3)


def prob(problem, seed=0, target=1e-6):
    return mvn_rectangle_prob(problem, target_abs_error=target, seed=seed)


# ---------------------------------------------------------------------------
# domain types


def test_survivors():
    # a drop order is the tuple of arms dropped at stages 1, 2, ...
    assert events._survivors(DESIGN, (3, 1)) == (2,)
    assert events._survivors(DESIGN, ()) == (1, 2, 3)


class TestEventProblemSet:
    def test_rejects_nonpositive_weight(self):
        p = pwer_problem(DESIGN)
        with pytest.raises(ValueError):
            EventProblemSet(1, ((0, p),))

    def test_accepts_negative_weight(self):
        p = pwer_problem(DESIGN)
        assert EventProblemSet(1, ((-2, p),)).problems == ((-2, p),)

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            EventProblemSet(0, ())

    def test_rejects_non_problem(self):
        with pytest.raises(TypeError):
            EventProblemSet(1, ((1, "nope"),))


# ---------------------------------------------------------------------------
# pairwise error problem


class TestPwerProblem:
    def test_structure(self):
        p = pwer_problem(DESIGN)
        assert p.dim == 3
        assert np.all(p.mean == 0.0)
        assert np.all(np.isneginf(p.lower))
        np.testing.assert_array_equal(p.upper, np.array(U))
        # one arm across stages: sqrt(i/j) ladder
        assert p.corr[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert p.corr[0, 2] == pytest.approx(math.sqrt(1 / 3), abs=1e-15)

    def test_reference_design_pwer(self):
        est = prob(pwer_problem(DESIGN), target=1e-7)
        assert 1.0 - est.value == pytest.approx(0.025, abs=5e-4)

    def test_single_stage_exact(self):
        d1 = TrialDesign(1, 1, 100, (1.96,), 0.025, 1.0)
        est = prob(pwer_problem(d1))
        assert est.error_bound == 0.0
        assert 1.0 - est.value == pytest.approx(normal_tail(1.96), abs=1e-12)

    def test_infinite_interims_match_single_stage(self):
        d3 = TrialDesign(3, 3, 100, (math.inf, math.inf, 1.96), 0.025, 1.0)
        est = prob(pwer_problem(d3))
        # unconstrained coordinates drop out, leaving the univariate tail
        assert est.error_bound == 0.0
        assert 1.0 - est.value == pytest.approx(normal_tail(1.96), abs=1e-14)

    def test_pwer_does_not_depend_on_n(self):
        a = prob(pwer_problem(DESIGN), seed=5)
        b = prob(pwer_problem(DESIGN.with_n(17)), seed=5)
        assert a.value == b.value


# ---------------------------------------------------------------------------
# win events (arm 1 recommended)


class TestWinEvents:
    def test_lfc_stage_sets_collapse(self):
        sets = power_lfc_problems(DESIGN, THETA_P, THETA_0)
        assert [s.stage for s in sets] == [1, 2, 3]
        # the two rival arms share one effect, so mirrored drop orders
        # merge; each interim adds an all-above term of the opposite sign
        assert [(w, p.dim) for w, p in sets[0].problems] == [(2, 5)]
        assert [(w, p.dim) for w, p in sets[1].problems] == [(-2, 6), (2, 4)]
        assert [(w, p.dim) for w, p in sets[2].problems] == [
            (2, 7), (-2, 6), (-2, 5), (2, 4)]

    def test_lfc_power_matches_reference(self):
        sets = power_lfc_problems(DESIGN, THETA_P, THETA_0)
        est = total_probability(sets, target_abs_error=1e-5)
        assert est.converged
        assert est.value == pytest.approx(0.901, abs=1.5e-3)

    def test_requires_effect_gap(self):
        with pytest.raises(ValueError):
            power_lfc_problems(DESIGN, 0.1, 0.1)

    def test_dtl_mode_blocks_early_wins(self):
        sets = win_problems(DTL, LFC)
        assert sets[0].problems == ()
        assert sets[1].problems == ()
        assert [(w, p.dim) for w, p in sets[2].problems] == [(2, 4)]

    def test_win_within_stop_per_stage(self):
        win = win_problems(DESIGN, LFC)
        stop = stop_stage_problems(DESIGN, LFC)
        for w, s in zip(win, stop):
            pw = set_probability(w, target_abs_error=1e-5)
            ps = set_probability(s, target_abs_error=1e-5)
            assert pw.value <= ps.value + pw.error_bound + ps.error_bound


# ---------------------------------------------------------------------------
# stopping-stage events


class TestStopEvents:
    def test_counts_without_symmetry(self):
        effects = EffectConfig((0.11, 0.23, 0.37))
        sets = stop_stage_problems(DESIGN, effects)
        assert [w for w, _ in sets[0].problems] == [1, 1, 1]
        assert {p.dim for _, p in sets[0].problems} == {4}
        # after an interim, each signed pair cancels in the weight sum
        assert sorted(w for w, _ in sets[1].problems) == [-1] * 6 + [1] * 6
        assert {p.dim for _, p in sets[1].problems} == {4, 6}
        assert sorted(w for w, _ in sets[2].problems) == [-1] * 12 + [1] * 12
        assert {p.dim for _, p in sets[2].problems} == {3, 4, 5, 6}

    def test_global_null_collapses_stage1(self):
        sets = stop_stage_problems(DESIGN, NULL)
        assert [(w, p.dim) for w, p in sets[0].problems] == [(3, 4)]

    def test_stage1_matrix_matches_reference(self):
        # printed stage-1 stopping matrix, coordinate order
        # (Z_{1,1}, Z_{1,1}-Z_{3,1}, Z_{2,1}, Z_{2,1}-Z_{3,1})
        ref = np.array([
            [1.0, 0.5, 0.5, 0.0],
            [0.5, 1.0, 0.0, 0.5],
            [0.5, 0.0, 1.0, 0.5],
            [0.0, 0.5, 0.5, 1.0],
        ])
        (w, p), = stop_stage_problems(DESIGN, NULL)[0].problems
        assert w == 3
        # enumerator sorts differences first: (D_a, D_b, Z_a, Z_b)
        perm = [1, 3, 0, 2]
        np.testing.assert_allclose(p.corr, ref[np.ix_(perm, perm)],
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(p.lower[:2], [0.0, 0.0])
        np.testing.assert_array_equal(p.lower[2:], [U[0], U[0]])

    def test_lfc_early_stop_probability(self):
        sets = stop_stage_problems(DESIGN, LFC)
        early = (set_probability(sets[0], target_abs_error=1e-5).value
                 + set_probability(sets[1], target_abs_error=1e-5).value)
        assert early == pytest.approx(0.625, abs=2e-3)

    def test_all_relevant_early_stop_probability(self):
        sets = stop_stage_problems(DESIGN, ALL_RELEVANT)
        early = (set_probability(sets[0], target_abs_error=1e-5).value
                 + set_probability(sets[1], target_abs_error=1e-5).value)
        assert early == pytest.approx(0.837, abs=2e-3)

    def test_dtl_never_stops_early(self):
        sets = stop_stage_problems(DTL, LFC)
        assert sets[0].problems == ()
        assert sets[1].problems == ()
        final = set_probability(sets[2], target_abs_error=1e-6)
        assert final.value == pytest.approx(1.0, abs=2e-5)

    def test_single_arm_trial_always_stops_at_one(self):
        d1 = TrialDesign(1, 1, 50, (1.96,), 0.025, 1.0)
        sets = stop_stage_problems(d1, EffectConfig.global_null(1))
        assert len(sets) == 1
        est = set_probability(sets[0], target_abs_error=1e-6)
        assert est.value == 1.0 and est.error_bound == 0.0


def _random_case(k, seed):
    rng = np.random.default_rng(seed)
    if rng.uniform() < 0.2:
        bounds = (math.inf,) * (k - 1) + (float(rng.uniform(1.5, 2.5)),)
    else:
        c = rng.uniform(1.8, 3.2)
        bounds = tuple(c * math.sqrt(k / j) for j in range(1, k + 1))
    design = TrialDesign(k, k, int(rng.integers(5, 200)), bounds, 0.025,
                         float(rng.uniform(0.5, 3.0)))
    effects = EffectConfig(tuple(rng.uniform(-0.8, 0.8, size=k)))
    return design, effects


@pytest.mark.parametrize("k,seed", [(2, 11), (2, 12), (2, 13), (2, 14),
                                    (2, 15), (2, 16), (3, 21), (3, 22),
                                    (3, 23), (3, 24)])
def test_stop_stages_partition_unity(k, seed):
    design, effects = _random_case(k, seed)
    sets = stop_stage_problems(design, effects)
    est = total_probability(sets, target_abs_error=2e-6, seed=seed)
    assert est.value == pytest.approx(1.0, abs=2e-5)


# ---------------------------------------------------------------------------
# collapsed sets and raw rectangles come from one enumeration


def _obf_design(k):
    return TrialDesign(k, k, 50, tuple(2.0 * math.sqrt(k / j)
                                       for j in range(1, k + 1)), 0.025, 1.0)


_COLLAPSE_EFFECTS = {
    "lfc": lambda k: EffectConfig.least_favorable(k, THETA_P, THETA_0),
    "all_equal": lambda k: EffectConfig.all_relevant(k, THETA_P),
}


def _check_weights_count_raw_rectangles(sets, stages):
    # weights sum to the raw signs; absolute weights count the raw
    # rectangles, so no key merges rectangles of opposite sign
    assert [sum(w for w, _ in s.problems) for s in sets] == \
        [sum(sign for sign, _ in terms) for terms in stages]
    assert [sum(abs(w) for w, _ in s.problems) for s in sets] == \
        [len(terms) for terms in stages]


@pytest.mark.parametrize("effects", sorted(_COLLAPSE_EFFECTS))
@pytest.mark.parametrize("k", [3, 4])
def test_stop_weights_count_raw_rectangles(k, effects):
    design = _obf_design(k)
    _check_weights_count_raw_rectangles(
        stop_stage_problems(design, _COLLAPSE_EFFECTS[effects](k)),
        stop_event_rectangles(design))


@pytest.mark.parametrize("effects", sorted(_COLLAPSE_EFFECTS))
@pytest.mark.parametrize("k", [3, 4])
def test_win_weights_count_raw_rectangles(k, effects):
    design = _obf_design(k)
    _check_weights_count_raw_rectangles(
        win_problems(design, _COLLAPSE_EFFECTS[effects](k)),
        win_event_rectangles(design))


def test_k5_lfc_problem_counts():
    # one signed pair per interim keeps five arms cheap to enumerate
    design = _obf_design(5)
    win = power_lfc_problems(design, THETA_P, THETA_0)
    stop = stop_stage_problems(design, _COLLAPSE_EFFECTS["lfc"](5))
    assert [len(s.problems) for s in win] == [1, 2, 4, 8, 16]
    assert [len(s.problems) for s in stop] == [2, 6, 16, 40, 80]


def _boundaries(k, kind):
    finite = _obf_design(k).boundaries
    if kind == "finite":
        return finite
    if kind == "dtl":
        return (math.inf,) * (k - 1) + finite[-1:]
    # mixed: stopping disabled at the odd interims only
    return tuple(math.inf if j % 2 and j < k else u
                 for j, u in enumerate(finite, start=1))


@pytest.mark.parametrize("kind", ["finite", "dtl", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_raw_rectangles_are_sorted_nonempty_and_single_valued(k, kind):
    # each path constrains a coordinate at most once, so a rectangle is its
    # sorted constraint list, pruned when an infinite boundary empties it
    design = _obf_design(k).with_boundaries(_boundaries(k, kind))
    families = [stop_event_rectangles(design), win_event_rectangles(design)]
    n_rects = 0
    for stages in families:
        for terms in stages:
            for sign, rect in terms:
                assert sign in (1, -1)
                coords = [c for c, _, _ in rect]
                assert len(set(coords)) == len(coords)
                assert all(lo < hi for _, lo, hi in rect)
                # contrasts of two arms before an arm's own statistic
                keys = [(c.stage, c.arm_b == 0, c.arm_a, c.arm_b)
                        for c in coords]
                assert keys == sorted(keys)
                n_rects += 1
    assert n_rects > 0


def test_no_raw_rectangle_holds_a_swapped_pair():
    # Z_a - Z_b at one stage against Z_b - Z_a at another is the one pair
    # whose correlation the arm-level rule rounds (tests/oracles.py); no
    # enumerated rectangle constrains both, so that rounding never reached
    # a reported number
    n_rects = 0
    for k in range(2, 6):
        for kind in ("finite", "dtl"):
            design = _obf_design(k).with_boundaries(_boundaries(k, kind))
            for paths in (events._stop_paths, events._win_paths,
                          events._reject_paths):
                for terms in events._stage_rects(design, paths):
                    for _, rect in terms:
                        pairs = {(c.arm_a, c.arm_b, c.stage)
                                 for c, _, _ in rect}
                        assert not any(
                            (b, a, i) in pairs
                            for a, b, j in pairs if b
                            for i in range(1, k + 1) if i != j)
                        n_rects += 1
    assert n_rects == 5638


# ---------------------------------------------------------------------------
# rejection events under the global null


class TestRejectEvents:
    def test_stage1_two_part_structure(self):
        sets = global_null_typeI_problems(DESIGN)
        # arm 1 among the crossing survivors (two mirrored orders) plus the
        # arm-1-dropped-yet-crossing path where all three arms clear u1
        assert [(w, p.dim) for w, p in sets[0].problems] == [(2, 4), (1, 5)]

    def test_stage1_dropped_arm_matrix(self):
        # printed all-three-cross matrix, coordinate order
        # (Z_{1,1}, Z_{1,1}-Z_{2,1}, Z_{1,1}-Z_{3,1}, Z_{2,1}, Z_{3,1})
        ref = np.array([
            [1.0, 0.5, 0.5, 0.5, 0.5],
            [0.5, 1.0, 0.5, -0.5, 0.0],
            [0.5, 0.5, 1.0, 0.0, -0.5],
            [0.5, -0.5, 0.0, 1.0, 0.5],
            [0.5, 0.0, -0.5, 0.5, 1.0],
        ])
        _, p5 = global_null_typeI_problems(DESIGN)[0].problems[1]
        # enumerator emits rival-minus-arm-1 differences, flipping two signs
        perm = [1, 2, 0, 3, 4]
        signs = np.diag([-1.0, -1.0, 1.0, 1.0, 1.0])
        want = signs @ ref[np.ix_(perm, perm)] @ signs
        np.testing.assert_allclose(p5.corr, want, rtol=0, atol=1e-12)

    def test_reference_design_type_i(self):
        est = total_probability(global_null_typeI_problems(DESIGN),
                                target_abs_error=1e-6)
        assert est.value == pytest.approx(0.019, abs=1e-3)

    def test_dtl_type_i(self):
        est = total_probability(global_null_typeI_problems(DTL),
                                target_abs_error=1e-6)
        assert est.value == pytest.approx(0.018, abs=1e-3)

    def test_type_i_bounded_by_pwer(self):
        ti = total_probability(global_null_typeI_problems(DESIGN),
                               target_abs_error=1e-7)
        pw = 1.0 - prob(pwer_problem(DESIGN), target=1e-7).value
        assert ti.value <= pw + 2e-6

    def test_unreachable_boundaries_reject_nothing(self):
        # nothing can be rejected when no boundary is attainable; the final
        # boundary must stay finite, so push it past any float density mass
        d = TrialDesign(3, 3, 100, (math.inf, math.inf, 40.0), 0.025, 1.0)
        est = total_probability(global_null_typeI_problems(d),
                                target_abs_error=1e-6)
        assert est.value <= 1e-12

    def test_general_effects_reject_less_than_alpha(self):
        # the calibrated bound must hold for a null arm whatever the other
        # arms do, not just under the global null; spot-check one interior
        # configuration with arm 1 slightly harmful
        effects = EffectConfig((-0.1, 0.4, -0.7))
        est = total_probability(reject_problems(DESIGN, effects),
                                target_abs_error=1e-6, seed=2)
        assert est.value <= 0.025 + 3 * est.error_bound


# ---------------------------------------------------------------------------
# aggregation helpers


class TestAggregation:
    def test_deterministic_given_seed(self):
        a = total_probability(global_null_typeI_problems(DESIGN),
                              target_abs_error=1e-6, seed=7)
        b = total_probability(global_null_typeI_problems(DESIGN),
                              target_abs_error=1e-6, seed=7)
        assert a == b

    def test_seed_changes_randomization(self):
        a = total_probability(global_null_typeI_problems(DESIGN),
                              target_abs_error=1e-6, seed=7)
        b = total_probability(global_null_typeI_problems(DESIGN),
                              target_abs_error=1e-6, seed=8)
        assert a.value != b.value
        assert a.value == pytest.approx(b.value, abs=1e-5)

    def test_problem_seeds_are_seed_stage_index(self):
        pset = stop_stage_problems(DESIGN, LFC)[1]
        assert len(pset.problems) > 1
        ests = [(w, prob(p, seed=(3, pset.stage, idx), target=1e-5))
                for idx, (w, p) in enumerate(pset.problems)]
        est = set_probability(pset, target_abs_error=1e-5, seed=3)
        assert est.value == sum(w * e.value for w, e in ests)
        assert est.error_bound == math.sqrt(
            sum((w * e.error_bound) ** 2 for w, e in ests))

    def test_bounds_add_in_quadrature(self):
        est = _weighted_sum([(1, ProbabilityEstimate(0.5, 3e-6, 10)),
                             (-2, ProbabilityEstimate(0.1, 2e-6, 20))])
        assert est.value == pytest.approx(0.3, abs=1e-15)
        assert est.error_bound == pytest.approx(5e-6, rel=1e-12)
        assert est.evaluations == 30 and est.converged

    def test_empty_set_is_zero(self):
        est = set_probability(EventProblemSet(2, ()), target_abs_error=1e-6)
        assert est.value == 0.0 and est.converged


# ---------------------------------------------------------------------------
# capacity and validation


class TestCapacity:
    def test_capacity_error_beyond_cap(self):
        big = TrialDesign(9, 9, 10, (math.inf,) * 8 + (2.0,), 0.025, 1.0)
        with pytest.raises(CapacityError):
            stop_stage_problems(big, EffectConfig.global_null(9))
        with pytest.raises(CapacityError):
            win_problems(big, EffectConfig.global_null(9))
        with pytest.raises(CapacityError):
            global_null_typeI_problems(big)

    def test_effects_length_checked(self):
        with pytest.raises(ValueError):
            stop_stage_problems(DESIGN, EffectConfig((0.1, 0.2)))
