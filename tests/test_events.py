"""Event enumeration: structure of the problem sets and their probabilities.

Structural assertions pin the counts, dimensions and symmetry collapses of
the enumerated rectangles for the three-arm reference design; probability
assertions check the headline operating characteristics of that design and
the partition identity sum_j P(stop at j) = 1, against the final stage's
stop event enumerated directly.
"""

import collections
import contextlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from dtldesign import characteristics, events, mvn
from dtldesign.covariance import EffectConfig, TrialDesign, mean_of, single
from dtldesign.events import (
    CapacityError,
    EventProblemSet,
    global_null_typeI_problems,
    power_lfc_problems,
    pwer_problem,
    reject_problems,
    set_probability,
    stop_stage_problems,
    total_probability,
    win_problems,
)
from dtldesign.mvn import (ProbabilityEstimate, _weighted_sum,
                           mvn_rectangle_prob)

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


@pytest.mark.parametrize("fixed", [(), (1,)])
@pytest.mark.parametrize("deltas", [
    (0.0,) * k for k in range(1, 7)] + [
    (0.5,) + (0.1,) * (k - 1) for k in range(2, 7)] + [
    (0.2, 0.2, 0.1, 0.1, 0.0, 0.0)[:k] for k in range(3, 7)] + [
    (0.1, 0.3, 0.1, 0.3, 0.1, 0.3)[:k] for k in range(3, 7)])
def test_symmetry_maps_are_the_effect_preserving_relabelings(deltas, fixed):
    maps = events._symmetry_maps(deltas, fixed)
    arms = range(1, len(deltas) + 1)
    classes = collections.Counter(deltas[a - 1] for a in arms
                                  if a not in fixed)
    assert len(set(maps)) == len(maps)
    assert len(maps) == math.prod(map(math.factorial, classes.values()))
    for pi in maps:
        assert sorted(pi) == [0, *arms]
        assert pi[0] == 0 and all(pi[a] == a for a in fixed)
        assert all(deltas[pi[a] - 1] == deltas[a - 1] for a in arms)


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
        b = prob(pwer_problem(replace(DESIGN, n_per_stage=17)), seed=5)
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

    @pytest.mark.parametrize("n", [1, 17, 206, 5000])
    def test_family_means_are_mean_of_bit_for_bit(self, n):
        # sets_at(n) forms the means from precomputed effect differences;
        # problems built afresh at n take them from mean_of
        at_n = replace(DESIGN, n_per_stage=n)
        gamma = events._symmetry_maps(LFC.deltas, (1,))
        built = [events._collapse(at_n, LFC, rects, gamma) for rects
                 in events._stage_rects(at_n, events._win_paths, 3)]
        sets = events._lfc_family(DESIGN, THETA_P, THETA_0)(n)
        assert len(sets) == len(built) == 3
        for pset, terms in zip(sets, built):
            assert len(pset.problems) == len(terms)
            for (w, problem), (w_built, coords, _) in zip(pset.problems,
                                                          terms):
                assert w == w_built
                means = np.array([mean_of(at_n, LFC, c) for c in coords])
                np.testing.assert_array_equal(problem.mean.view(np.int64),
                                              means.view(np.int64))

    def test_dtl_mode_blocks_early_wins(self):
        sets = win_problems(DTL, LFC)
        assert sets[0].problems == ()
        assert sets[1].problems == ()
        assert [(w, p.dim) for w, p in sets[2].problems] == [(2, 4)]

    def test_win_within_stop_per_stage(self):
        win = win_problems(DESIGN, LFC)
        stop = characteristics._stop_estimates(DESIGN, LFC,
                                               target_abs_error=1e-5)
        assert len(stop) == len(win) == 3
        for w, ps in zip(win, stop):
            pw = set_probability(w, target_abs_error=1e-5)
            assert pw.value <= ps.value + pw.error_bound + ps.error_bound


# ---------------------------------------------------------------------------
# stopping-stage events


class TestStopEvents:
    def test_counts_without_symmetry(self):
        effects = EffectConfig((0.11, 0.23, 0.37))
        sets = stop_stage_problems(DESIGN, effects)
        # interim stages only: the final stage is their complement
        assert [s.stage for s in sets] == [1, 2]
        assert [w for w, _ in sets[0].problems] == [1, 1, 1]
        assert {p.dim for _, p in sets[0].problems} == {4}
        # after an interim, each signed pair cancels in the weight sum
        assert sorted(w for w, _ in sets[1].problems) == [-1] * 6 + [1] * 6
        assert {p.dim for _, p in sets[1].problems} == {4, 6}

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
        assert [s.problems for s in sets] == [(), ()]
        assert characteristics.stop_stage_probabilities(DTL, LFC) == \
            (0.0, 0.0, 1.0)

    def test_single_arm_trial_always_stops_at_one(self):
        d1 = TrialDesign(1, 1, 50, (1.96,), 0.025, 1.0)
        null = EffectConfig.global_null(1)
        assert stop_stage_problems(d1, null) == []
        assert characteristics.stop_stage_probabilities(d1, null) == (1.0,)


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


def _final_stop_set(design, effects):
    # the oracle: the final stage's stop event enumerated directly, as every
    # (J - 1)-long drop order ending at J; its all-"+1" terms integrate the
    # identity sum over drop orders of P(order) = 1
    j = design.stages
    rects = [term for order in itertools.permutations(
                 range(1, design.arms + 1), j - 1)
             for term in events._path_rects(design, order, j, ())]
    gamma = events._symmetry_maps(effects.deltas, ())
    return EventProblemSet(j, [(w, problem) for w, _, problem
                               in events._collapse(design, effects, rects,
                                                   gamma)])


@pytest.mark.parametrize("k,seed", [(2, 11), (2, 12), (2, 13), (2, 14),
                                    (2, 15), (2, 16), (3, 21), (3, 22),
                                    (3, 23), (3, 24), (4, 0)])
def test_stop_stages_partition_unity(k, seed):
    # a drop order missing from (or doubled in) the interim sets moves the
    # complement but not the directly enumerated final stage; K=4 runs
    # the least favourable configuration
    if k == 4:
        design, effects = _obf_design(k), _COLLAPSE_EFFECTS["lfc"](k)
    else:
        design, effects = _random_case(k, seed)
    final = characteristics._stop_estimates(
        design, effects, target_abs_error=2e-6, seed=seed)[-1]
    direct = set_probability(_final_stop_set(design, effects),
                             target_abs_error=2e-6, seed=seed)
    assert abs(final.value - direct.value) <= math.hypot(
        final.error_bound, direct.error_bound)


def test_final_stop_stage_clamped_to_zero():
    # the interim stops here sum to one within 1e-10, so one minus them
    # reads about -5e-11 before the clamp
    design, effects = _random_case(3, 21)
    stops = characteristics._stop_estimates(
        design, effects, target_abs_error=2e-6, seed=21)
    assert 1.0 - stops[0].value - stops[1].value < 0.0
    assert stops[-1].value == 0.0
    assert stops[-1].error_bound == pytest.approx(
        math.hypot(stops[0].error_bound, stops[1].error_bound), rel=1e-12)


@pytest.mark.parametrize("effects", sorted(_COLLAPSE_EFFECTS))
@pytest.mark.parametrize("k", [3, 4])
def test_stop_weights_count_raw_rectangles(k, effects):
    design = _obf_design(k)
    _check_weights_count_raw_rectangles(
        stop_stage_problems(design, _COLLAPSE_EFFECTS[effects](k)),
        list(events._stage_rects(design, events._stop_paths, k - 1)))


@pytest.mark.parametrize("effects", sorted(_COLLAPSE_EFFECTS))
@pytest.mark.parametrize("k", [3, 4])
def test_win_weights_count_raw_rectangles(k, effects):
    design = _obf_design(k)
    _check_weights_count_raw_rectangles(
        win_problems(design, _COLLAPSE_EFFECTS[effects](k)),
        list(events._stage_rects(design, events._win_paths, k)))


def test_k5_lfc_problem_counts():
    # one signed pair per interim keeps five arms cheap to enumerate
    design = _obf_design(5)
    win = power_lfc_problems(design, THETA_P, THETA_0)
    stop = stop_stage_problems(design, _COLLAPSE_EFFECTS["lfc"](5))
    assert [len(s.problems) for s in win] == [1, 2, 4, 8, 16]
    assert [len(s.problems) for s in stop] == [2, 6, 16, 40]


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cube_dimension_reaches_its_triangular_bound(k, monkeypatch):
    # stage i constrains the k - i + 1 arms still in play, so a rectangle
    # spans at most k(k+1)/2 coordinates and k(k+1)/2 - 1 cube dimensions;
    # _sobol carries direction rows for that bound at PERMUTATION_CAP arms
    dims = []

    def draw(dim, seed):
        dims.append(dim)
        raise _Drawn  # the dimension is known; skip the integration
    monkeypatch.setattr(mvn, "_draw", draw)
    design = _obf_design(k)
    problems = [pwer_problem(design)]
    for effects in (EffectConfig.global_null(k),
                    EffectConfig.least_favorable(k, THETA_P, THETA_0),
                    EffectConfig.all_relevant(k, THETA_P)):
        for family in (win_problems, reject_problems, stop_stage_problems):
            problems += [problem for pset in family(design, effects)
                         for _, problem in pset.problems]
    for problem in problems:
        with contextlib.suppress(_Drawn):
            mvn._Integral(problem, 0)
    assert max(dims) == k * (k + 1) // 2 - 1


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
def test_raw_rectangles_are_nonempty_and_single_valued(k, kind):
    # each path constrains a coordinate at most once, so a rectangle is its
    # constraint list, pruned when an infinite boundary empties it
    design = replace(_obf_design(k), boundaries=_boundaries(k, kind))
    families = [events._stage_rects(design, paths, stages)
                for paths, stages in ((events._stop_paths, k - 1),
                                      (events._win_paths, k))]
    n_rects = 0
    for stages in families:
        for terms in stages:
            for sign, rect in terms:
                assert sign in (1, -1)
                coords = [c for c, _, _ in rect]
                assert len(set(coords)) == len(coords)
                assert all(lo < hi for _, lo, hi in rect)
                n_rects += 1
    assert n_rects > 0


def _raw_rect_count(k):
    # raw rectangles of the three families at k arms, finite and dtl
    # boundaries together: per family and stage j, drop orders times the
    # 2^(j-1) combinations of "did not stop" options.  With infinite
    # interims (dtl) every rectangle that crosses one is empty, which
    # leaves the final stage's all-"+1" combinations.  Stop events end at
    # an interim (K!/(K-j)! orders);
    # win events there drop j rivals; reject events drop j rivals, or
    # j - 1 and then arm 1; win and reject at J drop all K - 1 rivals.
    interim = sum(2 ** (j - 1) * (math.perm(k, j) + 2 * math.perm(k - 1, j)
                                  + math.perm(k - 1, j - 1))
                  for j in range(1, k))
    final = 2 * math.factorial(k - 1)
    return interim + final * 2 ** (k - 1) + final


def test_no_raw_rectangle_holds_a_swapped_pair():
    # Z_a - Z_b at one stage against Z_b - Z_a at another is the one pair
    # whose correlation the arm-level rule rounds (tests/oracles.py); no
    # enumerated rectangle constrains both, so that rounding never reached
    # a reported number
    n_rects = 0
    for k in range(2, 6):
        for kind in ("finite", "dtl"):
            design = replace(_obf_design(k), boundaries=_boundaries(k, kind))
            for paths, stages in ((events._stop_paths, k - 1),
                                  (events._win_paths, k),
                                  (events._reject_paths, k)):
                for terms in events._stage_rects(design, paths, stages):
                    for _, rect in terms:
                        pairs = {(c.arm_a, c.arm_b, c.stage)
                                 for c, _, _ in rect}
                        assert not any(
                            (b, a, i) in pairs
                            for a, b, j in pairs if b
                            for i in range(1, k + 1) if i != j)
                        n_rects += 1
    assert n_rects == sum(_raw_rect_count(k) for k in range(2, 6))


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
        seeded = list(events._seeded(pset, 3))
        assert [(w, p) for w, p, _ in seeded] == list(pset.problems)
        assert [s for *_, s in seeded] == [
            (3, pset.stage, idx) for idx in range(len(pset.problems))]

    @staticmethod
    def _recorded_integrals(monkeypatch):
        """The _Integral set_probability makes, each with its round count,
        the first round (run as the integral is made) included."""
        made = []

        class Recorded(mvn._Integral):
            def __init__(self, problem, seed, draws=None):
                self.rounds = 0
                made.append((problem, seed, self))
                super().__init__(problem, seed, draws)

            def step(self):
                assert self.rounds == 0 or self.refinable, (
                    "stepped past the evaluation cap")
                self.rounds += 1
                return super().step()

        monkeypatch.setattr(mvn, "_Integral", Recorded)
        return made

    def test_each_problem_is_a_fresh_integral_at_its_rounds(self,
                                                            monkeypatch):
        integral_type = mvn._Integral
        made = self._recorded_integrals(monkeypatch)
        pset = stop_stage_problems(DESIGN, LFC)[1]
        est = set_probability(pset, target_abs_error=1e-5, seed=3)
        assert est.converged and est.error_bound <= 1e-5
        terms = []
        for (w, p, seed), (problem, made_seed, integral) in zip(
                events._seeded(pset, 3), made, strict=True):
            assert problem is p and made_seed == seed and integral.rounds
            fresh = integral_type(p, seed)
            for _ in range(integral.rounds - 1):
                fresh.step()
            assert fresh.estimate == integral.estimate
            terms.append((w, fresh.estimate))
        assert est == _weighted_sum(terms)
        # the budget goes where the weighted error is, not uniformly
        assert len({integral.rounds for *_, integral in made}) > 1

    def test_capped_problems_end_unconverged(self, monkeypatch):
        # each problem fits its first round and one doubling, no more
        monkeypatch.setattr(mvn, "_MAX_EVALUATIONS",
                            2 * mvn._RANDOMIZATIONS * 128)
        made = self._recorded_integrals(monkeypatch)
        pset = stop_stage_problems(DESIGN, LFC)[1]
        est = set_probability(pset, target_abs_error=1e-12)
        assert not est.converged and est.error_bound > 1e-12
        assert all(integral.rounds <= 2 and not integral.refinable
                   for *_, integral in made)
        assert est.evaluations <= len(pset.problems) * mvn._MAX_EVALUATIONS

    def test_exact_problems_are_never_stepped(self, monkeypatch):
        made = self._recorded_integrals(monkeypatch)
        inf = math.inf
        rank_one = mvn.OrthantProblem(np.zeros(3), np.ones((3, 3)),
                                      [-inf] * 3, [0.5, 1.0, 2.0])
        unconstrained = mvn.OrthantProblem(np.zeros(2), np.eye(2),
                                           [-inf] * 2, [inf] * 2)
        pset = EventProblemSet(1, ((3, rank_one), (-1, unconstrained),
                                   (2, pwer_problem(DESIGN))))
        est = set_probability(pset, target_abs_error=1e-6)
        assert est.converged and est.error_bound <= 1e-6
        rounds = [integral.rounds for *_, integral in made]
        assert rounds[:2] == [0, 0] and rounds[2] > 1
        assert [integral.estimate.error_bound for *_, integral in made[:2]
                ] == [0.0, 0.0]
        assert est.value == pytest.approx(
            3 * norm.cdf(0.5) - 1 + 2 * (1 - characteristics.pwer(DESIGN)),
            abs=3e-6)

    @pytest.mark.parametrize("target", [0.0, -1e-6, math.nan, math.inf])
    def test_bad_target_is_refused_before_any_work(self, monkeypatch,
                                                   target):
        def refuse(*args):
            raise AssertionError("integrated at a refused target")

        monkeypatch.setattr(mvn, "_Integral", refuse)
        with pytest.raises(ValueError, match="positive and finite"):
            set_probability(stop_stage_problems(DESIGN, LFC)[1],
                            target_abs_error=target)

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
