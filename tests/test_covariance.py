"""Covariance and mean structure of the drop-the-loser statistic vector.

The frozen matrices below were derived by hand from the joint law of
Z_{k,j} (shared control, equal allocation, cumulative statistics) for the
three-arm three-stage design.  Each test rebuilds the matrix through
build_moment_problem with the same coordinate ordering and checks every
entry at 1e-12, so any regression in the pair rule shows up as a wrong
entry, not just a wrong probability downstream.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtldesign.covariance import (
    EffectConfig,
    StatCoord,
    TrialDesign,
    build_moment_problem,
    corr_between,
    mean_of,
    single,
)
from oracles import arm_rule_corr

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)
S6 = math.sqrt(6.0)

DESIGN = TrialDesign(arms=3, stages=3, n_per_stage=206,
                     boundaries=(3.471, 2.454, 2.004),
                     alpha=0.025, sigma=math.sqrt(9.47))
NULL = EffectConfig.global_null(3)


def corr_matrix(design, coords):
    d = len(coords)
    prob = build_moment_problem(design, EffectConfig.global_null(design.arms),
                                coords,
                                [-np.inf] * d, [np.inf] * d)
    return prob.corr


# ---------------------------------------------------------------------------
# design / effects / coordinate validation


class TestTrialDesign:
    def test_valid_roundtrip(self):
        d = DESIGN
        assert d.boundaries == (3.471, 2.454, 2.004)
        assert replace(d, n_per_stage=99).n_per_stage == 99
        assert replace(d, boundaries=[4.0, 3.0, 2.0]).boundaries == (
            4.0, 3.0, 2.0)

    def test_single_arm_design_allowed(self):
        d = TrialDesign(1, 1, 564, (1.96,), 0.025, 2.0)
        assert d.arms == 1

    @pytest.mark.parametrize("kwargs", [
        dict(arms=0, stages=0, n_per_stage=10, boundaries=(), alpha=0.025, sigma=1.0),
        dict(arms=3, stages=2, n_per_stage=10, boundaries=(2.0, 2.0), alpha=0.025, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(2.0,), alpha=0.025, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=0, boundaries=(2.0, 2.0), alpha=0.025, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10.5, boundaries=(2.0, 2.0), alpha=0.025, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(2.0, math.inf), alpha=0.025, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(-math.inf, 2.0), alpha=0.025, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(math.nan, 2.0), alpha=0.025, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(2.0, 2.0), alpha=0.0, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(2.0, 2.0), alpha=1.0, sigma=1.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(2.0, 2.0), alpha=0.025, sigma=0.0),
        dict(arms=2, stages=2, n_per_stage=10, boundaries=(2.0, 2.0), alpha=0.025, sigma=math.inf),
        dict(arms=2, stages=2, n_per_stage=True, boundaries=(2.0, 2.0), alpha=0.025, sigma=1.0),
        dict(arms=2.0, stages=2.0, n_per_stage=10, boundaries=(2.0, 2.0), alpha=0.025, sigma=1.0),
    ])
    def test_rejects_bad_designs(self, kwargs):
        with pytest.raises(ValueError):
            TrialDesign(**kwargs)

    def test_infinite_interim_boundary_allowed(self):
        d = TrialDesign(3, 3, 10, (math.inf, math.inf, 1.96), 0.025, 1.0)
        assert d.boundaries[0] == math.inf

    def test_numpy_n_accepted(self):
        d = replace(DESIGN, n_per_stage=np.int64(17))
        assert d.n_per_stage == 17


class TestEffectConfig:
    def test_global_null(self):
        assert EffectConfig.global_null(3).deltas == (0.0, 0.0, 0.0)

    def test_least_favorable(self):
        cfg = EffectConfig.least_favorable(3, 0.5, 0.1)
        assert cfg.deltas == (0.5, 0.1, 0.1)

    def test_all_relevant(self):
        assert EffectConfig.all_relevant(2, 0.3).deltas == (0.3, 0.3)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            EffectConfig(())
        with pytest.raises(ValueError):
            EffectConfig((0.1, math.nan))


class TestStatCoord:
    def test_rejects_equal_arms_in_difference(self):
        with pytest.raises(ValueError):
            StatCoord(2, 2, 1)

    def test_validate_ranges(self):
        with pytest.raises(ValueError):
            single(4, 1).validate(DESIGN)
        with pytest.raises(ValueError):
            single(1, 4).validate(DESIGN)
        with pytest.raises(ValueError):
            StatCoord(1, 4, 2).validate(DESIGN)
        with pytest.raises(ValueError):
            StatCoord(0, 1, 2).validate(DESIGN)
        single(3, 3).validate(DESIGN)  # must not raise
        assert single(3, 3) == StatCoord(3, 0, 3)


# ---------------------------------------------------------------------------
# pairwise covariance rules, hand-worked values


class TestPairRules:
    def test_same_arm_across_stages(self):
        # var-normalised cumulative statistics: sqrt(jmin/jmax)
        assert corr_between(single(1, 1), single(1, 2)) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert corr_between(single(2, 1), single(2, 3)) == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
        assert corr_between(single(1, 2), single(1, 3)) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_different_arms_shared_control(self):
        assert corr_between(single(1, 1), single(2, 1)) == pytest.approx(0.5, abs=1e-15)
        assert corr_between(single(1, 1), single(2, 2)) == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-15)

    def test_single_vs_difference(self):
        # Z_{1,1} with Z_{1,1}-Z_{2,1}: 1 - 1/2
        assert corr_between(single(1, 1), StatCoord(1, 2, 1)) == pytest.approx(0.5, abs=1e-15)
        # Z_{2,1} with Z_{1,1}-Z_{2,1}: 1/2 - 1
        assert corr_between(single(2, 1), StatCoord(1, 2, 1)) == pytest.approx(-0.5, abs=1e-15)
        # no shared arm: Z_{3,1} with Z_{1,2}-Z_{2,2}: r/2 - r/2
        assert corr_between(single(3, 1), StatCoord(1, 2, 2)) == pytest.approx(0.0, abs=1e-15)
        # shared arm across stages: Z_{1,1} with Z_{1,2}-Z_{2,2}
        r = math.sqrt(0.5)
        assert corr_between(single(1, 1), StatCoord(1, 2, 2)) == pytest.approx(r - 0.5 * r, abs=1e-15)

    def test_difference_vs_difference_all_cases(self):
        r = math.sqrt(0.5)
        # matched pair across stages
        assert corr_between(StatCoord(1, 2, 1), StatCoord(1, 2, 2)) == pytest.approx(r, abs=1e-15)
        # swapped pair
        assert corr_between(StatCoord(1, 2, 1), StatCoord(2, 1, 2)) == pytest.approx(-r, abs=1e-15)
        # share first arms only
        assert corr_between(StatCoord(1, 2, 1), StatCoord(1, 3, 2)) == pytest.approx(0.5 * r, abs=1e-15)
        # first of one is second of the other
        assert corr_between(StatCoord(1, 2, 2), StatCoord(2, 3, 1)) == pytest.approx(-0.5 * r, abs=1e-15)
        # identical coordinates have unit correlation
        assert corr_between(StatCoord(1, 2, 1), StatCoord(1, 2, 1)) == pytest.approx(1.0, abs=1e-15)
        # same stage, one shared arm
        assert corr_between(StatCoord(1, 3, 1), StatCoord(2, 3, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_disjoint_difference_pairs(self):
        # needs four arms: Z_{1,1}-Z_{2,1} with Z_{3,2}-Z_{4,2}
        assert corr_between(StatCoord(1, 2, 1), StatCoord(3, 4, 2)) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        a, b = single(2, 1), StatCoord(1, 2, 3)
        assert corr_between(a, b) == corr_between(b, a)


def test_group_rule_matches_arm_rule_on_every_k5_pair():
    # every coordinate of a five-arm design: 5 arms' own statistics and 20
    # ordered arm contrasts at each of 5 stages
    coords = [StatCoord(a, b, j) for j in range(1, 6)
              for a in range(1, 6) for b in range(6) if a != b]
    assert len(coords) == 125
    differ = 0
    for x in coords:
        for y in coords:
            got, want = corr_between(x, y), arm_rule_corr(x, y)
            if x.arm_b and (y.arm_a, y.arm_b) == (x.arm_b, x.arm_a) \
                    and x.stage != y.stage:
                # swapped pair: the arm rule rounds a -1.5 r partial sum
                r = math.sqrt(min(x.stage, y.stage) / max(x.stage, y.stage))
                assert got == -r
                assert abs(got - want) <= math.ulp(r)
                differ += got != want
            else:
                assert got == want, (x, y)
    assert differ == 280


class TestMeans:
    def test_single_stage1(self):
        # delta * sqrt(n) / (sigma sqrt 2)
        cfg = EffectConfig((0.594, 0.098, 0.098))
        want = 0.594 * math.sqrt(206) / (math.sqrt(9.47) * S2)
        assert mean_of(DESIGN, cfg, single(1, 1)) == pytest.approx(want, rel=1e-15)

    def test_single_stage2_doubles_information(self):
        cfg = EffectConfig((0.594, 0.098, 0.098))
        m1 = mean_of(DESIGN, cfg, single(1, 1))
        m2 = mean_of(DESIGN, cfg, single(1, 2))
        assert m2 == pytest.approx(m1 * S2, rel=1e-14)

    def test_difference_mean(self):
        cfg = EffectConfig((0.594, 0.098, 0.098))
        want = (0.594 - 0.098) * math.sqrt(2 * 206) / (math.sqrt(9.47) * S2)
        assert mean_of(DESIGN, cfg, StatCoord(1, 2, 2)) == pytest.approx(want, rel=1e-15)

    def test_null_means_vanish(self):
        for c in [single(1, 1), single(3, 2), StatCoord(2, 3, 3)]:
            assert mean_of(DESIGN, NULL, c) == 0.0

    def test_effects_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_of(DESIGN, EffectConfig((0.1, 0.2)), single(1, 1))


# ---------------------------------------------------------------------------
# frozen correlation matrices for the three-arm design


class TestGoldenMatrices:
    def test_one_arm_path(self):
        # marginal path of a single arm across the three stages
        coords = [single(1, 1), single(1, 2), single(1, 3)]
        want = np.array([
            [1.0, math.sqrt(1 / 2), math.sqrt(1 / 3)],
            [math.sqrt(1 / 2), 1.0, math.sqrt(2 / 3)],
            [math.sqrt(1 / 3), math.sqrt(2 / 3), 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_win_stage1(self):
        # arm 1 best and both survivors cross at the first interim
        coords = [single(1, 1), StatCoord(1, 2, 1), StatCoord(1, 3, 1),
                  single(2, 1), StatCoord(2, 3, 1)]
        want = np.array([
            [1.0, 0.5, 0.5, 0.5, 0.0],
            [0.5, 1.0, 0.5, -0.5, -0.5],
            [0.5, 0.5, 1.0, 0.0, 0.5],
            [0.5, -0.5, 0.0, 1.0, 0.5],
            [0.0, -0.5, 0.5, 0.5, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_win_stage2(self):
        coords = [single(1, 2), StatCoord(1, 2, 2), StatCoord(1, 3, 1),
                  StatCoord(2, 3, 1), single(1, 1), single(2, 1)]
        q = 1 / (2 * S2)
        want = np.array([
            [1.0, 0.5, q, 0.0, 1 / S2, q],
            [0.5, 1.0, q, -q, q, -q],
            [q, q, 1.0, 0.5, 0.5, 0.0],
            [0.0, -q, 0.5, 1.0, 0.0, 0.5],
            [1 / S2, q, 0.5, 0.0, 1.0, 0.5],
            [q, -q, 0.0, 0.5, 0.5, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_win_stage3(self):
        coords = [single(1, 3), StatCoord(1, 3, 1), StatCoord(2, 3, 1),
                  StatCoord(1, 2, 2), single(1, 1), single(2, 1), single(1, 2)]
        q2 = 1 / (2 * S2)
        q3 = 1 / (2 * S3)
        want = np.array([
            [1.0, q3, 0.0, 1 / S6, 1 / S3, q3, S2 / S3],
            [q3, 1.0, 0.5, q2, 0.5, 0.0, q2],
            [0.0, 0.5, 1.0, -q2, 0.0, 0.5, 0.0],
            [1 / S6, q2, -q2, 1.0, q2, -q2, 0.5],
            [1 / S3, 0.5, 0.0, q2, 1.0, 0.5, 1 / S2],
            [q3, 0.0, 0.5, -q2, 0.5, 1.0, q2],
            [S2 / S3, q2, 0.0, 0.5, 1 / S2, q2, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_stop_stage1(self):
        # both survivors cross, third arm dropped
        coords = [single(1, 1), StatCoord(1, 3, 1), single(2, 1), StatCoord(2, 3, 1)]
        want = np.array([
            [1.0, 0.5, 0.5, 0.0],
            [0.5, 1.0, 0.0, 0.5],
            [0.5, 0.0, 1.0, 0.5],
            [0.0, 0.5, 0.5, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_stop_stage2_matches_win_stage2_structure(self):
        coords = [single(1, 2), StatCoord(1, 2, 2), StatCoord(1, 3, 1),
                  StatCoord(2, 3, 1), single(1, 1), single(2, 1)]
        got = corr_matrix(DESIGN, coords)
        # same coordinate list as the stage-2 win event, so same matrix
        q = 1 / (2 * S2)
        assert got[0, 4] == pytest.approx(1 / S2, abs=1e-12)
        assert got[1, 3] == pytest.approx(-q, abs=1e-12)

    def test_stop_stage3(self):
        coords = [StatCoord(1, 3, 1), StatCoord(2, 3, 1), StatCoord(1, 2, 2),
                  single(1, 1), single(2, 1), single(1, 2)]
        q = 1 / (2 * S2)
        want = np.array([
            [1.0, 0.5, q, 0.5, 0.0, q],
            [0.5, 1.0, -q, 0.0, 0.5, 0.0],
            [q, -q, 1.0, q, -q, 0.5],
            [0.5, 0.0, q, 1.0, 0.5, 1 / S2],
            [0.0, 0.5, -q, 0.5, 1.0, q],
            [q, 0.0, 0.5, 1 / S2, q, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_reject_stage1_survivor(self):
        coords = [single(1, 1), StatCoord(1, 3, 1), single(2, 1), StatCoord(2, 3, 1)]
        want = np.array([
            [1.0, 0.5, 0.5, 0.0],
            [0.5, 1.0, 0.0, 0.5],
            [0.5, 0.0, 1.0, 0.5],
            [0.0, 0.5, 0.5, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_reject_stage1_dropped_arm(self):
        # arm 1 loses the drop but still clears the boundary while both
        # survivors clear it too
        coords = [single(1, 1), StatCoord(1, 2, 1), StatCoord(1, 3, 1),
                  single(2, 1), single(3, 1)]
        want = np.array([
            [1.0, 0.5, 0.5, 0.5, 0.5],
            [0.5, 1.0, 0.5, -0.5, 0.0],
            [0.5, 0.5, 1.0, 0.0, -0.5],
            [0.5, -0.5, 0.0, 1.0, 0.5],
            [0.5, 0.0, -0.5, 0.5, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_reject_stage2(self):
        # the stage-2 drop constraint integrates out when two arms remain,
        # leaving five coordinates
        coords = [single(1, 2), StatCoord(1, 3, 1), StatCoord(2, 3, 1),
                  single(1, 1), single(2, 1)]
        q = 1 / (2 * S2)
        want = np.array([
            [1.0, q, 0.0, 1 / S2, q],
            [q, 1.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 1.0, 0.0, 0.5],
            [1 / S2, 0.5, 0.0, 1.0, 0.5],
            [q, 0.0, 0.5, 0.5, 1.0],
        ])
        np.testing.assert_allclose(corr_matrix(DESIGN, coords), want, rtol=0, atol=1e-12)

    def test_reject_stage3_matches_win_stage3(self):
        coords = [single(1, 3), StatCoord(1, 3, 1), StatCoord(2, 3, 1),
                  StatCoord(1, 2, 2), single(1, 1), single(2, 1), single(1, 2)]
        got = corr_matrix(DESIGN, coords)
        assert got[0, 6] == pytest.approx(S2 / S3, abs=1e-12)
        assert got[3, 2] == pytest.approx(-1 / (2 * S2), abs=1e-12)
        assert np.allclose(got, got.T, atol=0)

    def test_lfc_means_on_win_stage2_coords(self):
        theta_p, theta_0 = 0.594, 0.098
        cfg = EffectConfig.least_favorable(3, theta_p, theta_0)
        coords = [single(1, 2), StatCoord(1, 2, 2), StatCoord(1, 3, 1),
                  StatCoord(2, 3, 1), single(1, 1), single(2, 1)]
        prob = build_moment_problem(DESIGN, cfg, coords,
                                    [-np.inf] * 6, [np.inf] * 6)
        s = math.sqrt(206) / (math.sqrt(9.47) * S2)
        want = np.array([theta_p * S2, (theta_p - theta_0) * S2,
                         theta_p - theta_0, 0.0, theta_p, theta_0]) * s
        np.testing.assert_allclose(prob.mean, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# build_moment_problem plumbing


class TestBuildMomentProblem:
    def test_bounds_pass_through(self):
        coords = [single(1, 1), single(2, 1)]
        prob = build_moment_problem(DESIGN, NULL, coords,
                                    [1.0, -np.inf], [np.inf, 2.5])
        assert prob.lower[0] == 1.0 and prob.upper[1] == 2.5

    def test_rejects_empty_coords(self):
        with pytest.raises(ValueError):
            build_moment_problem(DESIGN, NULL, [], [], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            build_moment_problem(DESIGN, NULL, [single(1, 1)], [0.0], [1.0, 2.0])

    def test_rejects_invalid_coordinate(self):
        with pytest.raises(ValueError):
            build_moment_problem(DESIGN, NULL, [single(9, 1)], [0.0], [np.inf])

    def test_unit_diagonal_exact(self):
        coords = [single(1, 1), StatCoord(1, 2, 2), single(3, 3)]
        prob = build_moment_problem(DESIGN, NULL, coords,
                                    [-np.inf] * 3, [np.inf] * 3)
        assert np.all(np.diag(prob.corr) == 1.0)


# ---------------------------------------------------------------------------
# structural properties over random coordinate sets


def coord_strategy(max_arms):
    singles = st.builds(single,
                        st.integers(1, max_arms), st.integers(1, max_arms))
    pairs = st.tuples(st.integers(1, max_arms), st.integers(1, max_arms)).filter(
        lambda t: t[0] != t[1])
    diffs = st.builds(lambda t, j: StatCoord(t[0], t[1], j),
                      pairs, st.integers(1, max_arms))
    return st.one_of(singles, diffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda k: st.tuples(st.just(k),
                        st.lists(coord_strategy(k), min_size=1, max_size=8,
                                 unique=True))))
def test_random_coordinate_sets_give_valid_correlation(args):
    k, coords = args
    design = TrialDesign(k, k, 10, (math.inf,) * (k - 1) + (2.0,), 0.025, 1.5)
    d = len(coords)
    prob = build_moment_problem(design, EffectConfig.global_null(k), coords,
                                [-np.inf] * d, [np.inf] * d)
    corr = prob.corr
    assert np.allclose(corr, corr.T, atol=0)
    assert np.all(np.diag(corr) == 1.0)
    assert np.all(np.abs(corr) <= 1.0 + 1e-12)
    assert np.linalg.eigvalsh(corr)[0] >= -1e-10
