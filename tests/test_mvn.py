"""Tests for the MVN rectangle-probability integrator."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import multivariate_normal, qmc

from dtldesign import (
    NotPositiveSemiDefiniteError,
    OrthantProblem,
    ProbabilityEstimate,
    mvn,
    mvn_rectangle_prob,
)
from dtldesign import _sobol
from dtldesign.calibrate import design_trial
from dtldesign.characteristics import full_report
from dtldesign.cli import _load_designed, parse_config
from dtldesign.covariance import StatCoord, build_moment_problem, single
from dtldesign.events import (
    PERMUTATION_CAP,
    EventProblemSet,
    pwer_problem,
    set_probability,
)

import oracles

INF = float("inf")
K3_RECORD = (Path(__file__).resolve().parent.parent / "benchmark" / "inputs"
             / "design_k3.json")
CONFIG_K3 = Path(__file__).resolve().parent.parent / "configs" / "poptarts.cfg"


def test_dim1_lower_tail_exact():
    est = mvn_rectangle_prob(OrthantProblem([0.0], [[1.0]], [-INF], [0.0]),
                             1e-5)
    assert est.value == pytest.approx(0.5, abs=1e-15)
    assert est.error_bound == 0.0
    assert est.converged


def test_dim1_shifted_mean():
    est = mvn_rectangle_prob(OrthantProblem([1.0], [[1.0]], [-INF], [0.0]),
                             1e-5)
    assert est.value == pytest.approx(ndtr(-1.0), abs=1e-15)


def test_bivariate_orthant_closed_form():
    # P(X <= 0, Y <= 0) at rho = 0.5 is 1/4 + arcsin(0.5)/(2 pi) = 1/3
    prob = OrthantProblem([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]],
                          [-INF, -INF], [0.0, 0.0])
    est = mvn_rectangle_prob(prob, 1e-6, seed=3)
    assert est.value == pytest.approx(oracles.bivariate_lower_orthant(0.5), abs=1e-6)
    assert est.value == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_bivariate_rectangle_matches_quadrature():
    mean = [0.3, -0.2]
    corr = [[1.0, -0.4], [-0.4, 1.0]]
    lower = [-1.0, -INF]
    upper = [1.5, 0.8]
    expected = oracles.quad_rectangle_prob_2d(mean, corr, lower, upper)
    est = mvn_rectangle_prob(OrthantProblem(mean, corr, lower, upper), 1e-6, seed=4)
    assert est.value == pytest.approx(expected, abs=2e-6)


def test_three_stage_boundary_problem():
    # successive cumulative statistics of one arm across three equally sized
    # stages; published boundaries leave 0.975 inside the rectangle
    corr = np.array([
        [1.0, math.sqrt(1 / 2), math.sqrt(1 / 3)],
        [math.sqrt(1 / 2), 1.0, math.sqrt(2 / 3)],
        [math.sqrt(1 / 3), math.sqrt(2 / 3), 1.0],
    ])
    prob = OrthantProblem(np.zeros(3), corr, [-INF] * 3, [3.47, 2.45, 2.00])
    est = mvn_rectangle_prob(prob, 1e-6, seed=5)
    assert est.value == pytest.approx(0.975, abs=5e-4)


def test_error_bound_is_honest():
    prob = OrthantProblem([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]],
                          [-INF, -INF], [0.0, 0.0])
    for seed in range(8):
        est = mvn_rectangle_prob(prob, 1e-5, seed=seed)
        assert abs(est.value - 1.0 / 3.0) <= max(est.error_bound, 1e-5) * 1.5


def test_deterministic_given_seed():
    prob = OrthantProblem([0.1, -0.2, 0.0],
                          np.eye(3) * 0.5 + 0.5,
                          [-1.0, -INF, -2.0], [1.0, 1.0, INF])
    a = mvn_rectangle_prob(prob, 1e-6, seed=42)
    b = mvn_rectangle_prob(prob, 1e-6, seed=42)
    assert a == b
    c = mvn_rectangle_prob(prob, 1e-6, seed=43)
    assert c.value == pytest.approx(a.value, abs=3e-6)
    assert c != a  # different randomization, different estimate


@pytest.mark.parametrize("target", [0.0, -1e-5, math.nan, math.inf])
def test_rejects_target_outside_positive_finite(target):
    # NaN would never meet `error <= target` and run every problem to the cap
    prob = OrthantProblem([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]],
                          [-INF, -INF], [0.0, 0.0])
    with pytest.raises(ValueError, match="positive and finite"):
        mvn_rectangle_prob(prob, target)


@pytest.mark.parametrize("seed", [-1, (0, -2, 1), 1.0, "0", (0, 0.5),
                                  True, (0, False)])
def test_rejects_seed_that_is_not_a_non_negative_integer(seed):
    prob = OrthantProblem([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]],
                          [-INF, -INF], [0.0, 0.0])
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        mvn_rectangle_prob(prob, 1e-6, seed=seed)


@pytest.mark.parametrize("seed", range(8))
def test_k3_pwer_problem_converges_within_budget(seed):
    # the K=3 PWER problem at a fine target; shifting the points by
    # addition mod 1 in place of XOR runs past this budget without
    # converging
    design = _load_designed(str(K3_RECORD))[0]
    est = mvn_rectangle_prob(pwer_problem(design), 1e-7, seed=seed)
    assert est.converged and est.evaluations <= 1 << 22, est


def test_evaluation_cap_flags_nonconvergence(monkeypatch):
    monkeypatch.setattr(mvn, "_MAX_EVALUATIONS", 20_000)
    prob = OrthantProblem(np.zeros(5), np.eye(5) * 0.7 + 0.3,
                          np.full(5, -1.0), np.full(5, 1.0))
    est = mvn_rectangle_prob(prob, 1e-12, seed=0)
    assert not est.converged
    assert est.evaluations <= 20_000
    assert 0.0 <= est.value <= 1.0


@pytest.mark.parametrize("dim", range(1, 8))
def test_diagonal_corr_factorizes(dim):
    rng = np.random.default_rng(100 + dim)
    lower = rng.uniform(-2.0, 0.0, dim)
    upper = lower + rng.uniform(0.5, 3.0, dim)
    lower[rng.random(dim) < 0.25] = -INF
    upper[rng.random(dim) < 0.25] = INF
    mean = rng.uniform(-0.5, 0.5, dim)
    expected = float(np.prod(ndtr(np.where(np.isposinf(upper), INF, upper - mean))
                             - ndtr(np.where(np.isneginf(lower), -INF, lower - mean))))
    prob = OrthantProblem(mean, np.eye(dim), lower, upper)
    est = mvn_rectangle_prob(prob, 1e-6, seed=dim)
    assert est.value == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("dim", range(2, 8))
def test_permutation_invariance(dim):
    rng = np.random.default_rng(200 + dim)
    mean, corr, lower, upper = oracles.random_rectangle_problem(rng, dim)
    perm = rng.permutation(dim)
    base = mvn_rectangle_prob(OrthantProblem(mean, corr, lower, upper),
                              1e-6, seed=1)
    permuted = mvn_rectangle_prob(
        OrthantProblem(mean[perm], corr[np.ix_(perm, perm)],
                       lower[perm], upper[perm]),
        1e-6, seed=1)
    assert permuted.value == pytest.approx(base.value, abs=2e-6)


@pytest.mark.parametrize("dim", range(2, 8))
def test_widening_bounds_is_monotone(dim):
    rng = np.random.default_rng(300 + dim)
    mean, corr, lower, upper = oracles.random_rectangle_problem(rng, dim)
    base = mvn_rectangle_prob(OrthantProblem(mean, corr, lower, upper),
                              1e-6, seed=2)
    i = int(rng.integers(dim))
    wide_lower = lower.copy()
    wide_lower[i] = lower[i] - 1.0 if np.isfinite(lower[i]) else -INF
    wide = mvn_rectangle_prob(OrthantProblem(mean, corr, wide_lower, upper),
                              1e-6, seed=2)
    assert wide.value >= base.value - 2e-6


@pytest.mark.parametrize("dim", range(2, 8))
@pytest.mark.parametrize("trial", range(3))
def test_agrees_with_plain_monte_carlo(dim, trial):
    rng = np.random.default_rng(1000 * dim + trial)
    mean, corr, lower, upper = oracles.random_rectangle_problem(rng, dim)
    est = mvn_rectangle_prob(OrthantProblem(mean, corr, lower, upper),
                             1e-6, seed=7)
    mc, se = oracles.mc_rectangle_prob(mean, corr, lower, upper,
                                       reps=400_000, seed=900 + trial)
    combined = math.sqrt(se**2 + (est.error_bound / 3.0) ** 2)
    assert abs(est.value - mc) <= 4.0 * max(combined, 1e-12)


def test_singular_correlation_is_handled():
    # rank-1 correlation: Z1 = Z2 = Z3 almost surely
    corr = np.ones((3, 3))
    prob = OrthantProblem(np.zeros(3), corr, [-INF, -INF, -INF], [0.5, 1.0, 2.0])
    est = mvn_rectangle_prob(prob, 1e-6, seed=1)
    # P(Z <= min(bounds)) = Phi(0.5)
    assert est.value == pytest.approx(float(ndtr(0.5)), abs=2e-6)


# (X, Y, third) with corr(X, Y) = 0.5 and third = sign * (X - Y): rank 2.
# With X > 2 and Y > 2, either sign of X - Y holds half the orthant mass.
@pytest.mark.parametrize("sign, lower3, upper3", [
    (1.0, 0.0, INF),     # X - Y > 0
    (1.0, -INF, 0.0),    # X - Y < 0
    (-1.0, -INF, 0.0),   # Y - X < 0
])
def test_dependent_row_folds_into_pivot_bounds(sign, lower3, upper3):
    corr = np.array([[1.0, 0.5, 0.5 * sign],
                     [0.5, 1.0, -0.5 * sign],
                     [0.5 * sign, -0.5 * sign, 1.0]])
    prob = OrthantProblem(np.zeros(3), corr, [2.0, 2.0, lower3],
                          [INF, INF, upper3])
    est = mvn_rectangle_prob(prob, 1e-7, seed=0)
    half = oracles.quad_rectangle_prob_2d(
        [0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], [2.0, 2.0], [INF, INF]) / 2.0
    assert est.converged
    # the folded integrand is continuous; a 0/1 factor for the dependent
    # row made this problem take over ten million evaluations
    assert est.evaluations <= 1 << 20
    assert est.value == pytest.approx(half, abs=3.0 * max(est.error_bound,
                                                          1e-7))


def test_unconstrained_coordinates_are_dropped():
    corr = np.eye(3) * 0.6 + 0.4
    full = OrthantProblem(np.zeros(3), corr, [-INF, -INF, -INF], [1.0, INF, 0.5])
    sub = OrthantProblem(np.zeros(2), corr[np.ix_([0, 2], [0, 2])],
                         [-INF, -INF], [1.0, 0.5])
    a = mvn_rectangle_prob(full, 1e-6, seed=9)
    b = mvn_rectangle_prob(sub, 1e-6, seed=9)
    assert a.value == pytest.approx(b.value, abs=2e-6)


_EQUI = np.eye(3) * 0.5 + 0.5
# rank 2: the third coordinate loads 0.0999 on the second pivot
_DEPENDENT = np.array([[1.0, 0.0, 0.995], [0.0, 1.0, math.sqrt(1 - 0.995**2)],
                       [0.995, math.sqrt(1 - 0.995**2), 1.0]])


@pytest.mark.parametrize("corr, mean, lower, upper, want", [
    (_EQUI, (1e308,) * 3, (0.0,) * 3, (INF,) * 3, 1.0),
    (_EQUI, (1e308, -1e308, 1e308), (0.0, -INF, 0.0), (INF, 0.0, INF), 1.0),
    (_EQUI, (1e308, 1e308, -1e308), (0.0,) * 3, (INF,) * 3, 0.0),
    (_EQUI, (1e308, 0.0, 0.0), (-INF, -1.0, -1.0), (5.0, 1.0, 1.0), 0.0),
    (_DEPENDENT, (1e308,) * 3, (0.0,) * 3, (INF,) * 3, 1.0),
    (_DEPENDENT, (1e308, -1e308, 1e308), (0.0,) * 3, (INF,) * 3, 0.0),
])
def test_extreme_means_give_exact_limits(corr, mean, lower, upper, want):
    # bounds standardize to +-inf, whose ndtr is the exact limit; no
    # arithmetic on the way may warn
    problem = OrthantProblem(np.array(mean), corr, np.array(lower),
                             np.array(upper))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mvn_rectangle_prob(problem, 1e-5).value == want


def test_rejects_non_psd():
    corr = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(NotPositiveSemiDefiniteError):
        OrthantProblem(np.zeros(3), corr, np.full(3, -1.0), np.full(3, 1.0))


def test_rejects_shape_mismatch_and_degenerate_bounds():
    with pytest.raises(ValueError):
        OrthantProblem([0.0, 0.0], np.eye(3), [-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        OrthantProblem([0.0], [[1.0]], [1.0], [1.0])
    with pytest.raises(ValueError):
        OrthantProblem([0.0], [[1.0]], [2.0], [-2.0])


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.1, 50.0), shift=st.floats(-3.0, 3.0))
def test_standardize_preserves_probability(scale, shift):
    cov = np.array([[scale, 0.3 * scale], [0.3 * scale, 2.0 * scale]])
    mean = np.array([shift, -shift])
    lower = np.array([-1.0, -INF])
    upper = np.array([2.0, 1.0])
    s = np.sqrt(np.diag(cov))
    corr = cov / np.outer(s, s)
    est = mvn_rectangle_prob(
        OrthantProblem(mean / s, corr, lower / s, upper / s), 1e-5, seed=0)
    direct = oracles.quad_rectangle_prob_2d(
        mean / s, corr.tolist(), lower / s, upper / s)
    assert est.value == pytest.approx(direct, abs=3e-5)


def test_probability_estimate_invariants():
    est = ProbabilityEstimate(0.5, 1e-6, 100, True)
    assert 0.0 <= est.value <= 1.0
    assert est.error_bound >= 0.0


def _k3_pwer_problem():
    return pwer_problem(_load_designed(str(K3_RECORD))[0])


def _k3_problem(effects, coords):
    """A one-sided upper problem on the K=3 record: a contrast of two arms
    is bounded below by 0, an arm's own statistic by its stage's boundary,
    and every upper bound is +inf."""
    design, _, _, configs = _load_designed(str(K3_RECORD))
    lowers = [0.0 if c.arm_b else design.boundaries[c.stage - 1]
              for c in coords]
    return build_moment_problem(design, configs[effects], coords, lowers,
                                [INF] * len(coords))


def _k3_win_problem():
    # a stage-3 win of arm 1 under the global null
    return _k3_problem("global_null", [
        StatCoord(1, 2, 1), StatCoord(3, 2, 1), StatCoord(1, 3, 2),
        single(1, 2), single(1, 3)])


def _k3_lfc_win_problem():
    # the 7-coordinate stage-3 win problem of arm 1 at the LFC
    return _k3_problem("lfc", [
        StatCoord(1, 2, 1), StatCoord(3, 2, 1), single(1, 1), single(3, 1),
        StatCoord(1, 3, 2), single(1, 2), single(1, 3)])


# (problem, target, seed) -> (value.hex(), error_bound.hex(), evaluations),
# recorded before the integrand skipped open sides and batched its shifts;
# "k3_lfc_deep" was recorded while the points still came from scipy's
# qmc.Sobol, and reaches 2**16 points per shift
_GOLDEN_BITS = {
    "k3_lfc_deep": (
        _k3_lfc_win_problem, 5e-10, (0, 3, 0),
        ("0x1.d790c5e9b211cp-12", "0x1.03774e873c2b3p-31", 786432)),
    "k3_pwer": (
        _k3_pwer_problem, 1e-6, 0,
        ("0x1.f3339fe29e035p-1", "0x1.f1960743e4b18p-21", 196608)),
    "k3_win": (
        _k3_win_problem, 1e-7, 1,
        ("0x1.0ceafb6e596dfp-9", "0x1.dfde11d0026c7p-25", 24576)),
    "two_sided": (
        lambda: OrthantProblem([0.3, -0.2], [[1.0, -0.4], [-0.4, 1.0]],
                               [-1.0, -INF], [1.5, 0.8]), 1e-6, 4,
        ("0x1.5710c3d616940p-1", "0x1.e7e04a1554e5ep-23", 6144)),
    "negative_fold": (
        lambda: OrthantProblem(np.zeros(3),
                               [[1.0, 0.5, -0.5], [0.5, 1.0, 0.5],
                                [-0.5, 0.5, 1.0]],
                               [2.0, 2.0, -INF], [INF, INF, 0.0]), 1e-7, 0,
        ("0x1.099be800cec67p-9", "0x1.3643eea223480p-24", 49152)),
    # rank 2; pivot 1 holds an open and a finite row on each side
    "mixed_sides": (
        lambda: OrthantProblem([0.1, -0.2, 0.3],
                               [[1.0, 0.5, 0.5], [0.5, 1.0, -0.5],
                                [0.5, -0.5, 1.0]],
                               [-INF, -INF, -0.5], [1.0, 0.5, INF]), 1e-6, 2,
        ("0x1.1ea251b22be40p-1", "0x1.f36547ff08823p-21", 6144)),
    "rank_one": (
        lambda: OrthantProblem(np.zeros(3), np.ones((3, 3)), [-INF] * 3,
                               [0.5, 1.0, 2.0]), 1e-6, 1,
        ("0x1.62075e232ac77p-1", "0x0.0p+0", 1)),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_BITS))
def test_estimates_reproduce_recorded_bits(name):
    make, target, seed, expected = _GOLDEN_BITS[name]
    est = mvn_rectangle_prob(make(), target, seed=seed)
    assert est.converged
    bits = (est.value.hex(), est.error_bound.hex(), est.evaluations)
    assert bits == expected


@pytest.mark.parametrize("name", sorted(_GOLDEN_BITS))
def test_refining_in_place_reproduces_recorded_bits(monkeypatch, name):
    # one round at a time, as mvn._refine steps each problem of a family,
    # from the first round (none for an exact problem), run as the
    # integral is made, down to the recorded target: the recorded bits,
    # and no round spent twice
    make, target, seed, expected = _GOLDEN_BITS[name]
    rows = _record_integrand_rows(monkeypatch)
    integral = mvn._Integral(make(), seed)
    est = integral.estimate
    while est.error_bound > target:
        assert integral.refinable
        est = integral.step()
    assert est.converged and integral.estimate is est
    assert (est.value.hex(), est.error_bound.hex(), est.evaluations) == expected
    stepped_rows = sum(rows)
    rows.clear()
    assert mvn_rectangle_prob(make(), target, seed=seed) == est
    assert stepped_rows == sum(rows)


def test_refining_past_the_cap_reports_nonconvergence(monkeypatch):
    # the cap ends the rounds where a direct call at a target out of
    # reach stops, and that call flags it
    monkeypatch.setattr(mvn, "_MAX_EVALUATIONS", 20_000)
    prob = OrthantProblem(np.zeros(5), np.eye(5) * 0.7 + 0.3,
                          np.full(5, -1.0), np.full(5, 1.0))
    assert mvn_rectangle_prob(prob, 1e-2, seed=0).converged
    integral = mvn._Integral(prob, 0)
    est = integral.estimate
    while integral.refinable:
        est = integral.step()
    assert est.evaluations <= 20_000 < 2 * est.evaluations
    direct = mvn_rectangle_prob(prob, 1e-12, seed=0)
    assert not direct.converged
    assert direct == replace(est, converged=False)


@pytest.mark.parametrize("name", ["k3_pwer", "negative_fold"])
def test_lone_rectangle_is_a_one_term_set(name):
    # a direct call integrates the problem as a set of one term, weight
    # 1, on the scheduler every family uses, at the seed the set gives it
    make, target, _, _ = _GOLDEN_BITS[name]
    problem = make()
    direct = mvn_rectangle_prob(problem, target, (5, 2, 0))
    as_set = set_probability(EventProblemSet(2, ((1, problem),)),
                             target_abs_error=target, seed=5)
    assert direct == as_set
    assert ((direct.value.hex(), direct.error_bound.hex())
            == (as_set.value.hex(), as_set.error_bound.hex()))


def test_mixed_sides_problem_has_mixed_pivot():
    # the "mixed_sides" record covers a pivot whose sides are neither
    # constant nor free of infinite rows
    prob = _GOLDEN_BITS["mixed_sides"][0]()
    pivots = mvn._fold(*mvn._pivoted_cholesky(
        prob.corr, prob.lower - prob.mean, prob.upper - prob.mean))
    _, lo, hi, _ = pivots[1]
    assert np.isinf(lo).any() and np.isfinite(lo).any()
    assert np.isinf(hi).any() and np.isfinite(hi).any()


def test_open_sides_and_pivot_zero_are_constants():
    # all lower bounds are -inf and the mean is zero
    prob = _k3_pwer_problem()
    pivots = mvn._fold(*mvn._pivoted_cholesky(prob.corr, prob.lower,
                                              prob.upper))
    for j, (_, lo, hi, _) in enumerate(pivots):
        assert lo == 0.0 and isinstance(lo, float)
        assert isinstance(hi, float) == (j == 0)


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_tied_candidates_pivot_on_the_first():
    # coordinates 0 and 1 tie exactly at the first step, and 2 has more
    # mass; they differ in their correlation with 2, so the factor's
    # first column shows which of them was taken: coordinate 0
    corr = [[1.0, 0.5, 0.3], [0.5, 1.0, -0.2], [0.3, -0.2, 1.0]]
    args = corr, [-1.0, -1.0, -2.0], [1.0, 1.0, 2.0]
    got = mvn._pivoted_cholesky(*args)
    _assert_same_bits(got, oracles.pivoted_cholesky_scalar(*args))
    assert sorted(got[0][:, 0]) == [0.3, 0.5, 1.0]


def test_vector_scan_matches_the_scalar_scan(monkeypatch):
    # every factorization of the K=3 and K=4 designs' searches (the LFC
    # win families at each visited n) and of the K=3 record's report:
    # the same factor and bounds, bit for bit, as the scalar scan, so the
    # same pivot order.  Exchangeable rivals give exact ties in both
    real, calls = mvn._pivoted_cholesky, []

    def checked(corr, lower, upper):
        got = real(corr, lower, upper)
        _assert_same_bits(got, oracles.pivoted_cholesky_scalar(
            corr, lower, upper))
        calls.append(got[0].shape)
        return got
    monkeypatch.setattr(mvn, "_pivoted_cholesky", checked)
    parsed = parse_config(CONFIG_K3.read_text(encoding="utf-8"))
    for arms in (3, 4):
        design_trial(arms, parsed.shape, parsed.calibration, parsed.normal)
    design, _, normal, effects = _load_designed(str(K3_RECORD))
    full_report(design, normal, effects)
    # 66 factorizations in the searches, 33 of them with an exact tie at
    # some step, and 31 in the report, 14 with a tie and some
    # rank-deficient
    assert len(calls) == 97
    assert any(rows > cols for rows, cols in calls)


def test_with_mean_moves_only_the_mean():
    prob = _GOLDEN_BITS["mixed_sides"][0]()
    moved = prob.with_mean([0.0, 1.0, -2.0])
    assert moved.mean.tolist() == [0.0, 1.0, -2.0]
    assert not moved.mean.flags.writeable
    assert (moved.corr, moved.lower, moved.upper) == (
        prob.corr, prob.lower, prob.upper)
    assert prob.mean.tolist() == [0.1, -0.2, 0.3]
    for bad in ([0.0, 1.0], [0.0, INF, 0.0], [0.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match="mean must be finite"):
            prob.with_mean(bad)


def _record_integrand_rows(monkeypatch):
    rows = []
    integrand = mvn._sov_integrand

    def recording(pivots, x):
        rows.append(x.shape[0])
        return integrand(pivots, x)
    monkeypatch.setattr(mvn, "_sov_integrand", recording)
    return rows


def _doubling_rounds(rows):
    """Split integrand call sizes into doubling rounds: (batch, sizes)."""
    rounds, current, batch, n_per = [], [], 128, 0
    for n in rows:
        current.append(n)
        if sum(current) == mvn._RANDOMIZATIONS * batch:
            rounds.append((batch, current))
            current = []
            n_per += batch
            batch = n_per
    assert not current, "a round ended part way through its shifts"
    return rounds


@pytest.mark.parametrize("name", ["k3_pwer", "negative_fold", "two_sided"])
@pytest.mark.parametrize("slab", [1, 1000])
def test_slab_size_leaves_estimates_unchanged(monkeypatch, name, slab):
    make, target, seed, _ = _GOLDEN_BITS[name]
    default = mvn_rectangle_prob(make(), target, seed=seed)
    rows = _record_integrand_rows(monkeypatch)
    monkeypatch.setattr(mvn, "_SLAB", slab)
    assert mvn_rectangle_prob(make(), target, seed=seed) == default
    rounds = _doubling_rounds(rows)
    assert sum(len(sizes) for _, sizes in rounds) == len(rows)
    for batch, sizes in rounds:
        for n in sizes:
            assert n % batch == 0 and n <= max(slab, batch)


def test_one_integrand_call_per_small_round(monkeypatch):
    rows = _record_integrand_rows(monkeypatch)
    est = mvn_rectangle_prob(_k3_pwer_problem(), 1e-6, seed=0)
    rounds = _doubling_rounds(rows)
    assert sum(sum(sizes) for _, sizes in rounds) == est.evaluations
    assert any(mvn._RANDOMIZATIONS * batch > mvn._SLAB for batch, _ in rounds)
    for batch, sizes in rounds:
        # each call holds as many whole shifts as fit in a slab, at least one
        shifts_per_call = max(1, mvn._SLAB // batch)
        assert len(sizes) == math.ceil(mvn._RANDOMIZATIONS / shifts_per_call)
        if mvn._RANDOMIZATIONS * batch <= mvn._SLAB:
            assert sizes == [mvn._RANDOMIZATIONS * batch]
        assert max(sizes) <= max(mvn._SLAB, batch)


# stage boundaries of the arms = 4 design of configs/poptarts.cfg
_K4_BOUNDARIES = [4.04876708984375, 2.8629106646734397, 2.337556769207387,
                  2.024383544921875]


@pytest.mark.parametrize("seed", range(4))
def test_k4_pwer_matches_scipy_cdf(seed):
    # the first problem in `design` whose cube has three dimensions with
    # every lower side open
    k = len(_K4_BOUNDARIES)
    stage = np.arange(1, k + 1)
    corr = np.sqrt(np.minimum.outer(stage, stage)
                   / np.maximum.outer(stage, stage))
    est = mvn_rectangle_prob(OrthantProblem(np.zeros(k), corr, [-INF] * k,
                                            _K4_BOUNDARIES), 1e-6, seed=seed)
    cdf = multivariate_normal(np.zeros(k), corr, seed=0, abseps=1e-7,
                              releps=0.0).cdf(_K4_BOUNDARIES)
    assert est.converged
    assert abs((1.0 - est.value) - (1.0 - cdf)) <= 3.0 * est.error_bound + 2e-7


# the integrator's schedule: 128 points, then as many again each round
_SCHEDULE = [128] + [128 << k for k in range(10)]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 11, 35])
@pytest.mark.parametrize("seed", [0, 1, 7, (3, 2, 5)])
def test_sobol_points_match_scipy(dim, seed):
    # a scipy release that changes its Sobol sequence fails here, not as
    # drifted estimates
    ref_rng = np.random.default_rng(seed)
    engine = qmc.Sobol(dim, seed=ref_rng)
    rng = np.random.default_rng(seed)
    rounds = _sobol.sobol_rounds(*_sobol.scramble(dim, rng))
    for batch in _SCHEDULE:
        points = next(rounds)
        assert points.dtype == np.uint32 and points.shape == (batch, dim)
        expected = np.ldexp(engine.random(batch), _sobol.BITS)
        np.testing.assert_array_equal(points, expected)
    assert sum(_SCHEDULE) >= 1 << 16
    shape = (mvn._RANDOMIZATIONS, dim)
    np.testing.assert_array_equal(rng.integers(1 << _sobol.BITS, size=shape),
                                  ref_rng.integers(1 << 30, size=shape))


@pytest.mark.parametrize("done", [128, 256, 1024])
def test_sobol_rounds_resume_after_done_points(done):
    # a resumed set rebuilds its first `done` points and yields the
    # rounds a fresh one yields after them
    scramble = _sobol.scramble(5, np.random.default_rng(3))
    fresh = _sobol.sobol_rounds(*scramble)
    total = 0
    while total < done:
        total += next(fresh).shape[0]
    resumed = _sobol.sobol_rounds(*scramble, done=done)
    for _ in range(4):
        np.testing.assert_array_equal(next(resumed), next(fresh))


@pytest.mark.parametrize("statement", ["import dtldesign",
                                       "from dtldesign import cli"])
def test_import_leaves_scipy_stats_unloaded(statement):
    code = f"import sys; {statement}; print('scipy.stats' in sys.modules)"
    src = str(Path(mvn.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_carried_direction_rows_match_scipy_table():
    # the rows scipy installs, read whole, are the oracle for the constant
    path = (Path(scipy.__file__).parent / "stats"
            / "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    rows = len(_sobol._JOE_KUO)
    assert poly[0] == 1 and vinit[0, 0] == 1 and not vinit[0, 1:].any()
    assert [p for p, _ in _sobol._JOE_KUO] == poly[1:rows + 1].tolist()
    for i, (p, initial) in enumerate(_sobol._JOE_KUO, 1):
        assert len(initial) == p.bit_length() - 1
        assert list(initial) == vinit[i, :len(initial)].tolist()
        assert not vinit[i, len(initial):].any()


def test_carried_direction_rows_reach_the_enumeration_cap():
    # K arms span at most K(K+1)/2 - 1 cube dimensions, so a change to
    # the cap fails here until the carried rows match it
    assert (len(_sobol._JOE_KUO) + 1
            == PERMUTATION_CAP * (PERMUTATION_CAP + 1) // 2 - 1)


def test_dimension_past_the_carried_rows_is_named():
    with pytest.raises(RuntimeError, match="dimension 36"):
        _sobol._directions(36)
    # rank 37, so 36 cube dimensions
    problem = OrthantProblem(np.zeros(37), np.eye(37), [-INF] * 37,
                             [0.0] * 37)
    with pytest.raises(RuntimeError, match="dimension 36"):
        mvn_rectangle_prob(problem, 1e-3)


_FIRST_INTEGRAL_MEMORY = """
import json, sys, tracemalloc
import numpy as np
from dtldesign import _sobol
from dtldesign.mvn import OrthantProblem, mvn_rectangle_prob
problem = OrthantProblem(np.zeros(3), np.eye(3) * 0.5 + 0.5,
                         [-np.inf] * 3, [0.0, 0.5, 1.0])
opened, watching = [], [True]
sys.addaudithook(lambda event, args: opened.append(str(args[0]))
                 if event == "open" and watching else None)
tracemalloc.start(64)
mvn_rectangle_prob(problem, 1e-6)
peak = tracemalloc.get_traced_memory()[1]
watching.clear()
# what the Sobol module's calls allocated and still hold
held = tracemalloc.take_snapshot().filter_traces(
    [tracemalloc.Filter(True, _sobol.__file__, all_frames=True)])
print(json.dumps({"peak": peak, "opened": opened,
                  "held": sum(t.size for t in held.traces)}))
"""


def test_first_integral_reads_direction_rows_in_bounded_memory():
    # a fresh interpreter, so the first integral builds the direction
    # numbers, and opens no file to do it
    src = str(Path(mvn.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _FIRST_INTEGRAL_MEMORY],
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    memory = json.loads(out)
    assert memory["opened"] == []
    assert memory["peak"] < 1_000_000
    assert memory["held"] < 100_000
