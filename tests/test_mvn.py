"""Tests for the MVN rectangle-probability integrator."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from dtldesign import (
    NotPositiveSemiDefiniteError,
    OrthantProblem,
    ProbabilityEstimate,
    mvn,
    mvn_rectangle_prob,
)
from dtldesign.cli import _load_designed
from dtldesign.events import pwer_problem

import oracles

INF = float("inf")
K3_RECORD = (Path(__file__).resolve().parent.parent / "benchmark" / "inputs"
             / "design_k3.json")


def test_dim1_lower_tail_exact():
    est = mvn_rectangle_prob(OrthantProblem([0.0], [[1.0]], [-INF], [0.0]))
    assert est.value == pytest.approx(0.5, abs=1e-15)
    assert est.error_bound == 0.0
    assert est.converged


def test_dim1_shifted_mean():
    est = mvn_rectangle_prob(OrthantProblem([1.0], [[1.0]], [-INF], [0.0]))
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
