"""Rectangle probabilities P(lower <= Z <= upper) for multivariate normals.

The integrator uses the separation-of-variables transform of Genz (1992):
a pivoted Cholesky factorization visits coordinates in order of increasing
conditional truncated mass, after which the rectangle probability becomes a
smooth integral over the (rank-1)-dimensional unit cube: as in Genz &
Bretz (2009), a linearly dependent coordinate becomes one more bound on the
last pivot it loads on.  That integral is evaluated with one scrambled
Sobol point set per problem under independent random digital shifts, whose
spread gives a standard-error estimate.  The scramble and the shifts are a
pure function of (cube dimension, seed), so integrals of one search that
share a seed draw them once (_Integral).  The points come from `_sobol`, a
generator that matches scipy's `qmc.Sobol` bit for bit without importing
`scipy.stats`.  Infinite bounds map to the cube endpoints exactly, so no
truncation is involved: a pivot side infinite on every row is the
constant 0 or 1, and pivot 0, the same at every point, is computed once.
Each doubling round evaluates its shifts together, in slabs of at most
_SLAB points that split only a longer shift.  An integration advances one
round at a time (_Integral), and one scheduler (_refine) shares an error
budget across the problems of a weighted family by advancing whichever
problem dominates its bound; a lone rectangle is a family of one term.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from ._sobol import BITS, scramble, sobol_rounds

__all__ = [
    "NotPositiveSemiDefiniteError",
    "OrthantProblem",
    "ProbabilityEstimate",
    "mvn_rectangle_prob",
]

# Default error bound of a weighted family: each event set a report
# integrates (characteristics), and the LFC win family of a sample size
# search visit whose power is still within its bound of the target
# (calibrate.find_sample_size).
DEFAULT_TARGET = 2e-5

# Matrices with min eigenvalue >= -PSD_RTOL * max eigenvalue are accepted;
# exact rank deficiency is then folded into the pivot bounds.
PSD_RTOL = 1e-10

# Conditional variances at or below this mark a linearly dependent coordinate.
_SINGULAR_TOL = 1e-12

# ndtri arguments are clipped strictly inside (0, 1).
_UNIT_LO = 1e-300
_UNIT_HI = 1.0 - 1e-16

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Random digital shifts of the scrambled Sobol set behind each error estimate.
_RANDOMIZATIONS = 12

# Integrand evaluations after which a problem returns with converged=False.
_MAX_EVALUATIONS = 1 << 24

# Most integrand rows per call, whole shifts or pieces of a longer one.
# Each per-column float temporary of a slab is then 64 KiB, under glibc's
# default 128 KiB mmap threshold, so slabs reuse heap pages rather than
# fault in fresh ones, whatever the process freed before.  The simulator's
# chunks and uniform blocks keep to the same size.
_SLAB = 1 << 13

# Standardizing a bound far from the mean (say 1e308 away) overflows to
# +-inf, whose ndtr is the exact limit 0 or 1, so such overflow is ignored.
_ignore_overflow = np.errstate(over="ignore")


class NotPositiveSemiDefiniteError(ValueError):
    """Correlation matrix has an eigenvalue below the accepted tolerance."""


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A rectangle probability together with its integration error.

    Attributes:
        value: estimated probability.  Only a single rectangle's value
            is clamped to [0, 1]; a signed weighted sum of them
            (_weighted_sum) is not, and can stray outside by about its
            error bound.
        error_bound: 3 times the standard error estimated from the
            spread of the 12 randomizations, which has 11 degrees of
            freedom, so not a true three-sigma bound (see
            mvn_rectangle_prob); 0.0 when the value was computed exactly.
        evaluations: integrand evaluations spent.
        converged: False when the evaluation cap was reached before the
            requested error target.
    """

    value: float
    error_bound: float
    evaluations: int
    converged: bool = True


@dataclass(frozen=True, eq=False)
class OrthantProblem:
    """One MVN rectangle probability P(lower <= Z <= upper), Z ~ N(mean, corr).

    `corr` must be a correlation matrix (unit diagonal, symmetric, positive
    semi-definite within tolerance); divide each coordinate of a general
    covariance problem by its standard deviation to reach this form.  Bounds
    may be -inf / +inf.
    A coordinate with lower >= upper would make the rectangle empty and is
    rejected: callers prune empty events before building a problem.
    """

    mean: np.ndarray
    corr: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        corr = np.asarray(self.corr, dtype=float)
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        d = mean.shape[0]
        if d == 0:
            raise ValueError("problem must have at least one coordinate")
        if corr.shape != (d, d):
            raise ValueError(f"corr has shape {corr.shape}, expected {(d, d)}")
        if lower.shape != (d,) or upper.shape != (d,):
            raise ValueError("mean, lower and upper lengths must agree")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("bounds must not be NaN")
        if not np.all(lower < upper):
            bad = int(np.argmin((lower < upper).astype(int)))
            raise ValueError(f"degenerate bounds at coordinate {bad}: "
                             f"[{lower[bad]}, {upper[bad]}]")
        if not np.allclose(corr, corr.T, rtol=0.0, atol=1e-12):
            raise ValueError("corr must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("corr must have unit diagonal")
        eigs = np.linalg.eigvalsh(corr)
        if eigs[0] < -PSD_RTOL * max(eigs[-1], 1.0):
            raise NotPositiveSemiDefiniteError(
                f"minimum eigenvalue {eigs[0]:.3e} below tolerance")
        corr = (corr + corr.T) / 2.0
        np.fill_diagonal(corr, 1.0)
        for name, value in (("mean", mean), ("corr", corr),
                            ("lower", lower), ("upper", upper)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def with_mean(self, mean) -> OrthantProblem:
        """This rectangle and correlation about another mean.  Only the
        mean is checked: the rest was checked when this problem was built."""
        mean = np.array(mean, dtype=float)
        if mean.shape != (self.dim,) or not np.all(np.isfinite(mean)):
            raise ValueError(f"mean must be finite, of shape {(self.dim,)}")
        mean.setflags(write=False)
        problem = copy.copy(self)
        object.__setattr__(problem, "mean", mean)
        return problem


def _npdf(t: float) -> float:
    # standard normal density; t * t on a Python float overflows silently
    t = float(t)
    return math.exp(-0.5 * t * t) / _SQRT_TWO_PI


@_ignore_overflow
def _pivoted_cholesky(corr, lower, upper):
    """Cholesky factor with greedy variable reordering (Genz ordering).

    At each step the pending coordinate with the smallest conditional
    truncated mass is processed next, concentrating the integrand's variation
    in the leading cube dimensions; one vector pass gives every candidate's
    mass, and a tie goes to the first.  Coordinates whose conditional
    variance underflows are linearly dependent on the pivots already taken;
    they are never chosen while an independent one remains, so the
    factorization stops at the first of them.  Returns the d x rank factor
    (row i holds coordinate i's loadings on the pivots) and the reordered
    bounds; the dependent rows come last and are folded into pivot bounds
    by `_fold`.
    """
    d = len(lower)
    L = np.array(corr, dtype=float)
    diag = np.diagonal(L)
    # per coordinate (column): its bounds, then its squared loadings and
    # its loadings times y, summed over the pivots taken so far
    tracked = np.zeros((4, d))
    tracked[0], tracked[1] = upper, lower
    b, a, squares, means = tracked
    y = np.zeros(d)  # conditional truncated means of processed coordinates
    for k in range(d):
        # every candidate's conditional variance, mean and mass
        var = diag[k:] - squares[k:]
        cdf = ndtr((tracked[:2, k:] - means[k:])
                   / np.sqrt(np.maximum(var, _SINGULAR_TOL)))
        mass = cdf[0] - cdf[1]
        mass[var <= _SINGULAR_TOL] = np.inf  # dependent ones go last
        best = k + int(mass.argmin())  # the first of tied candidates
        if best != k:
            L[k], L[best] = L[best], L[k].copy()
            L[:, k], L[:, best] = L[:, best], L[:, k].copy()
            tracked[:, k], tracked[:, best] = (tracked[:, best],
                                               tracked[:, k].copy())
        var = L[k, k] - L[k, :k] @ L[k, :k]
        if var <= _SINGULAR_TOL:
            return np.tril(L)[:, :k], a, b
        ck = math.sqrt(var)
        L[k, k] = ck
        if k + 1 < d:
            L[k + 1:, k] = (L[k + 1:, k] - L[k + 1:, :k] @ L[k, :k]) / ck
        s = float(L[k, :k] @ y[:k])
        at = (a[k] - s) / ck
        bt = (b[k] - s) / ck
        mass = ndtr(bt) - ndtr(at)
        if mass > 1e-280:
            y[k] = (_npdf(at) - _npdf(bt)) / mass
        elif at > 0.0:
            y[k] = at
        elif bt < 0.0:
            y[k] = bt
        else:
            y[k] = 0.0
        column = L[k + 1:, k]
        squares[k + 1:] += column * column
        means[k + 1:] += column * y[k]
    return np.tril(L), a, b


@_ignore_overflow
def _fold(L, a, b):
    """Attach every row to the last pivot j it loads on (Genz & Bretz 2009).

    Row i, a_i <= L[i, :j] y[:j] + L[i, j] y_j <= b_i, bounds y_j given the
    earlier pivots; a negative L[i, j] swaps its bounds.  Returns, per
    pivot, the attached rows' loadings on the earlier pivots, lower and
    upper numerators, and coefficients c on the pivot: y_j ranges over
    [max (lower - s) / c, min (upper - s) / c], s the loadings times y.
    A side that is the same at every point is stored as its ndtr value, a
    float: both sides of pivot 0, which has no loadings, and every open
    side (all rows at -inf below or +inf above; exactly 0.0 or 1.0).

    The last pivot is the last loading above sqrt(_SINGULAR_TOL) = 1e-6.
    Each pivot's own coefficient exceeds it, as its conditional variance
    exceeds _SINGULAR_TOL.  A dependent row's conditional variance is at
    most _SINGULAR_TOL, so by Cauchy-Schwarz each later loading (a
    conditional covariance over the pivot's conditional standard deviation)
    is at most 1e-6: rounding residue for an exactly dependent row.
    """
    rank = L.shape[1]
    loads = np.abs(L[:, ::-1]) > math.sqrt(_SINGULAR_TOL)
    last = rank - 1 - np.argmax(loads, axis=1)
    # rows grouped by pivot in row order; row j < rank is pivot j's own,
    # so no group is empty
    order = np.argsort(last, kind="stable")
    L, last, a, b = L[order], last[order], a[order], b[order]
    c = L[np.arange(len(L)), last]
    lo, hi = np.where(c < 0.0, b, a), np.where(c < 0.0, a, b)
    starts = np.searchsorted(last, np.arange(rank))
    t_lo = np.maximum.reduceat(lo / c, starts)
    t_hi = np.minimum.reduceat(hi / c, starts)
    pivots = []
    for j, (i, e) in enumerate(zip(starts, [*starts[1:], len(L)])):
        sides = [float(ndtr(t[j])) if j == 0 or math.isinf(t[j]) else num[i:e]
                 for num, t in ((lo, t_lo), (hi, t_hi))]
        pivots.append((L[i:e, :j], *sides, c[i:e]))
    return pivots


@_ignore_overflow
def _sov_integrand(pivots, points):
    """Transformed integrand on the unit cube, vectorized over the rows of
    `points`, 30-bit integers: coordinate j of a row is points[:, j] /
    2**30, computed as pivot j needs it, so no float copy of the points
    is held.

    Only sides `_fold` left as numerators are computed per point; the
    float sides give the same bits as evaluating them at every point.
    Each row is computed on its own, so stacking the points of several
    shifts into one call leaves every value unchanged.
    """
    y = np.empty((points.shape[0], len(pivots) - 1))
    p = 1.0
    for j, (loads, lo, hi, c) in enumerate(pivots):
        s = y[:, :j] @ loads.T if j else None
        if not isinstance(lo, float):
            lo = ndtr(((lo - s) / c).max(axis=1))
        if not isinstance(hi, float):
            hi = ndtr(((hi - s) / c).min(axis=1))
        p = p * np.maximum(hi - lo, 0.0)
        if j < y.shape[1]:
            z = lo + points[:, j] * 2.0 ** -BITS * (hi - lo)
            np.clip(z, _UNIT_LO, _UNIT_HI, out=z)
            y[:, j] = ndtri(z)
    return p


def _draw(dim: int, seed):
    """The scramble and the _RANDOMIZATIONS digital shifts of one point
    set, a pure function of (dim, seed)."""
    rng = np.random.default_rng(seed)
    # the scramble draws from a child of rng, so rng's own stream begins
    # with the shifts
    return scramble(dim, rng), rng.integers(
        1 << BITS, size=(_RANDOMIZATIONS, dim)).astype(np.uint32)


class _Integral:
    """One problem's integration, advanced one doubling round at a time.

    Construction sets the problem up: an exact problem gets its estimate,
    any other runs its first round.  `step()` runs the next round,
    `estimate` is the latest estimate, and `refinable` says whether
    another round fits under _MAX_EVALUATIONS.  Between rounds it keeps
    the pivots, the scramble, the shifts and the sums but no Sobol
    points: each round rebuilds the earlier points it reflects.
    Integrals given one `draws` dict, as a search's visits are, draw the
    scramble and the shifts once per (dim, seed), which alone decide
    them; the pivots come from each problem's own bounds.
    """

    def __init__(self, problem: OrthantProblem, seed: int | tuple[int, ...],
                 draws: dict | None = None):
        parts = seed if isinstance(seed, tuple) else (seed,)
        if not all(isinstance(s, (int, np.integer))
                   and not isinstance(s, bool) and s >= 0 for s in parts):
            raise ValueError("seed must be a non-negative integer or a tuple "
                             f"of them, got {seed!r}")
        self._problem, self._seed = problem, seed
        self._draws = {} if draws is None else draws
        self._n_per = 0  # points per shift; stays 0 for an exact problem
        self.estimate = self._start()
        if self.estimate is None:
            self.step()

    def _start(self):
        """The first estimate if the problem is exact; else None, with
        the state of the rounds set up."""
        problem = self._problem
        a = problem.lower - problem.mean
        b = problem.upper - problem.mean
        corr = problem.corr
        # unconstrained coordinates contribute a factor of one
        keep = ~(np.isneginf(a) & np.isposinf(b))
        a, b = a[keep], b[keep]
        corr = corr[np.ix_(keep, keep)]
        if a.shape[0] == 0:
            return ProbabilityEstimate(1.0, 0.0, 0)
        self._pivots = _fold(*_pivoted_cholesky(corr, a, b))
        dim = len(self._pivots) - 1  # the cube dimension: rank - 1
        if dim == 0:
            _, lo, hi, _ = self._pivots[0]
            return ProbabilityEstimate(max(hi - lo, 0.0), 0.0, 1)
        key = dim, self._seed
        if key not in self._draws:
            self._draws[key] = _draw(*key)
        self._scramble, self._shifts = self._draws[key]
        self._sums = np.zeros(_RANDOMIZATIONS)
        return None

    @property
    def refinable(self) -> bool:
        # the next round doubles the total, keeping counts powers of 2
        return (self._n_per > 0
                and 2 * _RANDOMIZATIONS * self._n_per <= _MAX_EVALUATIONS)

    def step(self) -> ProbabilityEstimate:
        """Run the next doubling round and return the new estimate.  Call
        it only while `refinable`."""
        pivots, shifts, sums = self._pivots, self._shifts, self._sums
        dim = shifts.shape[1]
        base = next(sobol_rounds(*self._scramble, done=self._n_per))
        batch = base.shape[0]
        group = max(1, _SLAB // batch)
        # a longer shift runs in pieces of a power of two points, no fewer
        # than the first round's 128, and their sums add in the balanced
        # tree numpy's pairwise sum makes of the whole shift: the same bits
        piece = min(batch, 1 << (max(_SLAB, 128).bit_length() - 1))
        for r in range(0, _RANDOMIZATIONS, group):
            parts = [_sov_integrand(
                pivots, (base[i:i + piece] ^ shifts[r:r + group, None])
                .reshape(-1, dim)).reshape(-1, piece).sum(axis=1)
                for i in range(0, batch, piece)]
            while len(parts) > 1:
                parts = [a + b for a, b in zip(parts[::2], parts[1::2])]
            sums[r:r + group] += parts[0]
        self._n_per += batch
        estimates = sums / self._n_per
        value = float(estimates.mean())
        error = (3.0 * float(estimates.std(ddof=1))
                 / math.sqrt(_RANDOMIZATIONS))
        self.estimate = ProbabilityEstimate(
            min(max(value, 0.0), 1.0), error, _RANDOMIZATIONS * self._n_per)
        return self.estimate


def _check_target(target_abs_error: float) -> None:
    if not 0.0 < target_abs_error < math.inf:
        raise ValueError("target_abs_error must be positive and finite, "
                         f"got {target_abs_error}")


def _weighted_sum(terms) -> ProbabilityEstimate:
    """Sum of (weight, estimate) pairs; converged if every term converged.

    Bounds combine in quadrature, sqrt(sum (w * bound)^2): every problem
    integrates with its own seed (an events._seeded sub-seed within a
    set), so the terms' errors are independent, and bounds that are each
    3 times an estimated standard error add as 3 times the joint one.
    Each estimate has 11 degrees of freedom, so neither is a true
    three-sigma bound (see ProbabilityEstimate).
    """
    value = 0.0
    square = 0.0
    evaluations = 0
    converged = True
    for w, est in terms:
        value += w * est.value
        square += (w * est.error_bound) ** 2
        evaluations += est.evaluations
        converged = converged and est.converged
    return ProbabilityEstimate(value, math.sqrt(square), evaluations,
                               converged)


def _refine(terms, done, draws: dict | None = None) -> ProbabilityEstimate:
    """Weighted sum of (weight, problem, integration seed) terms, refined
    until done(estimate) holds.  Integrals given the same `draws` dict
    share their Sobol draws (see _Integral).

    Every problem runs its first round as its _Integral is made.  Then,
    while done(estimate) is False, the problem with the largest
    (w * bound)^2 per evaluation spent so far runs one more doubling
    round, so the evaluations go where the weighted error is.  The
    estimate is converged=False when done(estimate) is still False and no
    problem can run another round: each is exact, has bound 0 or is at
    _MAX_EVALUATIONS.
    """
    terms = [(w, _Integral(prob, sub_seed, draws))
             for w, prob, sub_seed in terms]
    while True:
        est = _weighted_sum((w, integral.estimate) for w, integral in terms)
        if done(est):
            return est
        open_terms = [(w, integral) for w, integral in terms
                      if integral.refinable
                      and integral.estimate.error_bound > 0.0]
        if not open_terms:
            return replace(est, converged=False)
        _, integral = max(open_terms, key=lambda t: (
            (t[0] * t[1].estimate.error_bound) ** 2
            / t[1].estimate.evaluations))
        integral.step()


def mvn_rectangle_prob(problem: OrthantProblem,
                       target_abs_error: float,
                       seed: int | tuple[int, ...] = 0
                       ) -> ProbabilityEstimate:
    """Estimate P(lower <= Z <= upper) for Z ~ N(mean, corr).

    One random stream, seeded by `seed`, spawns the child that draws the
    digital shift and linear matrix scramble of one Sobol point set (as
    `qmc.Sobol(dim, seed=rng)` would), then draws _RANDOMIZATIONS further
    random digital shifts, each XORed onto the set's 30-bit integer
    points.  Given the scramble, the shifted point sets are
    independent and each gives an unbiased estimate; averaged over the
    scramble, their variance equals that of as many independently
    scrambled sets.  The error bound is 3 times the standard error
    estimated from their spread, which has 11 degrees of freedom, so it
    misses more often than a true three-sigma bound: on 400 seeds of the
    K=3 `pwer_problem` the true error exceeded it 5-6 times at target
    1e-5 and 11 times at 1e-6 (ROADMAP, "Error bounds that hold as often
    as they claim").

    The problem is integrated as a weighted family of one term, weight 1,
    on _refine.  That gives the integral's own bound b back as
    sqrt((1 * b)^2), the same double whenever b is at least about 1e-154;
    below that b^2 underflows, so the reported bound reads 0 and meets
    any target, as in a set of several problems.

    Args:
        problem: the rectangle problem; unit-diagonal correlation.
        target_abs_error: the point count doubles until the error bound
            drops below this value, spending at most
            _MAX_EVALUATIONS.  Must be positive and finite.
        seed: integration seed, a non-negative int or a tuple of them (as
            the `(seed, stage, index)` `events._seeded` gives each
            problem of a set).  Results are deterministic given (problem,
            target_abs_error, seed), so any parallel evaluation schedule
            would produce the same estimate.

    Returns:
        ProbabilityEstimate with the estimate, its error bound,
        the evaluation count and a convergence flag (False when the next
        round would pass _MAX_EVALUATIONS).  Rank one is exact.
    """
    _check_target(target_abs_error)
    return _refine([(1, problem, seed)],
                   lambda est: est.error_bound <= target_abs_error)
