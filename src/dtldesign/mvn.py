"""Rectangle probabilities P(lower <= Z <= upper) for multivariate normals.

The integrator uses the separation-of-variables transform of Genz (1992):
a pivoted Cholesky factorization visits coordinates in order of increasing
conditional truncated mass, after which the rectangle probability becomes a
smooth integral over the (rank-1)-dimensional unit cube: as in Genz &
Bretz (2009), a linearly dependent coordinate becomes one more bound on the
last pivot it loads on.  That integral is evaluated with one scrambled
Sobol point set per problem under independent random digital shifts, whose
spread gives a standard-error estimate.  The points come from `_sobol`, a
generator that matches scipy's `qmc.Sobol` bit for bit without importing
`scipy.stats`.  Infinite bounds map to the cube endpoints exactly, so no
truncation is involved: a pivot side infinite on every row is the
constant 0 or 1, and pivot 0, the same at every point, is computed once.
Each doubling round evaluates its shifts together, in slabs of at most
_SLAB points that never split a shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from ._sobol import BITS, sobol_rounds

__all__ = [
    "NotPositiveSemiDefiniteError",
    "OrthantProblem",
    "ProbabilityEstimate",
    "mvn_rectangle_prob",
]

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

# Most integrand rows per call; a call holds whole shifts, at least one.
_SLAB = 1 << 14

# Standardizing a bound far from the mean (say 1e308 away) overflows to
# +-inf, whose ndtr is the exact limit 0 or 1, so such overflow is ignored.
_ignore_overflow = np.errstate(over="ignore")


class NotPositiveSemiDefiniteError(ValueError):
    """Correlation matrix has an eigenvalue below the accepted tolerance."""


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A rectangle probability together with its integration error.

    Attributes:
        value: estimated probability in [0, 1].
        error_bound: three-sigma spread of the independent randomizations
            (0.0 when the value was computed exactly).
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


def _npdf(t: float) -> float:
    # standard normal density; t * t on a Python float overflows silently
    t = float(t)
    return math.exp(-0.5 * t * t) / _SQRT_TWO_PI


@_ignore_overflow
def _pivoted_cholesky(corr, lower, upper):
    """Cholesky factor with greedy variable reordering (Genz ordering).

    At each step the pending coordinate with the smallest conditional
    truncated mass is processed next, concentrating the integrand's variation
    in the leading cube dimensions.  Coordinates whose conditional variance
    underflows are linearly dependent on the pivots already taken; they are
    never chosen while an independent one remains, so the factorization stops
    at the first of them.  Returns the d x rank factor (row i holds
    coordinate i's loadings on the pivots) and the reordered bounds; the
    dependent rows come last and are folded into pivot bounds by `_fold`.
    """
    d = len(lower)
    L = np.array(corr, dtype=float)
    a = np.array(lower, dtype=float)
    b = np.array(upper, dtype=float)
    y = np.zeros(d)  # conditional truncated means of processed coordinates
    for k in range(d):
        best, best_mass = k, np.inf
        for i in range(k, d):
            var = L[i, i] - L[i, :k] @ L[i, :k]
            if var <= _SINGULAR_TOL:
                continue  # dependent candidates are processed last
            sd = math.sqrt(var)
            s = L[i, :k] @ y[:k]
            mass = ndtr((b[i] - s) / sd) - ndtr((a[i] - s) / sd)
            if mass < best_mass:
                best, best_mass = i, mass
        if best != k:
            L[[k, best], :] = L[[best, k], :]
            L[:, [k, best]] = L[:, [best, k]]
            a[[k, best]] = a[[best, k]]
            b[[k, best]] = b[[best, k]]
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
    c = L[np.arange(len(L)), last]
    lo, hi = np.where(c < 0.0, b, a), np.where(c < 0.0, a, b)

    def side(num, j, reduce):
        t = reduce(num[last == j] / c[last == j])
        return float(ndtr(t)) if j == 0 or math.isinf(t) else num[last == j]
    return [(L[last == j, :j], side(lo, j, np.max), side(hi, j, np.min),
             c[last == j]) for j in range(rank)]


@_ignore_overflow
def _sov_integrand(pivots, x):
    """Transformed integrand on the unit cube, vectorized over points x.

    Only sides `_fold` left as numerators are computed per point; the
    float sides give the same bits as evaluating them at every point.
    Each row is computed on its own, so stacking the points of several
    shifts into one call leaves every value unchanged.
    """
    y = np.empty((x.shape[0], len(pivots) - 1))
    p = 1.0
    for j, (loads, lo, hi, c) in enumerate(pivots):
        s = y[:, :j] @ loads.T if j else None
        if not isinstance(lo, float):
            lo = ndtr(((lo - s) / c).max(axis=1))
        if not isinstance(hi, float):
            hi = ndtr(((hi - s) / c).min(axis=1))
        p = p * np.maximum(hi - lo, 0.0)
        if j < y.shape[1]:
            z = lo + x[:, j] * (hi - lo)
            np.clip(z, _UNIT_LO, _UNIT_HI, out=z)
            y[:, j] = ndtri(z)
    return p


def mvn_rectangle_prob(problem: OrthantProblem,
                       target_abs_error: float = 1e-5,
                       seed: int | tuple[int, ...] = 0
                       ) -> ProbabilityEstimate:
    """Estimate P(lower <= Z <= upper) for Z ~ N(mean, corr).

    One random stream, seeded by `seed`, spawns the child that draws the
    digital shift and linear matrix scramble of one Sobol point set (as
    `qmc.Sobol(dim, seed=rng)` would), then draws _RANDOMIZATIONS further
    random digital shifts, each XORed onto the set's 30-bit integer
    points.  Given the scramble, the shifted point sets are
    independent and each gives an unbiased estimate, so the spread of the
    estimates is an honest three-sigma bound; averaged over the scramble,
    their variance equals that of as many independently scrambled sets.

    Args:
        problem: the rectangle problem; unit-diagonal correlation.
        target_abs_error: the point count doubles until the three-sigma
            error estimate drops below this value, spending at most
            _MAX_EVALUATIONS.  Must be positive and finite.
        seed: integration seed, a non-negative int or a tuple of them (as
            `(seed, stage, index)` from `events.set_probability`).  Results
            are deterministic given (problem, target_abs_error, seed), so
            any parallel evaluation schedule would produce the same
            estimate.

    Returns:
        ProbabilityEstimate with the estimate, a three-sigma error bound,
        the evaluation count and a convergence flag.  Rank one is exact.
    """
    if not 0.0 < target_abs_error < math.inf:
        raise ValueError("target_abs_error must be positive and finite, "
                         f"got {target_abs_error}")
    parts = seed if isinstance(seed, tuple) else (seed,)
    if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in parts):
        raise ValueError("seed must be a non-negative integer or a tuple of "
                         f"them, got {seed!r}")
    a = problem.lower - problem.mean
    b = problem.upper - problem.mean
    corr = problem.corr
    # unconstrained coordinates contribute a factor of one
    keep = ~(np.isneginf(a) & np.isposinf(b))
    if not keep.all():
        a, b = a[keep], b[keep]
        corr = corr[np.ix_(keep, keep)]
    if a.shape[0] == 0:
        return ProbabilityEstimate(1.0, 0.0, 0, True)
    pivots = _fold(*_pivoted_cholesky(corr, a, b))
    dim = len(pivots) - 1  # the cube dimension: rank - 1
    if dim == 0:
        _, lo, hi, _ = pivots[0]
        return ProbabilityEstimate(max(hi - lo, 0.0), 0.0, 1, True)

    rng = np.random.default_rng(seed)
    # the scramble draws from a child of rng, so rng's own stream begins
    # with the shifts
    rounds = sobol_rounds(dim, rng)
    shifts = rng.integers(1 << BITS, size=(_RANDOMIZATIONS, dim)).astype(
        np.uint32)
    sums = np.zeros(_RANDOMIZATIONS)
    n_per = 0
    evaluations = 0
    for base in rounds:
        batch = base.shape[0]
        group = max(1, _SLAB // batch)
        for r in range(0, _RANDOMIZATIONS, group):
            x = (base ^ shifts[r:r + group, None]) * 2.0 ** -BITS
            sums[r:r + group] += _sov_integrand(
                pivots, x.reshape(-1, dim)).reshape(-1, batch).sum(axis=1)
            del x  # freed before the next slab is built: a lower peak RSS
        n_per += batch
        evaluations += _RANDOMIZATIONS * batch
        estimates = sums / n_per
        value = float(estimates.mean())
        error = 3.0 * float(estimates.std(ddof=1)) / math.sqrt(_RANDOMIZATIONS)
        if error <= target_abs_error:
            converged = True
            break
        # the next round doubles the total, keeping counts powers of 2
        if evaluations + _RANDOMIZATIONS * n_per > _MAX_EVALUATIONS:
            converged = False
            break
    value = min(max(value, 0.0), 1.0)
    return ProbabilityEstimate(value, error, evaluations, converged)
