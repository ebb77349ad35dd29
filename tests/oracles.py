"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: plain Monte Carlo with eigendecomposition
sampling, closed-form identities, and direct quadrature.  None of it shares code
with the package, so agreement is evidence rather than tautology.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri


def mc_rectangle_prob(mean, corr, lower, upper, reps, seed):
    """Plain Monte Carlo estimate of P(lower <= Z <= upper), Z ~ N(mean, corr).

    Samples via the symmetric matrix square root (eigendecomposition), which
    tolerates semi-definite inputs.  Returns (estimate, standard_error).
    """
    mean = np.asarray(mean, dtype=float)
    corr = np.asarray(corr, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    w, v = np.linalg.eigh(corr)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = reps
    while remaining > 0:
        m = min(remaining, 1 << 16)
        z = rng.standard_normal((m, len(mean))) @ root.T + mean
        inside = np.all((z >= lower) & (z <= upper), axis=1)
        hits += int(inside.sum())
        remaining -= m
    p = hits / reps
    return p, math.sqrt(max(p * (1.0 - p), 1e-300) / reps)


def bivariate_lower_orthant(rho):
    """P(X <= 0, Y <= 0) for standard bivariate normal: 1/4 + arcsin(rho)/(2 pi)."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def quad_rectangle_prob_2d(mean, corr, lower, upper):
    """2-D rectangle probability by adaptive quadrature on the joint density."""
    rho = corr[0][1]
    det = 1.0 - rho * rho

    def density(y, x):
        q = (x - mean[0]) ** 2 - 2 * rho * (x - mean[0]) * (y - mean[1]) + (y - mean[1]) ** 2
        return math.exp(-q / (2.0 * det)) / (2.0 * math.pi * math.sqrt(det))

    # clamp infinities: the density is negligible beyond 9 sigma
    lo = [max(b, m - 9.0) for b, m in zip(lower, mean)]
    hi = [min(b, m + 9.0) for b, m in zip(upper, mean)]
    value, _ = integrate.dblquad(density, lo[0], hi[0], lo[1], hi[1], epsabs=1e-10)
    return value


def two_sample_n(alpha, power, theta, sigma_sq):
    """Classical two-arm single-stage sample size, n per group."""
    z_a = ndtri(1.0 - alpha)
    z_b = ndtri(power)
    return math.ceil(2.0 * sigma_sq * (z_a + z_b) ** 2 / theta**2)


def normal_tail(u):
    """P(Z > u) for standard normal."""
    return 1.0 - ndtr(u)


def random_rectangle_problem(rng, dim):
    """A random correlation matrix with random (possibly infinite) bounds.

    Correlation is sampled as A A^T normalized to unit diagonal, which is
    strictly positive definite with probability one.
    """
    a = rng.standard_normal((dim, dim + 2))
    cov = a @ a.T
    s = np.sqrt(np.diag(cov))
    corr = cov / np.outer(s, s)
    np.fill_diagonal(corr, 1.0)
    mean = rng.uniform(-0.7, 0.7, size=dim)
    lower = rng.uniform(-2.5, 0.3, size=dim)
    upper = lower + rng.uniform(0.7, 3.5, size=dim)
    # sprinkle infinite bounds so both code paths are exercised
    lower[rng.random(dim) < 0.3] = -np.inf
    upper[rng.random(dim) < 0.3] = np.inf
    return mean, corr, lower, upper


def rect_satisfied(z, rect):
    """Which simulated paths satisfy every constraint of a rectangle.

    z has shape (paths, arms, stages), arm k at index k - 1;
    rect is a tuple of (coordinate, lower, upper).  Strict inequalities on
    both sides; boundary ties have probability zero.
    """
    # group 0, the control, contributes Z_{0,j} = 0
    groups = np.concatenate([np.zeros_like(z[:, :1]), z], axis=1)
    ok = np.ones(z.shape[0], dtype=bool)
    for coord, lo, hi in rect:
        v = (groups[:, coord.arm_a, coord.stage - 1]
             - groups[:, coord.arm_b, coord.stage - 1])
        ok &= (v > lo) & (v < hi)
    return ok


def arm_rule_corr(a, b):
    """Correlation of two statistic coordinates by the arm-level pair rule.

    Each coordinate expands into signed treatment-arm terms (the control,
    group 0, adds none); a pair of terms contributes the stage ratio r for
    the same arm and r/2 for different arms, which share only the control.
    The terms are summed in expansion order.
    """
    r = math.sqrt(min(a.stage, b.stage) / max(a.stage, b.stage))

    def terms(c):
        return [(s, k) for s, k in ((1.0, c.arm_a), (-1.0, c.arm_b)) if k]

    total = 0.0
    for sa, ka in terms(a):
        for sb, kb in terms(b):
            total += sa * sb * (r if ka == kb else 0.5 * r)
    return total
