"""Reference computations written from the defining formulas in plain Python.

Nothing here imports the program under test.  Each function recomputes a
quantity the program reports (fits, Lq-likelihoods, ratio statistics, the
sandwich objective behind adaptive q), so agreement is a cross-check of
two independent codes rather than one code run twice.

Every fit starts where the program's documented scheme starts (the
maximum-likelihood estimate) and applies the same reweighting map
w_i = f(x_i | params)^(1-q), so it lands on the same fixed point; it then
iterates to a much tighter tolerance than the program.  Each fit also
reports how many map evaluations it needed to reach the program's own
tolerance, so that a fit the program had to cut off at its iteration cap
can be told apart from a wrong one.
"""

from __future__ import annotations

import math
import sys

# The grid the program documents for adaptive q: 0.50, 0.51, ..., 1.00.
Q_GRID = tuple(i / 100.0 for i in range(50, 101))

# The program's documented relative convergence tolerance and variance floor.
PROGRAM_TOL = 1e-8
FLOOR = sys.float_info.epsilon

_TIGHT_TOL = 1e-12
_MAX_ITER = 20000


class Fit:
    """Fitted parameters and the map evaluations needed to reach PROGRAM_TOL."""

    __slots__ = ("params", "needed")

    def __init__(self, params, needed):
        self.params = params
        self.needed = needed


def log_pdf(v, mu, s2):
    return -0.5 * math.log(2.0 * math.pi * s2) - (v - mu) ** 2 / (2.0 * s2)


def _weights(xs, mu, s2, q):
    return [math.exp((1.0 - q) * log_pdf(v, mu, s2)) for v in xs]


def _wmean(w, xs):
    return sum(wi * vi for wi, vi in zip(w, xs)) / sum(w)


def _wss(w, xs, mu):
    return sum(wi * (vi - mu) ** 2 for wi, vi in zip(w, xs))


def _mean(xs):
    return sum(xs) / len(xs)


def _iterate(params, step, rel_change):
    """Apply `step` until the relative change falls below the tight tolerance."""
    needed = None
    for k in range(1, _MAX_ITER + 1):
        new = step(params)
        change = rel_change(params, new)
        params = new
        if needed is None and change < PROGRAM_TOL:
            needed = k
        if change < _TIGHT_TOL:
            break
    return Fit(params, needed if needed is not None else _MAX_ITER + 1)


def _mean_change(old, new, s2):
    return abs(new - old) / max(math.sqrt(s2), 1e-12)


def fit_normal(xs, q):
    """Unconstrained mean and variance."""
    mu = _mean(xs)
    s2 = max(sum((v - mu) ** 2 for v in xs) / len(xs), FLOOR)

    def step(p):
        w = _weights(xs, p[0], p[1], q)
        m = _wmean(w, xs)
        return m, max(_wss(w, xs, m) / sum(w), FLOOR)

    def change(p, n):
        return max(_mean_change(p[0], n[0], n[1]), abs(n[1] - p[1]) / n[1])

    return _iterate((mu, s2), step, change)


def fit_known_mean(xs, mu0, q):
    """Variance with the mean pinned at mu0; params are (mu0, s2)."""
    s2 = max(sum((v - mu0) ** 2 for v in xs) / len(xs), FLOOR)

    def step(p):
        w = _weights(xs, mu0, p[1], q)
        return mu0, max(_wss(w, xs, mu0) / sum(w), FLOOR)

    return _iterate((mu0, s2), step, lambda p, n: abs(n[1] - p[1]) / n[1])


def fit_shared_var(xs, ys, q):
    """Two means, one variance; params are (mu_x, mu_y, s2)."""
    mx, my = _mean(xs), _mean(ys)
    s2 = (sum((v - mx) ** 2 for v in xs) + sum((v - my) ** 2 for v in ys)) / (len(xs) + len(ys))

    def step(p):
        wx = _weights(xs, p[0], p[2], q)
        wy = _weights(ys, p[1], p[2], q)
        a, b = _wmean(wx, xs), _wmean(wy, ys)
        s2n = (_wss(wx, xs, a) + _wss(wy, ys, b)) / (sum(wx) + sum(wy))
        return a, b, max(s2n, FLOOR)

    def change(p, n):
        return max(
            _mean_change(p[0], n[0], n[2]),
            _mean_change(p[1], n[1], n[2]),
            abs(n[2] - p[2]) / n[2],
        )

    return _iterate((mx, my, max(s2, FLOOR)), step, change)


def fit_shared_mean(xs, ys, q):
    """One mean, two variances; params are (mu, s2_x, s2_y)."""
    mu = (sum(xs) + sum(ys)) / (len(xs) + len(ys))
    s2x = max(sum((v - mu) ** 2 for v in xs) / len(xs), FLOOR)
    s2y = max(sum((v - mu) ** 2 for v in ys) / len(ys), FLOOR)

    def step(p):
        wx = _weights(xs, p[0], p[1], q)
        wy = _weights(ys, p[0], p[2], q)
        swx, swy = sum(wx), sum(wy)
        m = (sum(w * v for w, v in zip(wx, xs)) + sum(w * v for w, v in zip(wy, ys))) / (swx + swy)
        return m, max(_wss(wx, xs, m) / swx, FLOOR), max(_wss(wy, ys, m) / swy, FLOOR)

    def change(p, n):
        return max(
            _mean_change(p[0], n[0], max(n[1], n[2])),
            abs(n[1] - p[1]) / n[1],
            abs(n[2] - p[2]) / n[2],
        )

    return _iterate((mu, s2x, s2y), step, change)


def lq_likelihood(xs, mu, s2, q):
    """Sum over the sample of ln_q f(x_i), ln_q(u) = (u^(1-q) - 1)/(1-q), ln at q = 1."""
    if q == 1.0:
        return sum(log_pdf(v, mu, s2) for v in xs)
    omq = 1.0 - q
    return sum(math.expm1(omq * log_pdf(v, mu, s2)) for v in xs) / omq


def _ratio(l1, l0):
    return max(2.0 * (l1 - l0), 0.0)


def statistic_1samp(xs, mu0, q):
    """Twice the Lq-likelihood gap between the free fit and the fit with mean mu0."""
    f1, f0 = fit_normal(xs, q), fit_known_mean(xs, mu0, q)
    (m1, v1), (_, v0) = f1.params, f0.params
    stat = _ratio(lq_likelihood(xs, m1, v1, q), lq_likelihood(xs, mu0, v0, q))
    return stat, max(f1.needed, f0.needed)


def statistic_pooled(xs, ys, q):
    """Shared-variance alternative against one normal for the pooled sample."""
    f1, f0 = fit_shared_var(xs, ys, q), fit_normal(xs + ys, q)
    (mx, my, v), (m0, v0) = f1.params, f0.params
    l1 = lq_likelihood(xs, mx, v, q) + lq_likelihood(ys, my, v, q)
    stat = _ratio(l1, lq_likelihood(xs + ys, m0, v0, q))
    return stat, max(f1.needed, f0.needed)


def statistic_welch(xs, ys, q):
    """Free means and variances against one shared mean with free variances."""
    fx, fy, f0 = fit_normal(xs, q), fit_normal(ys, q), fit_shared_mean(xs, ys, q)
    (mx, vx), (my, vy), (m0, vx0, vy0) = fx.params, fy.params, f0.params
    l1 = lq_likelihood(xs, mx, vx, q) + lq_likelihood(ys, my, vy, q)
    l0 = lq_likelihood(xs, m0, vx0, q) + lq_likelihood(ys, m0, vy0, q)
    return _ratio(l1, l0), max(fx.needed, fy.needed, f0.needed)


def sandwich_objective(xs, q):
    """Empirical sandwich variance E[psi^2] / E[psi']^2 of the location estimate at q.

    psi is the mu-derivative of ln_q f(x | mu, s2), f^(1-q) (x - mu)/s2, at
    the unconstrained fit; psi' is its mu-derivative.  Returns
    (objective, map evaluations needed).  A zero mean curvature gives inf.
    """
    fit = fit_normal(xs, q)
    mu, s2 = fit.params
    omq = 1.0 - q
    b = c = 0.0
    for v in xs:
        w = math.exp(omq * log_pdf(v, mu, s2))
        z = (v - mu) / s2
        b += (w * z) ** 2
        c += w * (omq * z * z - 1.0 / s2)
    n = len(xs)
    b, c = b / n, c / n
    if c == 0.0:
        return math.inf, fit.needed
    return b / (c * c), fit.needed


def objective_grid(xs):
    """Sandwich objective and needed map evaluations at every grid q."""
    return [sandwich_objective(xs, q) for q in Q_GRID]
