"""Independent reference implementations used only by the tests.

Everything here is written in plain Python (math module, lists, loops)
directly from the defining formulas, so agreement with the package is a
genuine cross-check rather than the same code exercised twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

FLOOR = 2.220446049250313e-16


def _variance(xs, mu=None):
    """The exact variance of xs about mu (about their exact mean when mu is None)."""
    xs = [Fraction(v) for v in xs]
    m = sum(xs) / len(xs) if mu is None else Fraction(mu)
    return sum((v - m) ** 2 for v in xs) / len(xs)


def _floor(floor, *variances):
    """floor times the largest maximum-likelihood variance, or floor itself where that is 0."""
    relative = floor * float(max(variances))
    return relative if relative > 0.0 else floor


def _logpdf(x, mu, s2):
    return -0.5 * math.log(2.0 * math.pi * s2) - (x - mu) ** 2 / (2.0 * s2)


def _weights(xs, mu, s2, q):
    return [math.exp((1.0 - q) * _logpdf(v, mu, s2)) for v in xs]


def fit_normal_oracle(xs, q, tol=1e-12, max_iter=50000, floor=FLOOR):
    xs = [float(v) for v in xs]
    n = len(xs)
    mu = sum(xs) / n
    s2 = sum((v - mu) ** 2 for v in xs) / n
    floor = _floor(floor, _variance(xs))
    s2 = max(s2, floor)
    for _ in range(max_iter):
        w = _weights(xs, mu, s2, q)
        sw = sum(w)
        mu_new = sum(wi * vi for wi, vi in zip(w, xs)) / sw
        s2_new = max(sum(wi * (vi - mu_new) ** 2 for wi, vi in zip(w, xs)) / sw, floor)
        d_mu = abs(mu_new - mu) / max(math.sqrt(s2_new), 1e-12)
        d_s2 = abs(s2_new - s2) / s2_new
        mu, s2 = mu_new, s2_new
        if d_mu < tol and d_s2 < tol:
            break
    return mu, s2


def fit_known_mean_oracle(xs, mu, q, tol=1e-12, max_iter=50000, floor=FLOOR):
    xs = [float(v) for v in xs]
    n = len(xs)
    floor = _floor(floor, _variance(xs, mu))
    s2 = max(sum((v - mu) ** 2 for v in xs) / n, floor)
    for _ in range(max_iter):
        w = _weights(xs, mu, s2, q)
        sw = sum(w)
        s2_new = max(sum(wi * (vi - mu) ** 2 for wi, vi in zip(w, xs)) / sw, floor)
        d_s2 = abs(s2_new - s2) / s2_new
        s2 = s2_new
        if d_s2 < tol:
            break
    return mu, s2


def fit_shared_variance_oracle(xs, ys, q, tol=1e-12, max_iter=50000, floor=FLOOR):
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n, m = len(xs), len(ys)
    mx = sum(xs) / n
    my = sum(ys) / m
    s2 = (sum((v - mx) ** 2 for v in xs) + sum((v - my) ** 2 for v in ys)) / (n + m)
    floor = _floor(floor, (_variance(xs) * n + _variance(ys) * m) / (n + m))
    s2 = max(s2, floor)
    for _ in range(max_iter):
        wx = _weights(xs, mx, s2, q)
        wy = _weights(ys, my, s2, q)
        swx, swy = sum(wx), sum(wy)
        mx_new = sum(wi * vi for wi, vi in zip(wx, xs)) / swx
        my_new = sum(wi * vi for wi, vi in zip(wy, ys)) / swy
        s2_new = (
            sum(wi * (vi - mx_new) ** 2 for wi, vi in zip(wx, xs))
            + sum(wi * (vi - my_new) ** 2 for wi, vi in zip(wy, ys))
        ) / (swx + swy)
        s2_new = max(s2_new, floor)
        scale = max(math.sqrt(s2_new), 1e-12)
        done = (
            abs(mx_new - mx) / scale < tol
            and abs(my_new - my) / scale < tol
            and abs(s2_new - s2) / s2_new < tol
        )
        mx, my, s2 = mx_new, my_new, s2_new
        if done:
            break
    return mx, my, s2


def fit_shared_mean_oracle(xs, ys, q, tol=1e-12, max_iter=50000, floor=FLOOR):
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n, m = len(xs), len(ys)
    mu = (sum(xs) + sum(ys)) / (n + m)
    exact_mu = (sum(map(Fraction, xs)) + sum(map(Fraction, ys))) / (n + m)
    floor = _floor(floor, _variance(xs, exact_mu), _variance(ys, exact_mu))
    s2x = max(sum((v - mu) ** 2 for v in xs) / n, floor)
    s2y = max(sum((v - mu) ** 2 for v in ys) / m, floor)
    for _ in range(max_iter):
        wx = _weights(xs, mu, s2x, q)
        wy = _weights(ys, mu, s2y, q)
        swx, swy = sum(wx), sum(wy)
        mu_new = (
            sum(wi * vi for wi, vi in zip(wx, xs)) + sum(wi * vi for wi, vi in zip(wy, ys))
        ) / (swx + swy)
        s2x_new = max(sum(wi * (vi - mu_new) ** 2 for wi, vi in zip(wx, xs)) / swx, floor)
        s2y_new = max(sum(wi * (vi - mu_new) ** 2 for wi, vi in zip(wy, ys)) / swy, floor)
        scale = max(math.sqrt(max(s2x_new, s2y_new)), 1e-12)
        done = (
            abs(mu_new - mu) / scale < tol
            and abs(s2x_new - s2x) / s2x_new < tol
            and abs(s2y_new - s2y) / s2y_new < tol
        )
        mu, s2x, s2y = mu_new, s2x_new, s2y_new
        if done:
            break
    return mu, s2x, s2y


def lq_likelihood_oracle(xs, mu, s2, q):
    if q == 1.0:
        return sum(_logpdf(v, mu, s2) for v in xs)
    omq = 1.0 - q
    return sum((math.exp(omq * _logpdf(v, mu, s2)) - 1.0) / omq for v in xs)


def select_q_oracle(xs):
    """Brute-force grid evaluation of the sandwich-variance objective."""
    grid = [i / 100.0 for i in range(50, 101)]
    objectives = []
    for q in grid:
        mu, s2 = fit_normal_oracle(xs, q)
        w = _weights(xs, mu, s2, q)
        score = [wi * (v - mu) / s2 for wi, v in zip(w, xs)]
        curv = [wi * ((1.0 - q) * ((v - mu) / s2) ** 2 - 1.0 / s2) for wi, v in zip(w, xs)]
        b = sum(s * s for s in score) / len(xs)
        mc = sum(curv) / len(xs)
        objectives.append(math.inf if mc == 0.0 else (1.0 / mc) * b * (1.0 / mc))
    best = 0
    for i in range(1, len(grid)):
        if objectives[i] <= objectives[best]:
            best = i
    return grid[best], grid, objectives


def t_pvalue_quadrature(t, df):
    """Two-sided Student-t p-value by adaptive quadrature of the density."""
    from scipy.integrate import quad

    const = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)

    def density(u):
        return const * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    body, _ = quad(density, 0.0, abs(t), epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 * (0.5 - body)


def midranks_oracle(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def signed_rank_enum_pvalue(diffs):
    """Exact two-sided signed-rank p-value by enumerating all sign patterns."""
    d = [float(v) for v in diffs if v != 0.0]
    if not d:
        return 1.0
    ranks = midranks_oracle([abs(v) for v in d])
    w_plus = sum(r for r, v in zip(ranks, d) if v > 0)
    w_minus = sum(r for r, v in zip(ranks, d) if v < 0)
    w = min(w_plus, w_minus)
    count = 0
    for signs in product((0, 1), repeat=len(d)):
        if sum(r for r, s in zip(ranks, signs) if s) <= w + 1e-12:
            count += 1
    return min(1.0, 2.0 * count / 2 ** len(d))


def sign_test_exact_pvalue(x, mu0):
    """Exact sign-test p-value as a rational number."""
    above = sum(1 for v in x if v > mu0)
    below = sum(1 for v in x if v < mu0)
    n = above + below
    if n == 0:
        return 1.0
    upper = sum(math.comb(n, i) for i in range(above, n + 1))
    lower = sum(math.comb(n, i) for i in range(0, above + 1))
    p = 2 * min(Fraction(upper, 2**n), Fraction(lower, 2**n))
    return float(min(p, Fraction(1)))
