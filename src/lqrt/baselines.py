"""Classical comparison tests: t family, Wilcoxon signed-rank and rank-sum, sign test.

These are the comparators for the contamination study.  They stand on
their own (no dependency on the reweighting machinery) apart from the
input validation every test in the package shares; p-values come from
the regularized incomplete beta function, the normal CDF, and exact
binomial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lqmath import _paired_differences, as_sample, check_finite

__all__ = [
    "ClassicalOutcome",
    "ttest_1samp",
    "ttest_rel",
    "ttest_ind",
    "wilcoxon_signed_rank",
    "rank_sum",
    "sign_test",
    "regularized_incomplete_beta",
    "normal_cdf",
    "binomial_tail",
]

# Largest count of nonzero differences for which the signed-rank null
# distribution is enumerated exactly; beyond it the tie-corrected normal
# approximation with continuity correction takes over.
_SIGNED_RANK_EXACT_LIMIT = 25


@dataclass(frozen=True)
class ClassicalOutcome:
    statistic: float
    pvalue: float
    method: str


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    # imported here, not at start-up: scipy takes longer to load than the
    # rest of the package, and only the t-tests need it
    from scipy import special

    return float(special.betainc(a, b, x))


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def binomial_tail(n: int, k: int) -> float:
    """P(K >= k) for K ~ Binomial(n, 1/2), computed as an exact rational."""
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    term = total = math.comb(n, k)
    for i in range(k, n):
        term = term * (n - i) // (i + 1)  # C(n, i + 1), exactly
        total += term
    return total / 2**n


def _t_two_sided(t: float, df: float) -> float:
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def ttest_1samp(x, mu0: float) -> ClassicalOutcome:
    """Two-sided one-sample Student t-test of H0: mean = mu0.

    Degenerate zero-variance samples give p = 1 when the mean already
    equals mu0 and p = 0 otherwise.
    """
    x = as_sample(x, 2, "x")
    mu0 = check_finite(mu0, "mu0")
    n = x.size
    mean = x.mean()
    var = x.var(ddof=1)
    if var == 0.0:
        if mean == mu0:
            return ClassicalOutcome(0.0, 1.0, "t_1samp")
        return ClassicalOutcome(math.copysign(math.inf, mean - mu0), 0.0, "t_1samp")
    t = (mean - mu0) / math.sqrt(var / n)
    return ClassicalOutcome(t, _t_two_sided(t, n - 1), "t_1samp")


def ttest_rel(x, y) -> ClassicalOutcome:
    """Paired t-test: one-sample t-test of the differences against 0."""
    out = ttest_1samp(_paired_differences(x, y, 2), 0.0)
    return ClassicalOutcome(out.statistic, out.pvalue, "t_rel")


def ttest_ind(x, y, equal_var: bool = True) -> ClassicalOutcome:
    """Two-sided unpaired t-test: pooled (Student) or unpooled (Welch)."""
    x = as_sample(x, 2, "x")
    y = as_sample(y, 2, "y")
    n, m = x.size, y.size
    method = "t_ind_pooled" if equal_var else "t_ind_welch"
    vx, vy = x.var(ddof=1), y.var(ddof=1)
    diff = x.mean() - y.mean()
    if vx == 0.0 and vy == 0.0:
        if diff == 0.0:
            return ClassicalOutcome(0.0, 1.0, method)
        return ClassicalOutcome(math.copysign(math.inf, diff), 0.0, method)
    if equal_var:
        pooled = ((n - 1) * vx + (m - 1) * vy) / (n + m - 2)
        t = diff / math.sqrt(pooled * (1.0 / n + 1.0 / m))
        df = n + m - 2
    else:
        sx, sy = vx / n, vy / m
        t = diff / math.sqrt(sx + sy)
        df = (sx + sy) ** 2 / (sx**2 / (n - 1) + sy**2 / (m - 1))
    return ClassicalOutcome(t, _t_two_sided(t, df), method)


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.arange(1, values.size + 1, dtype=float)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    return (sums / counts)[inverse]


def _signed_rank_cdf_le(ranks: np.ndarray, w: float) -> float:
    """P(W+ <= w) over equiprobable sign assignments, by convolution.

    Mid-ranks are half-integral, so everything is doubled to stay on an
    integer lattice.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    weights = np.zeros(total + 1, dtype=float)
    weights[0] = 1.0
    top = 0
    for r in doubled:
        shifted = np.zeros_like(weights)
        shifted[r : top + r + 1] = weights[: top + 1]
        top += r
        weights[: top + 1] = (weights[: top + 1] + shifted[: top + 1]) * 0.5
    limit = int(math.floor(2.0 * w + 1e-9))
    return float(weights[: limit + 1].sum())


def wilcoxon_signed_rank(x, y=None) -> ClassicalOutcome:
    """Wilcoxon signed-rank test on differences (or on x alone, against 0).

    Zero differences are dropped; absolute values are mid-ranked.  The
    statistic is min(W+, W-).  Exact two-sided tail up to 25 nonzero
    differences, tie-corrected normal approximation with continuity
    correction beyond.
    """
    d = as_sample(x, 0, "x") if y is None else _paired_differences(x, y, 0)
    d = d[d != 0.0]
    if d.size == 0:
        return ClassicalOutcome(0.0, 1.0, "wilcoxon_signed_rank")

    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    n = d.size

    if n <= _SIGNED_RANK_EXACT_LIMIT:
        pvalue = min(1.0, 2.0 * _signed_rank_cdf_le(ranks, w))
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, counts = np.unique(np.abs(d), return_counts=True)
        var -= float(np.sum(counts**3 - counts)) / 48.0
        z = (w - mean + 0.5) / math.sqrt(var)
        pvalue = min(1.0, 2.0 * normal_cdf(z))
    return ClassicalOutcome(w, pvalue, "wilcoxon_signed_rank")


def rank_sum(x, y) -> ClassicalOutcome:
    """Wilcoxon rank-sum z-test with mid-ranks, no continuity correction."""
    x = as_sample(x, 1, "x")
    y = as_sample(y, 1, "y")
    n, m = x.size, y.size
    ranks = _midranks(np.concatenate([x, y]))
    w = float(ranks[:n].sum())
    mean = n * (n + m + 1) / 2.0
    var = n * m * (n + m + 1) / 12.0
    z = (w - mean) / math.sqrt(var)
    return ClassicalOutcome(z, min(1.0, 2.0 * normal_cdf(-abs(z))), "rank_sum")


def sign_test(x, mu0: float) -> ClassicalOutcome:
    """Exact two-sided sign test of H0: median = mu0.

    Observations equal to mu0 are discarded; the statistic is the count
    above mu0 centered at its null mean.
    """
    x = as_sample(x, 1, "x")
    mu0 = check_finite(mu0, "mu0")
    above = int(np.count_nonzero(x > mu0))
    below = int(np.count_nonzero(x < mu0))
    n = above + below
    if n == 0:
        return ClassicalOutcome(0.0, 1.0, "sign")
    # P(K >= above) and P(K <= above) = P(K >= n - above) by symmetry; the smaller tail starts at the larger count
    tail = binomial_tail(n, max(above, n - above))
    return ClassicalOutcome(above - n / 2.0, min(1.0, 2.0 * tail), "sign")
