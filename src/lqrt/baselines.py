"""Classical comparison tests: t family, Wilcoxon signed-rank and rank-sum, sign test.

These are the comparators for the contamination study.  They stand on
their own (no dependency on the reweighting machinery) apart from the
input validation every test in the package shares, and need numpy only.
p-values come from the regularized incomplete beta function, computed
here, the normal CDF, and binomial tails: summed exactly up to 1000
signs, an incomplete beta beyond.  The t-tests take their moments on the
data divided by a power of two near its largest magnitude, so they hold
at any finite scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lqmath import _paired_samples, as_sample, check_finite

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
# Largest count of nonzero signs for which the sign test sums its binomial tail
# exactly; beyond it the tail is an incomplete beta.  The exact sum takes
# 0.4 ms at n = 1000 and 74 s at n = 10^6, the incomplete beta about 1 ms.
_SIGN_EXACT_LIMIT = 1000

# Stirling-series coefficients B_2k / (2k (2k - 1)), k = 1..9: at z >= 8 the next term is below 1e-17.
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
                    -3617 / 122400, 43867 / 244188)
# Stop the continued fraction when a step changes it by a relative amount of at most this.
_CF_TOL = 2.0 ** -52
_CF_TINY = 1e-300
_CF_MAX_TERMS = 100_000


@dataclass(frozen=True)
class ClassicalOutcome:
    statistic: float
    pvalue: float
    method: str


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1].

    The continued fraction of Numerical Recipes (Press et al., section
    6.4) on the side where it converges: I_x(a, b) = 1 - I_{1-x}(b, a)
    for x > (a+1)/(a+b+2).  It is taken in the contracted form of
    TOMS 708's bfrac (DiDonato & Morris 1992), whose partial denominators
    hold lam = a - (a+b) x instead of differences that cancel, and is
    evaluated by the modified Lentz method.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if math.isinf(a) or math.isinf(b):
        raise ValueError("a and b must be finite")
    a, b, x = float(a), float(b), float(x)
    if x == 0.0 or x == 1.0:
        return x
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_fraction(b, a, 1.0 - x)
    return _beta_fraction(a, b, x)


def _beta_fraction(a: float, b: float, x: float) -> float:
    # I_x(a, b) for 0 < x <= (a+1)/(a+b+2), where 1 + lam > 0
    y = 1.0 - x  # exact for x >= 1/2
    # lam from whichever of x and 1 - x is exact, so no rounded a/(a+b) enters it
    lam = a - (a + b) * x if x <= 0.5 else (a + b) * y - b
    front = _beta_power(a, b, x, lam)
    f = c = a * (1.0 + lam) / (a + 1.0)
    d = 0.0
    for n in range(1, _CF_MAX_TERMS):
        s = a + 2 * n - 1.0
        alpha = (a + n - 1.0) / s * ((a + b + n - 1.0) / s) * n * (b - n) * x * x
        beta = n + n * (b - n) * x / s + (a + n) * (1.0 + lam + n * (1.0 + y)) / (s + 2.0)
        d = 1.0 / _off_zero(beta + alpha * d)
        c = _off_zero(beta + alpha / c)
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _CF_TOL:
            return front / f
    raise ArithmeticError(f"the incomplete beta fraction did not converge at a={a!r}, b={b!r}, x={x!r}")


def _off_zero(v: float) -> float:
    # a Lentz denominator moved off zero, as the modified method does
    return v if abs(v) > _CF_TINY else _CF_TINY


def _beta_power(a: float, b: float, x: float, lam: float) -> float:
    """x^a (1-x)^b / B(a, b), after TOMS 708's brcomp.

    For a, b >= 8 through Stirling's series in lam = a - (a+b) x, so no
    large logarithms cancel; below that as exp(a ln x + b ln(1-x) - ln B(a, b)).
    """
    y = 1.0 - x
    if min(a, b) >= 8.0:
        x0, y0 = a / (a + b), b / (a + b)
        e = -lam / a
        u = _rlog1(e) if abs(e) <= 0.6 else e - math.log(x / x0)
        e = lam / b
        v = _rlog1(e) if abs(e) <= 0.6 else e - math.log(y / y0)
        return math.sqrt(b * x0 / (2.0 * math.pi)) * math.exp(
            -(a * u + b * v) - (_stirling(a) + _stirling(b) - _stirling(a + b)))
    if x <= 0.5:
        log_x, log_y = math.log(x), math.log1p(-x)
    else:
        log_x, log_y = math.log1p(-y), math.log(y)
    # the exponent reaches -745 in the t-tests' tails: hold it as an exact sum, so that
    # rounding it costs no more than one ulp of the result
    parts = [*_two_product(a, log_x), *_two_product(b, log_y), -_log_beta(a, b)]
    z = math.fsum(parts)
    return math.exp(z) * (1.0 + math.fsum([*parts, -z]))


def _two_product(p: float, q: float) -> tuple[float, float]:
    """(h, l) with h + l = p q exactly (Dekker's product, by Veltkamp's split)."""
    h = p * q
    p_hi, p_lo = _split(p)
    q_hi, q_lo = _split(q)
    return h, ((p_hi * q_hi - h) + p_hi * q_lo + p_lo * q_hi) + p_lo * q_lo


def _split(v: float) -> tuple[float, float]:
    t = 134217729.0 * v  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for min(a, b) < 8."""
    a, b = min(a, b), max(a, b)
    if b < 8.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # ln G(b) - ln G(a+b) by Stirling's series, not as a difference of two large lgammas (TOMS 708's algdiv)
    return (math.lgamma(a) + _stirling(b) - _stirling(a + b)
            + a * (1.0 - math.log(b)) - (a + b - 0.5) * math.log1p(a / b))


def _stirling(z: float) -> float:
    """ln G(z) - (z - 1/2) ln z + z - ln(2 pi)/2 for z >= 8, from Stirling's series."""
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING_COEFFS):
        s = s * w + c
    return s / z


def _rlog1(e: float) -> float:
    """e - ln(1 + e) for |e| <= 0.6, without the cancellation of the direct difference.

    With r = e / (2 + e), ln(1 + e) = 2 atanh(r), so e - ln(1 + e) =
    r e - 2 (r^3/3 + r^5/5 + ...).
    """
    r = e / (2.0 + e)
    r2 = r * r
    power, k, s = r2, 3, 0.0
    while True:
        term = power / k
        s += term
        if term <= 1e-17 * s:
            return r * e - 2.0 * r * s
        power *= r2
        k += 2


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


def _unit_scale(*samples: np.ndarray) -> tuple[list[np.ndarray], int]:
    """The samples divided by 2^e, with 2^(e-1) <= their largest magnitude < 2^e, and e.

    Dividing by a power of two is exact, so moments taken after it are those
    of the data scaled by 2^-e bit for bit, while squares of the data can
    neither overflow nor underflow.
    """
    _, e = math.frexp(float(max(np.max(np.abs(s), initial=0.0) for s in samples)))
    return [np.ldexp(s, -e) for s in samples], e


def _scaled_differences(x, y, min_len: int) -> np.ndarray:
    # the paired differences x - y, taken on both samples divided by one power of two so that they
    # cannot overflow; the division is exact, so the t statistic and the ranks keep their bits
    (x, y), _ = _unit_scale(*_paired_samples(x, y, min_len))
    return x - y


def _mean_var(x: np.ndarray):
    # the mean and unbiased variance; a constant sample's are its value and exactly 0, where the
    # rounding of its mean would leave a variance near 1e-32 of its square
    if x.min() == x.max():
        return x[0], 0.0
    return x.mean(), x.var(ddof=1)


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
    (x,), e = _unit_scale(x)
    try:
        mu0 = math.ldexp(mu0, -e)
    except OverflowError:  # mu0 exceeds the data by more than 2^1023: t is infinite
        mu0 = math.copysign(math.inf, mu0)
    n = x.size
    mean, var = _mean_var(x)
    if var == 0.0:
        if mean == mu0:
            return ClassicalOutcome(0.0, 1.0, "t_1samp")
        return ClassicalOutcome(math.copysign(math.inf, mean - mu0), 0.0, "t_1samp")
    t = (mean - mu0) / math.sqrt(var / n)
    return ClassicalOutcome(t, _t_two_sided(t, n - 1), "t_1samp")


def ttest_rel(x, y) -> ClassicalOutcome:
    """Paired t-test: one-sample t-test of the differences against 0."""
    out = ttest_1samp(_scaled_differences(x, y, 2), 0.0)
    return ClassicalOutcome(out.statistic, out.pvalue, "t_rel")


def ttest_ind(x, y, equal_var: bool = True) -> ClassicalOutcome:
    """Two-sided unpaired t-test: pooled (Student) or unpooled (Welch)."""
    x = as_sample(x, 2, "x")
    y = as_sample(y, 2, "y")
    (x, y), _ = _unit_scale(x, y)
    n, m = x.size, y.size
    method = "t_ind_pooled" if equal_var else "t_ind_welch"
    (mx, vx), (my, vy) = _mean_var(x), _mean_var(y)
    diff = mx - my
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
        # df is free of the scale of (sx, sy), whose squares underflow when one sample is constant
        # and the other's spread is far below it: divide both by a power of two first.  Squares are
        # products, not pow(), which is not always correctly rounded and so not exact under that scaling.
        _, e = np.frexp(max(sx, sy))
        sx, sy = np.ldexp(sx, -e), np.ldexp(sy, -e)
        df = (sx + sy) * (sx + sy) / (sx * sx / (n - 1) + sy * sy / (m - 1))
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
    d = as_sample(x, 0, "x") if y is None else _scaled_differences(x, y, 0)
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
    k = max(above, n - above)
    tail = binomial_tail(n, k) if n <= _SIGN_EXACT_LIMIT else regularized_incomplete_beta(k, n - k + 1, 0.5)
    return ClassicalOutcome(above - n / 2.0, min(1.0, 2.0 * tail), "sign")
