"""Deformed-logarithm primitives for the normal family, and input validation.

The distortion parameter ``q`` interpolates between a robust objective
(q < 1, bounded below) and the plain log-likelihood (q = 1).  Every
function here is elementwise and broadcasts like numpy: scalars in,
scalar out; a (B, n) data block with (B, 1) parameters, q among them,
gives one row per fit.  The weights and the Lq-likelihood both come from
one kernel, s log f(x | mu, sigma2) with s = 1 - q, in one pass for any
mix of q.  The fitters, the test statistics and q selection evaluate it
through private forms that check neither sigma2 nor q.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_sample",
    "check_finite",
    "check_count",
    "lq_log",
    "normal_log_pdf",
    "lq_weight",
    "lq_likelihood",
    "lq_score_mu",
    "lq_curvature_mu",
]


def as_sample(x, min_len: int, name: str = "sample") -> np.ndarray:
    """Coerce to a 1-D float array of finite values of at least min_len entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_len:
        raise ValueError(f"{name} must hold at least {min_len} observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def _paired_samples(x, y, min_len: int, names=("x", "y")) -> tuple[np.ndarray, np.ndarray]:
    # two paired samples, each checked by as_sample, of equal length
    x, y = as_sample(x, min_len, names[0]), as_sample(y, min_len, names[1])
    if x.shape != y.shape:
        raise ValueError("paired samples must have equal length")
    return x, y


def _difference(x, y, names) -> np.ndarray:
    # x - y of finite values (y a sample or a null value); a ValueError naming both when one overflows
    with np.errstate(over="ignore"):
        d = np.subtract(x, y)
    if not np.isfinite(d).all():
        raise ValueError(f"{names[0]} - {names[1]} overflows")
    return d


def _number(value, name: str, rule: str, ok) -> float:
    # value as a float when it converts to one that ok accepts; otherwise a ValueError naming the argument
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not ok(number):
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return number


def check_q(q: float) -> float:
    """Validate the distortion parameter: a number with 0 < q <= 1, returned as a float."""
    return _number(q, "q", "satisfy 0 < q <= 1", lambda v: 0.0 < v <= 1.0)


def _q_array(q) -> np.ndarray:
    # q, a scalar or an array, as a float array; check_q's ValueError when an entry is not in (0, 1]
    q = np.asarray(q, dtype=float)
    bad = ~((q > 0.0) & (q <= 1.0))
    if bad.any():
        check_q(float(q[bad][0]))
    return q


def check_finite(value, name: str) -> float:
    """Validate a null value such as mu0: a finite number, returned as a float."""
    return _number(value, name, "be finite", math.isfinite)


def check_alpha(alpha) -> float:
    """Validate a significance level: a number with 0 < alpha < 1, returned as a float."""
    return _number(alpha, "alpha", "lie in (0, 1)", lambda v: 0.0 < v < 1.0)


def check_eps(eps) -> float:
    """Validate a contamination level of the gross-error model: a number in [0, 0.5), returned as a float."""
    return _number(eps, "eps", "lie in [0, 0.5)", lambda v: 0.0 <= v < 0.5)


def check_count(value, name: str, minimum: int = 1) -> int:
    """Validate a count such as bootstrap, reps or n: a whole number of at least minimum."""
    rule = f"be a whole number of at least {minimum}"
    return int(_number(value, name, rule, lambda v: v.is_integer() and v >= minimum))


def _check_sigma2(sigma2):
    if (np.asarray(sigma2) <= 0.0).any():
        raise ValueError("sigma2 must be positive")


def lq_log(u, q):
    """Deformed logarithm: ln(u) at q = 1, else (u^(1-q) - 1)/(1 - q); q may be an array too.

    Exact logarithm where q == 1 (no smoothing); for q < 1 the value is
    bounded below by -1/(1-q).  Computed as expm1(s ln u)/s with s = 1 - q,
    which is the same quantity without the cancellation of the naive
    power form.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("lq_log requires positive input")
    q = _q_array(q)
    s = np.where(q == 1.0, 1.0, 1.0 - q)
    out = np.asarray(s * np.log(u))
    np.expm1(out, out=out, where=q != 1.0)
    out /= s
    return out if out.ndim else float(out)


def _scaled_log_pdf(x, mu, sigma2, s, out=None, sq=None):
    # s * log N(x | mu, sigma2) as c - k (x - mu)^2, with c = -(s/2) log(2 pi sigma2) and k = s / (2 sigma2)
    # formed once per row; multiplying by k makes s = 0 give 0, not a division by zero.  No sigma2 check,
    # for callers that floor sigma2.  Written into out (a new array when None); sq, when given, is (x - mu)**2.
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(np.broadcast(x, mu, sigma2, s).shape)
    if sq is None:
        sq = np.square(np.subtract(x, mu, out=out), out=out)
    np.multiply(sq, s / (2.0 * sigma2), out=out)
    return np.subtract(-0.5 * s * np.log(2.0 * np.pi * sigma2), out, out=out)


def _weight(x, mu, sigma2, q, out=None, sq=None):
    # lq_weight without the sigma2 check, in out as for _scaled_log_pdf: the fixed-point driver's kernel
    z = _scaled_log_pdf(x, mu, sigma2, 1.0 - q, out, sq)
    return np.exp(z, out=z)


def normal_log_pdf(x, mu, sigma2):
    """Log density of N(mu, sigma2) at x."""
    _check_sigma2(sigma2)
    out = -0.5 * np.log(2.0 * np.pi * sigma2) - np.subtract(x, mu, dtype=float) ** 2 / (2.0 * sigma2)
    return out if out.ndim else float(out)


def lq_weight(x, mu, sigma2, q):
    """Per-observation weight f(x|mu,sigma2)^(1-q); q may be an array too.

    Evaluated through the log density so that extreme outliers keep a
    usable (subnormal) weight where the density itself underflows to 0.
    """
    _check_sigma2(sigma2)
    out = _weight(x, mu, sigma2, _q_array(q))
    return out if np.ndim(out) else float(out)


def lq_likelihood(sample, mu, sigma2, q):
    """Sum of lq_log(f(x_i|mu,sigma2)) over the last axis of the sample.

    A float for a 1-D sample, one sum per row for a (B, n) block.  Equals
    the Gaussian log-likelihood at q = 1.  q is a scalar, or a (B, 1)
    column giving each row its own q; a row's sum is the one its own q
    would give, bit for bit.  Each term is expm1(s log f) / s with
    s = 1 - q, and log f itself where q = 1.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("lq_likelihood requires a non-empty sample")
    _check_sigma2(sigma2)
    q = _q_array(q)
    s = np.where(q == 1.0, 1.0, 1.0 - q)
    terms = _scaled_log_pdf(sample, mu, sigma2, s)
    np.expm1(terms, out=terms, where=q < 1.0)  # the log form stays where q = 1
    out = (terms.sum(axis=-1, keepdims=True) / s)[..., 0]
    return out if np.ndim(out) else float(out)


def _mu_derivatives(x, mu, sigma2, q):
    # the first and second mu-derivatives of lq_log(f(x|mu,sigma2)), from one weight evaluation
    _check_sigma2(sigma2)
    x = np.asarray(x, dtype=float)
    w = _weight(x, mu, sigma2, q)
    z = (x - mu) / sigma2
    return w * z, w * ((1.0 - q) * z ** 2 - 1.0 / sigma2)


def lq_score_mu(x, mu, sigma2, q):
    """First mu-derivative of lq_log(f(x|mu,sigma2)): weight times Gaussian score."""
    out = _mu_derivatives(x, mu, sigma2, _q_array(q))[0]
    return out if np.ndim(out) else float(out)


def lq_curvature_mu(x, mu, sigma2, q):
    """Second mu-derivative of lq_log(f(x|mu,sigma2))."""
    out = _mu_derivatives(x, mu, sigma2, _q_array(q))[1]
    return out if np.ndim(out) else float(out)
