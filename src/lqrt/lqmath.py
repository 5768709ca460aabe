"""Deformed-logarithm primitives for the normal family, and input validation.

The distortion parameter ``q`` interpolates between a robust objective
(q < 1, bounded below) and the plain log-likelihood (q = 1).  Every
function here is elementwise and broadcasts like numpy: scalars in,
scalar out; a (B, n) data block with (B, 1) parameters gives one row per
fit.  These are the functions the fitters, the test statistics and q
selection evaluate.
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


def _paired_differences(x, y, min_len: int, names=("x", "y")) -> np.ndarray:
    # two paired samples, each checked by as_sample, as their differences x - y
    x, y = as_sample(x, min_len, names[0]), as_sample(y, min_len, names[1])
    if x.shape != y.shape:
        raise ValueError("paired samples must have equal length")
    return x - y


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


def lq_log(u, q: float):
    """Deformed logarithm: ln(u) at q = 1, else (u^(1-q) - 1)/(1 - q).

    Exact logarithm branch at q == 1 (no smoothing); for q < 1 the value
    is bounded below by -1/(1-q).  Computed as expm1((1-q) ln u)/(1-q),
    which is the same quantity without the cancellation of the naive
    power form.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("lq_log requires positive input")
    if q == 1.0:
        out = np.log(u)
    else:
        omq = 1.0 - q
        out = np.expm1(omq * np.log(u)) / omq
    return out if out.ndim else float(out)


def _log_pdf(x, mu, sigma2, out=None, sq=None):
    # normal_log_pdf without the sigma2 check, for callers that floor sigma2, written into out (a new
    # array when None); sq, when given, is (x - mu)**2 already computed
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, np.shape(mu), np.shape(sigma2)))
    if sq is None:
        sq = np.square(np.subtract(x, mu, out=out), out=out)
    np.divide(sq, 2.0 * sigma2, out=out)
    return np.subtract(-0.5 * np.log(2.0 * np.pi * sigma2), out, out=out)


def _weight(x, mu, sigma2, q, out=None, sq=None):
    # lq_weight without the sigma2 check, in out as for _log_pdf: the fixed-point driver's per-iteration kernel
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(mu), np.shape(sigma2), np.shape(q)))
    z = _log_pdf(x, mu, sigma2, out, sq)
    np.multiply(1.0 - q, z, out=z)
    return np.exp(z, out=z)


def normal_log_pdf(x, mu, sigma2):
    """Log density of N(mu, sigma2) at x."""
    _check_sigma2(sigma2)
    out = _log_pdf(x, mu, sigma2)
    return out if out.ndim else float(out)


def lq_weight(x, mu, sigma2, q):
    """Per-observation weight f(x|mu,sigma2)^(1-q); q may be an array too.

    Evaluated through the log density so that extreme outliers keep a
    usable (subnormal) weight where the density itself underflows to 0.
    """
    _check_sigma2(sigma2)
    out = _weight(x, mu, sigma2, q)
    return out if np.ndim(out) else float(out)


def _shared_q(q):
    # q as one float when it is a scalar or all its entries are equal, for the faster scalar-q pass
    # (both passes give the same bits); None when the entries differ
    qa = np.asarray(q, dtype=float)
    if qa.ndim == 0:
        return float(qa)
    return float(qa.flat[0]) if qa.size and (qa == qa.flat[0]).all() else None


def _lq_sum(logpdf, q: float):
    # sum of lq_log over the last axis, given the log densities, which it overwrites
    if q == 1.0:
        return logpdf.sum(axis=-1)
    omq = 1.0 - q
    return np.expm1(np.multiply(omq, logpdf, out=logpdf), out=logpdf).sum(axis=-1) / omq


def lq_likelihood(sample, mu, sigma2, q):
    """Sum of lq_log(f(x_i|mu,sigma2)) over the last axis of the sample.

    A float for a 1-D sample, one sum per row for a (B, n) block.  Equals
    the Gaussian log-likelihood at q = 1.  q is a scalar, or a (B, 1)
    column giving each row its own q; a row's sum is then the one the
    scalar would give, bit for bit (the log form where q == 1), and a
    column whose rows all share one q is summed as that scalar.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("lq_likelihood requires a non-empty sample")
    logpdf = normal_log_pdf(sample, mu, sigma2)
    shared = _shared_q(q)
    if shared is not None:
        out = _lq_sum(logpdf, shared)
    else:
        # two groups: the log form where q == 1, one expm1 pass against each row's own 1 - q elsewhere
        q = np.asarray(q, dtype=float)[:, 0]
        out = np.empty(logpdf.shape[0])
        log_rows = q == 1.0
        out[log_rows] = logpdf[log_rows].sum(axis=-1)
        rest = ~log_rows if log_rows.any() else slice(None)
        omq, terms = 1.0 - q[rest], logpdf[rest]
        out[rest] = np.expm1(np.multiply(omq[:, None], terms, out=terms), out=terms).sum(axis=-1) / omq
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
    out = _mu_derivatives(x, mu, sigma2, q)[0]
    return out if np.ndim(out) else float(out)


def lq_curvature_mu(x, mu, sigma2, q):
    """Second mu-derivative of lq_log(f(x|mu,sigma2))."""
    out = _mu_derivatives(x, mu, sigma2, q)[1]
    return out if np.ndim(out) else float(out)
