"""Iterative-reweighting maximum Lq-likelihood fitters for the normal family.

Every fit is one fixed-point map.  Each observation gets the weight
w_i = f(x_i | mu, sigma2)^(1-q) at the current parameters, and the
parameters move to the weighted means and weighted variances under those
weights.  The start is the same update with unit weights, i.e. the
maximum-likelihood fit.  Variances are floored so the recursion cannot
collapse onto a single observation.

The four variants differ only in their constraint: which mean and which
variance each sample block uses, and whether the mean is pinned.

- `batch_fit_normal`: one block, free mean and variance.
- `batch_fit_variance_known_mean`: one block, mean pinned.
- `batch_fit_shared_variance`: two blocks, two means, one variance.
- `batch_fit_shared_mean`: two blocks, one mean, two variances.

One driver, `_fixed_point`, runs all of them on many independent rows in
lockstep, which is what makes the bootstrap loops and the q grid
affordable.  The public fitters operate on one sample (or one pair) as
the batch-of-one case, so both paths share the same numerics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lqmath import _weight, as_sample, check_count, check_finite, check_q

__all__ = [
    "VARIANCE_FLOOR",
    "FitConfig",
    "DEFAULT_CONFIG",
    "NormalFit",
    "SharedVarianceFit",
    "SharedMeanFit",
    "fit_normal",
    "fit_variance_known_mean",
    "fit_shared_variance",
    "fit_shared_mean",
    "variance_bias_correction",
]

# 64-bit machine epsilon: the smallest variance the recursion may report.
VARIANCE_FLOOR = float(np.finfo(np.float64).eps)

# Scale guard when normalizing mean steps by sigma on degenerate fits.
_MEAN_SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Convergence control: relative tolerance and iteration cap."""

    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "max_iter", check_count(self.max_iter, "max_iter"))


DEFAULT_CONFIG = FitConfig()


@dataclass(frozen=True)
class NormalFit:
    mu: float
    sigma2: float
    iterations: int
    converged: bool
    clipped: bool


@dataclass(frozen=True)
class SharedVarianceFit:
    mu_x: float
    mu_y: float
    sigma2: float
    iterations: int
    converged: bool
    clipped: bool


@dataclass(frozen=True)
class SharedMeanFit:
    mu: float
    sigma2_x: float
    sigma2_y: float
    iterations: int
    converged: bool
    clipped: bool


def _q_column(q, nrows: int):
    """q as a scalar, or one value per row shaped (nrows, 1) against a data block."""
    qa = np.asarray(q, dtype=float)
    if qa.ndim == 0:
        return float(qa)
    if qa.shape != (nrows,):
        raise ValueError("per-row q must match the number of rows")
    return qa[:, None]


def _pooled(nums, dens, group):
    # sum of nums over the blocks in group / the same sum of dens, in block order
    num, den = nums[group[0]], dens[group[0]]
    for k in group[1:]:
        num, den = num + nums[k], den + dens[k]
    return num / den


def _fixed_point(blocks, mean_of, var_of, q, cfg: FitConfig, pinned_mu=None):
    """Run the reweighting map on every row of the data blocks until each settles.

    Block k (shape (B, n_k)) is modelled as N(mu[mean_of[k]], s2[var_of[k]]);
    blocks that share an index share that parameter.  With pinned_mu (scalar
    or per row) the single mean is held there instead of fit.  A row stops
    when every mean moves less than tol largest standard deviations and every
    variance less than tol relative, when all weights of a block underflow
    (the previous iterate is kept and the row counts as clipped), or at
    max_iter.  Returns (means, variances, iterations, converged, clipped) with
    means and variances as lists of (B,) arrays.
    """
    blocks = [np.asarray(x, dtype=float) for x in blocks]
    B = blocks[0].shape[0]
    q_a = _q_column(q, B)
    per_row_q = np.ndim(q_a) > 0
    floor, tol = VARIANCE_FLOOR, cfg.tol
    mean_groups = [[k for k, i in enumerate(mean_of) if i == j] for j in range(max(mean_of) + 1)]
    var_groups = [[k for k, i in enumerate(var_of) if i == j] for j in range(max(var_of) + 1)]

    # With the mean pinned, the map reads the data only through the squared
    # deviations from it, so those are computed once and stand in for the data.
    pinned, data = [], blocks
    if pinned_mu is not None:
        pinned = [np.broadcast_to(np.asarray(pinned_mu, dtype=float), (B,)).astype(float, copy=True)]
        data = [(x - pinned[0][:, None]) ** 2 for x in blocks]

    def update(xs, w, sw, mus):
        # weighted means, then weighted variances about them; xs holds squared deviations when pinned
        if pinned:
            dev = [(wk * d).sum(axis=1) for wk, d in zip(w, xs)]
        else:
            sums = [(wk * xk).sum(axis=1) for wk, xk in zip(w, xs)]
            mus = [_pooled(sums, sw, g) for g in mean_groups]
            dev = [(wk * (xk - mus[i][:, None]) ** 2).sum(axis=1) for wk, xk, i in zip(w, xs, mean_of)]
        return mus, [_pooled(dev, sw, g) for g in var_groups]

    # The start is the same update with unit weights: the maximum-likelihood fit.
    means, s2 = update(data, [1.0] * len(blocks), [float(x.shape[1]) for x in blocks], pinned)
    clipped = functools.reduce(np.logical_or, [v < floor for v in s2])
    s2 = [np.maximum(v, floor) for v in s2]
    iterations = np.zeros(B, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)

    # Rows still iterating are kept compact: their ids, data, parameters, q
    # and clip flags.  A row that finishes is written out and dropped.  Each
    # block's weights are built in one buffer, whose leading rows are the
    # rows still iterating.
    idx, xa, mu_a, s2_a, clip_a = np.arange(B), list(data), means, s2, clipped.copy()
    del data  # so that a pinned fit's squared deviations are freed as their rows finish
    buffers = [np.empty(x.shape) for x in blocks]
    for step in range(1, cfg.max_iter + 1):
        # the floor keeps every variance positive, so the weights skip lq_weight's check
        w = [
            _weight(x, mu_a[i][:, None], s2_a[j][:, None], q_a, buf[:len(idx)], x if pinned else None)
            for x, buf, i, j in zip(xa, buffers, mean_of, var_of)
        ]
        sw = [wk.sum(axis=1) for wk in w]
        stuck = functools.reduce(np.logical_or, [s == 0.0 for s in sw])
        any_stuck = stuck.any()
        if any_stuck:
            for s in sw:
                s[stuck] = 1.0
        mu_new, s2_new = update(xa, w, sw, mu_a)
        clip_a |= functools.reduce(np.logical_or, [v < floor for v in s2_new])
        s2_new = [np.maximum(v, floor) for v in s2_new]
        if any_stuck:
            # all weights of a block underflowed: the row keeps its previous
            # iterate, counts as clipped and stops unconverged
            for new, old in zip(mu_new + s2_new, mu_a + s2_a):
                new[stuck] = old[stuck]
            clip_a |= stuck

        done = functools.reduce(
            np.logical_and, [np.abs(new - old) / new < tol for new, old in zip(s2_new, s2_a)]
        )
        if pinned_mu is None:
            scale = np.maximum(np.sqrt(functools.reduce(np.maximum, s2_new)), _MEAN_SCALE_FLOOR)
            for new, old in zip(mu_new, mu_a):
                done &= np.abs(new - old) / scale < tol
        if any_stuck:
            done &= ~stuck

        finished = done | stuck
        if step == cfg.max_iter:
            finished[:] = True
        if finished.any():
            rows = idx[finished]
            for par, new in zip(means + s2, mu_new + s2_new):
                par[rows] = new[finished]
            iterations[rows] = step
            converged[rows] = done[finished]
            clipped[rows] = clip_a[finished]
            if finished.all():
                break
            left = ~finished
            idx, clip_a = idx[left], clip_a[left]
            for k in range(len(xa)):
                xa[k] = xa[k][left]  # block by block: beside the weight buffers, one block is held twice at most
            mu_new, s2_new = [m[left] for m in mu_new], [v[left] for v in s2_new]
            if per_row_q:
                q_a = q_a[left]
        mu_a, s2_a = mu_new, s2_new
    return means, s2, iterations, converged, clipped


def batch_fit_normal(xs: np.ndarray, q, cfg: FitConfig = DEFAULT_CONFIG):
    """Unconstrained mean/variance fit on every row of xs (shape (B, n)).

    q may be a scalar or one value per row.  Returns arrays
    (mu, sigma2, iterations, converged, clipped).
    """
    (mu,), (s2,), *state = _fixed_point((xs,), (0,), (0,), q, cfg)
    return (mu, s2, *state)


def batch_fit_variance_known_mean(xs: np.ndarray, mu0, q, cfg: FitConfig = DEFAULT_CONFIG):
    """Variance-only fit with the mean pinned at mu0 (scalar or per-row)."""
    (mu,), (s2,), *state = _fixed_point((xs,), (0,), (0,), q, cfg, pinned_mu=mu0)
    return (mu, s2, *state)


def batch_fit_shared_variance(xs: np.ndarray, ys: np.ndarray, q, cfg: FitConfig = DEFAULT_CONFIG):
    """Two means, one pooled variance, fit rowwise on (B, n) and (B, m) blocks."""
    (mu_x, mu_y), (s2,), *state = _fixed_point((xs, ys), (0, 1), (0, 0), q, cfg)
    return (mu_x, mu_y, s2, *state)


def batch_fit_shared_mean(xs: np.ndarray, ys: np.ndarray, q, cfg: FitConfig = DEFAULT_CONFIG):
    """One shared mean, two variances, fit rowwise."""
    (mu,), (s2x, s2y), *state = _fixed_point((xs, ys), (0, 0), (0, 1), q, cfg)
    return (mu, s2x, s2y, *state)


def _one_row(result_type, batch, samples, *args, cfg: FitConfig):
    """Fit one sample (or pair) as a batch of one row and unpack row 0 into result_type."""
    *params, it, conv, clip = batch(*(s[None, :] for s in samples), *args, cfg)
    return result_type(*(float(p[0]) for p in params), int(it[0]), bool(conv[0]), bool(clip[0]))


def fit_normal(sample, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> NormalFit:
    """Fit mean and variance by iterative reweighting.

    Starts from the sample mean and biased sample variance; at q = 1 that
    starting point is already the fixed point and the MLE comes back
    after a single confirming iteration.  When max_iter is exhausted the
    last iterate is returned with converged=False rather than raising,
    so resampling loops survive rare degenerate inputs.
    """
    return _one_row(NormalFit, batch_fit_normal, (as_sample(sample, 2),), check_q(q), cfg=cfg)


def fit_variance_known_mean(sample, mu: float, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> NormalFit:
    """Fit the variance only; the returned mu is exactly the argument."""
    x = as_sample(sample, 1)
    mu = check_finite(mu, "mu")
    return _one_row(NormalFit, batch_fit_variance_known_mean, (x,), mu, check_q(q), cfg=cfg)


def fit_shared_variance(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> SharedVarianceFit:
    """Fit separate means for x and y with one pooled variance."""
    samples = (as_sample(x, 2, "x"), as_sample(y, 2, "y"))
    return _one_row(SharedVarianceFit, batch_fit_shared_variance, samples, check_q(q), cfg=cfg)


def fit_shared_mean(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> SharedMeanFit:
    """Fit one shared mean with separate variances for x and y."""
    samples = (as_sample(x, 2, "x"), as_sample(y, 2, "y"))
    return _one_row(SharedMeanFit, batch_fit_shared_mean, samples, check_q(q), cfg=cfg)


def variance_bias_correction(sigma2: float, q: float) -> float:
    """Rescale a fitted variance by q, removing its asymptotic bias.

    Diagnostic helper only; the test statistics use the uncorrected fits.
    """
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    check_q(q)
    return q * sigma2
