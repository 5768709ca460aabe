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

from .lqmath import _number, _shared_q, _weight, as_sample, check_count, check_finite, check_q

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

# The fixed-point loop iterates the rows of a fit in a window of at most this
# many float64 values of data (one row at least), and holds three buffers of
# that size.  A single pass over many rows takes an eighth of a window of them
# at a time (_slices).
WINDOW_ELEMENTS = 2**16


class _Gather:
    """A (B, n) float block built a few rows at a time: row i is base[offset[i] + index[i]].

    A part is a 1-D base, a (B, n_k) index block of small integers and a
    (B,) offset, so each row reads its own stretch of the base.  Several
    parts sit side by side.  Only .shape and row slicing are offered, so no
    more rows are built than are asked for.
    """

    def __init__(self, *parts):
        self.parts = parts
        self.shape = (len(parts[0][1]), sum(index.shape[1] for _, index, _ in parts))

    @classmethod
    def of_rows(cls, block, rows):
        # whole rows of a 2-D block, row i being block[rows[i]]
        n = block.shape[1]
        return cls((block.ravel(), np.broadcast_to(np.arange(n), (len(rows), n)), rows * n))

    def __getitem__(self, rows):
        got = [base[index[rows] + offset[rows, None]] for base, index, offset in self.parts]
        return got[0] if len(got) == 1 else np.concatenate(got, axis=1)


def _joined(*blocks):
    # blocks side by side as one _Gather of their parts; an array joins as a gather of its own rows
    parts = (b if isinstance(b, _Gather) else _Gather.of_rows(b, np.arange(len(b))) for b in blocks)
    return _Gather(*(part for g in parts for part in g.parts))


def _slices(start: int, stop: int, width: int) -> list[slice]:
    """Consecutive row slices from start to stop, each of at most WINDOW_ELEMENTS / 8 values (one row at least).

    A single pass over many rows (the resampling, the likelihoods, the
    q-selection derivatives, filling a fixed-point buffer) takes its rows
    in these slices; an eighth of the window leaves room for the several
    temporaries a slice makes beside the fixed-point loop's three buffers.
    """
    step = max(1, WINDOW_ELEMENTS // 8 // width)
    return [slice(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


@dataclass(frozen=True)
class FitConfig:
    """Convergence control: relative tolerance and iteration cap."""

    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        object.__setattr__(self, "tol", _number(self.tol, "tol", "be positive", lambda v: v > 0.0))
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
    """q as a float when every row shares it, else one value per row shaped (nrows, 1) against a data block."""
    qa = np.asarray(q, dtype=float)
    if qa.ndim and qa.shape != (nrows,):
        raise ValueError("per-row q must match the number of rows")
    shared = _shared_q(qa)
    return qa[:, None] if shared is None else shared


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
    variance less than tol relative, when a block's weights do not sum to a
    positive number because they all underflow or are NaN after an overflow
    (the previous iterate is kept and the row counts as clipped), or at
    max_iter.  Returns (means, variances, iterations, converged, clipped) with
    means and variances as lists of (B,) arrays.

    Rows iterate in a window of at most WINDOW_ELEMENTS values (one row at
    least).  Once half the window has finished, the next rows take the freed
    slots.  A row's start, step count and stop are its own, so the window
    changes no bit of the result.  A block may be a `_Gather`: only the rows
    in the window are ever built.
    """
    blocks = [x if isinstance(x, _Gather) else np.asarray(x, dtype=float) for x in blocks]
    B = blocks[0].shape[0]
    q_col = _q_column(q, B)
    per_row_q = np.ndim(q_col) > 0
    floor, tol, pinned = VARIANCE_FLOOR, cfg.tol, pinned_mu is not None
    mean_groups = [[k for k, i in enumerate(mean_of) if i == j] for j in range(max(mean_of) + 1)]
    var_groups = [[k for k, i in enumerate(var_of) if i == j] for j in range(max(var_of) + 1)]
    means, s2 = [np.empty(B) for _ in mean_groups], [np.empty(B) for _ in var_groups]
    if pinned:
        means = [np.broadcast_to(np.asarray(pinned_mu, dtype=float), (B,)).astype(float, copy=True)]
    iterations = np.zeros(B, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    clipped = np.zeros(B, dtype=bool)

    def update(xs, w, sw, mus, products):
        # weighted means, then weighted variances about them, each product formed
        # in its block's `products` buffer; xs holds squared deviations when pinned
        def weighted_sum(wk, values, out):
            return np.multiply(wk, values, out=out).sum(axis=1)

        if pinned:
            dev = [weighted_sum(wk, d, out) for wk, d, out in zip(w, xs, products)]
        else:
            sums = [weighted_sum(wk, xk, out) for wk, xk, out in zip(w, xs, products)]
            mus = [_pooled(sums, sw, g) for g in mean_groups]
            dev = [
                weighted_sum(wk, np.square(np.subtract(xk, mus[i][:, None], out=out), out=out), out)
                for wk, xk, i, out in zip(w, xs, mean_of, products)
            ]
        return mus, [_pooled(dev, sw, g) for g in var_groups]

    # Each block has three (window, n_k) buffers: the data of the rows in the
    # window, compact in the leading rows, their weights, and a spare that holds
    # products and the next compaction.  Ids, parameters, q, clip flags and the
    # step each row entered after are kept compact beside them, in the order the
    # rows entered.  A row that finishes is written out and dropped.
    cap = min(B, max(1, WINDOW_ELEMENTS // sum(x.shape[1] for x in blocks)))
    data, weights, spare = ([np.empty((cap, x.shape[1])) for x in blocks] for _ in range(3))

    def enter(rows, at):
        # Writes the rows' data to the data buffers from row `at` on and returns
        # their start: the update with unit weights, the maximum-likelihood fit.
        # With the mean pinned, the map reads the data only through the squared
        # deviations from it, so those stand in for the data.
        at = slice(at, at + rows.stop - rows.start)
        xs = [d[at] for d in data]
        mus = [means[0][rows]] if pinned else []
        for x, slot in zip(blocks, xs):
            for part in _slices(rows.start, rows.stop, x.shape[1]):
                slot[part.start - rows.start:part.stop - rows.start] = x[part]
            if pinned:
                np.square(np.subtract(slot, mus[0][:, None], out=slot), out=slot)
        mus, v = update(xs, [1.0] * len(xs), [float(x.shape[1]) for x in xs], mus, [s[at] for s in spare])
        clip = functools.reduce(np.logical_or, [vk < floor for vk in v])
        return mus, [np.maximum(vk, floor) for vk in v], clip

    mu_a, s2_a, clip_a = enter(slice(0, cap), 0)
    idx, start, entered, step = np.arange(cap), np.zeros(cap, dtype=np.int64), cap, 0
    q_a = q_col[:cap] if per_row_q else q_col
    while len(idx):
        m, step = len(idx), step + 1
        xa = [d[:m] for d in data]
        # the floor keeps every variance positive, so the weights skip lq_weight's check
        w = [
            _weight(x, mu_a[i][:, None], s2_a[j][:, None], q_a, buf[:m], x if pinned else None)
            for x, buf, i, j in zip(xa, weights, mean_of, var_of)
        ]
        sw = [wk.sum(axis=1) for wk in w]
        stuck = functools.reduce(np.logical_or, [~(s > 0.0) for s in sw])
        any_stuck = stuck.any()
        if any_stuck:
            for s in sw:
                s[stuck] = 1.0
        mu_new, s2_new = update(xa, w, sw, mu_a, [s[:m] for s in spare])
        clip_a |= functools.reduce(np.logical_or, [v < floor for v in s2_new])
        s2_new = [np.maximum(v, floor) for v in s2_new]
        if any_stuck:
            # all weights of a block underflowed, or are NaN after an overflow:
            # the row keeps its previous iterate, counts as clipped and stops
            # unconverged
            for new, old in zip(mu_new + s2_new, mu_a + s2_a):
                new[stuck] = old[stuck]
            clip_a |= stuck

        done = functools.reduce(
            np.logical_and, [np.abs(new - old) / new < tol for new, old in zip(s2_new, s2_a)]
        )
        if not pinned:
            scale = np.sqrt(functools.reduce(np.maximum, s2_new))
            for new, old in zip(mu_new, mu_a):
                done &= np.abs(new - old) / scale < tol
        if any_stuck:
            done &= ~stuck

        finished = done | stuck if any_stuck else done
        if step - start[0] == cfg.max_iter:
            # the rows that entered first reach max_iter first
            finished = finished | (start == start[0])
        if finished.any():
            rows = idx[finished]
            for par, new in zip(means + s2, mu_new + s2_new):
                par[rows] = new[finished]
            iterations[rows] = step - start[finished]
            converged[rows] = done[finished]
            clipped[rows] = clip_a[finished]
            left = np.flatnonzero(~finished)
            idx, clip_a, start = idx[left], clip_a[left], start[left]
            for k, x in enumerate(xa):
                # the rows still iterating move to the spare, which becomes the data buffer
                np.take(x, left, axis=0, out=spare[k][:len(left)], mode="clip")
                data[k], spare[k] = spare[k], data[k]
            mu_new, s2_new = [mu[left] for mu in mu_new], [v[left] for v in s2_new]
            if per_row_q:
                q_a = q_a[left]
        mu_a, s2_a = mu_new, s2_new
        if 2 * len(idx) <= cap and entered < B:
            rows = slice(entered, min(B, entered + cap - len(idx)))
            new_mu, new_s2, new_clip = enter(rows, len(idx))
            mu_a = [np.concatenate(pair) for pair in zip(mu_a, new_mu)]
            s2_a = [np.concatenate(pair) for pair in zip(s2_a, new_s2)]
            idx, clip_a = np.concatenate([idx, np.arange(rows.start, rows.stop)]), np.concatenate([clip_a, new_clip])
            start = np.concatenate([start, np.full(len(new_clip), step)])
            if per_row_q:
                q_a = np.concatenate([q_a, q_col[rows]])
            entered = rows.stop
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
