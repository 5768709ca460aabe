"""Iterative-reweighting maximum Lq-likelihood fitters for the normal family.

Every fit is one fixed-point map.  Each observation gets the weight
w_i = f(x_i | mu, sigma2)^(1-q) at the current parameters, and the
parameters move to the weighted means and weighted variances under those
weights.  The start is the same update with unit weights, i.e. the
maximum-likelihood fit.  Each row's variances are floored at
VARIANCE_FLOOR times the largest of its start variances (at VARIANCE_FLOOR
itself for a constant sample), so the recursion cannot collapse onto a
single observation, and the floor scales with the data.

The fits differ only in their constraint: which mean and which variance
each sample block uses, and whether the mean is pinned at 0.

- `batch_fit_normal`: one block, free mean and variance.
- `batch_fit_variance_known_mean`: one block, mean pinned at 0 (a known mean
  mu is pinned by fitting the data minus mu).
- `batch_fit_shared_variance`: two blocks, two means, one variance.
- `batch_fit_shared_mean`: two blocks, one mean, two variances.
- the pooled test's null: two blocks, one mean, one variance, the two samples
  fit as if joined.

One driver, `_fixed_point`, runs all of them on many independent rows in
lockstep, which is what makes the bootstrap loops and the q grid
affordable.  The public fitters operate on one sample (or one pair) as
the batch-of-one case, so both paths share the same numerics.  A row
stops when the map's last step is below tol in sigma-scaled means and log
variance ratios, which bounds the step, not the distance to the fixed
point, or stops stuck when some parameter group's weights do not sum to a
positive number.

`_fixed_point` accelerates each row by a safeguarded SQUAREM (Varadhan &
Roland 2008): once a row's last two plain steps are short, point the same
way and shrink, its next point extrapolates along them, in sigma-scaled
means and log variances, by at most REACH past the plain iterate.  Whether
the map's output there is kept depends on what the map guarantees.  The
normal, known-mean, shared-variance and pooled maps are weighted-MLE steps, hence
minorize-maximize steps for the Lq-likelihood (f^s >= f0^s (1 + s log(f/f0))
as exp is convex): the output is kept when the point's Lq-likelihood is at
least that of the plain iterate before it.  The shared-mean map pools the
samples' means without their variances and can lower the Lq-likelihood:
its output is kept when the map's next step is no longer than the plain
step it replaces.  Otherwise the row goes on from its plain iterate.  MLqE
fixed points are not unique, and a higher Lq-likelihood does not show that a
trial stayed in the basin of the fixed point its plain path reaches; the
reach is what keeps it there.
`iterations` and `max_iter` count map evaluations, rejected ones included,
and a fit returns the output of its last kept map evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .lqmath import _difference, _number, _weight, as_sample, check_count, check_finite, check_q

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
]

# 64-bit machine epsilon: a fit's variances are floored at this multiple of
# the largest of its maximum-likelihood start variances, or at this value
# where that product is 0 (a constant sample, whose start variance counts as
# 0 even where the rounding of its mean leaves it near 1e-31).
VARIANCE_FLOOR = float(np.finfo(np.float64).eps)

# The fixed-point loop iterates the rows of a fit in a window of at most this
# many float64 values of data (one row at least), and holds three buffers of
# that size beside one small array of the rows' state.  A single pass over many
# rows takes an eighth of a window of them at a time (_slices).
WINDOW_ELEMENTS = 2**16

# A SQUAREM trial moves each row at most this far past its plain iterate y, in
# means over the largest standard deviation and in log variances.
REACH = 0.25


class _Gather:
    """A (B, n) float block built a few rows at a time: row i is base[offset[i] + index[i]].

    base is 1-D, index a (B, n) block of small integers and offset (B,), so
    each row reads its own stretch of the base.  Only .shape and row slicing
    are offered, so no more rows are built than are asked for.
    """

    def __init__(self, base, index, offset):
        self.base, self.index, self.offset = base, index, offset
        self.shape = index.shape

    @classmethod
    def of_rows(cls, block, rows):
        # whole rows of a 2-D block, row i being block[rows[i]]
        n = block.shape[1]
        return cls(block.ravel(), np.broadcast_to(np.arange(n), (len(rows), n)), rows * n)

    def __getitem__(self, rows):
        return self.base[self.index[rows] + self.offset[rows, None]]


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
    """Convergence control: the bound on a fit's last scaled map step (tol) and the cap on map evaluations."""

    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        object.__setattr__(self, "tol", _number(self.tol, "tol", "be finite and positive", lambda v: 0.0 < v < np.inf))
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


def _q_rows(q, nrows: int):
    """q, a scalar or one value per row, as one value per row."""
    qa = np.asarray(q, dtype=float)
    if qa.ndim and qa.shape != (nrows,):
        raise ValueError("per-row q must match the number of rows")
    return np.broadcast_to(qa, (nrows,))


def _pooled(nums, dens, group, out):
    # sum of nums over the blocks in group / the same sum of dens, in block order, written into out
    num, den = nums[group[0]], dens[group[0]]
    for k in group[1:]:
        num, den = num + nums[k], den + dens[k]
    return np.divide(num, den, out=out)


def _fixed_point(blocks, mean_of, var_of, q, cfg: FitConfig, pinned=False):
    """Run the accelerated reweighting map on every row of the data blocks until each settles.

    Block k (shape (B, n_k)) is modelled as N(mu[mean_of[k]], s2[var_of[k]]);
    blocks that share an index share that parameter and are fit as if joined.
    When pinned the single mean is held at 0.  Each loop iteration evaluates
    the map once for every row in the window, at the row's point.  A row
    stops converged when the map's step, in the scaled terms below, is
    shorter than tol in every coordinate; stuck (the point is kept and the
    row counts as clipped) when the weights of some parameter group, summed
    over its blocks, underflow to 0 or are NaN after an overflow; or after
    max_iter map evaluations.  It returns the output of its last kept map
    evaluation.  Returns (means, variances, iterations, converged, clipped)
    with means and variances as lists of (B,) arrays.

    Each row carries its own SQUAREM state (Varadhan & Roland 2008, step
    length SqS3): its last plain step, a step bound and whether its point is
    a trial.  Steps are measured in means over the largest standard deviation
    and in log variances.  When the plain step u -> x into the point and the
    step x -> y out of it are both shorter than 0.1, have a cosine above 0.9
    and the second is the shorter, the row's next point is the SqS3
    extrapolation from u, x and y at a step a in [1, bound]; at a = 1 that is
    y itself.  Its move past y is shortened to REACH in its longest
    coordinate.  With one variance group the map is a weighted-MLE step, and
    the map evaluation at a trial is kept when its weight sums give an
    Lq-likelihood at least that of x (for q < 1 it is (sum of weights - n) /
    (1 - q)); with the shared mean it is kept when the map's step from it is
    no longer than x -> y.  A trial at a > 1 that fails goes back to y, and
    its evaluation sets no stop, clip or stuck flag.  The bound starts at 1
    and shrinks 4-fold when a trial is rejected.  When a trial at the bound
    is kept it grows 4-fold for the shared mean, and is lifted for good for
    the other maps, whose reach and likelihood guard suffice.

    Rows iterate in a window of at most WINDOW_ELEMENTS values (one row at
    least), a pool of slots that starts empty; the next rows take any free
    slots, so the first rows enter by the same path as the later ones.  Beside
    the data, every state of a row in the window (its point, its acceleration
    state, q, its floor and clip flag, the step it entered after and its index)
    is one column of one array.  A finished row's slot is refilled by a live
    row from past the window's new end, one assignment per buffer.  A row's
    start, step count (max_iter included), acceleration and stop are its own,
    so the window changes no bit of the result.  A block may be a `_Gather`:
    only the rows in the window are ever built.
    """
    blocks = [x if isinstance(x, _Gather) else np.asarray(x, dtype=float) for x in blocks]
    B = blocks[0].shape[0]
    q_rows = _q_rows(q, B)
    mean_groups = [[k for k, i in enumerate(mean_of) if i == j] for j in range(max(mean_of) + 1)]
    var_groups = [[k for k, i in enumerate(var_of) if i == j] for j in range(max(var_of) + 1)]
    # A row's parameters are one column of a (P, rows) array: the J free means
    # (none when pinned), then the variances.
    J = 0 if pinned else len(mean_groups)
    P = J + len(var_groups)
    fitted = np.empty((P, B))
    iterations = np.zeros(B, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    clipped = np.zeros(B, dtype=bool)

    def update(xs, w, sw, products, out):
        # weighted means into out[:J], then weighted variances about them into out[J:], the
        # deviations formed in each block's `products` buffer; xs holds squared deviations when
        # pinned.  Weights of None are unit weights.  einsum sums each row's products in one pass
        # without storing them, and a row's sum does not depend on the other rows.
        def weighted_sum(wk, values):
            return values.sum(axis=1) if wk is None else np.einsum("ij,ij->i", wk, values)

        if pinned:
            dev = [weighted_sum(wk, d) for wk, d in zip(w, xs)]
        else:
            sums = [weighted_sum(wk, xk) for wk, xk in zip(w, xs)]
            for j, g in enumerate(mean_groups):
                _pooled(sums, sw, g, out[j])
            dev = [
                weighted_sum(wk, np.square(np.subtract(xk, out[i][:, None], out=prod), out=prod))
                for wk, xk, i, prod in zip(w, xs, mean_of, products)
            ]
        for j, g in enumerate(var_groups):
            _pooled(dev, sw, g, out[J + j])
        return out

    def scaled_step(a, b, scale):
        # b - a as sigma-scaled means and log variance ratios
        d = np.empty_like(b)
        np.log(np.divide(b[J:], a[J:], out=d[J:]), out=d[J:])
        np.divide(np.subtract(b[:J], a[:J], out=d[:J]), scale, out=d[:J])
        return d

    # Each block has three (window, n_k) buffers: the data of the rows in the
    # window, in the leading rows, their weights, and a spare for the update's
    # products.  Every other per-row state is one column of a (3P + 9, window)
    # array, a row's column at the same slot as its data; `named` gives its rows:
    # - point, where the map is evaluated next; alt, the map's last output, the y
    #   a trial falls back to; back, the scaled plain step into the point (P rows each);
    # - back2, back's squared length (0 when there is none); ref_total, the weight
    #   sum at the last point (x); the step bound; tried, the step a the point was
    #   extrapolated by (0 when it was not);
    # - q; the variance floor; the clip flag (0 or 1); the step the row entered
    #   after and its row index, whole numbers that float64 holds exactly.
    # A finished row is written out and its slot refilled from the window's end.
    cap = min(B, max(1, WINDOW_ELEMENTS // sum(x.shape[1] for x in blocks)))
    data, weights, spare = ([np.empty((cap, x.shape[1])) for x in blocks] for _ in range(3))
    state = np.empty((3 * P + 9, cap))

    def named(columns):
        return (columns[:P], columns[P:2 * P], columns[2 * P:3 * P], *columns[3 * P:])

    def enter(rows, at, step):
        # Writes the rows' data to the data buffers and their state to the state
        # columns from `at` on.  A row starts at the update with unit weights (the
        # maximum-likelihood fit), its variances floored at VARIANCE_FLOOR times the
        # largest start variance (VARIANCE_FLOOR where that product is 0).  A
        # variance whose blocks each hold one value per mean counts as 0 there,
        # though the rounding of a mean may leave it near 1e-31 of the value's
        # square.  With the mean pinned, the map reads the data only through the
        # squared deviations from it, so those stand in for the data.
        at = slice(at, at + rows.stop - rows.start)
        xs = [d[at] for d in data]
        for x, slot in zip(blocks, xs):
            for part in _slices(rows.start, rows.stop, x.shape[1]):
                slot[part.start - rows.start:part.stop - rows.start] = x[part]
            if pinned:
                np.square(slot, out=slot)
        point, alt, back, back2, ref_total, bound, tried, q_r, floor, clip, entry, idx = named(state[:, at])
        update(xs, [None] * len(xs), [float(x.shape[1]) for x in xs], [s[at] for s in spare], point)
        spread = point[J:]
        # the rounding of a mean leaves less than VARIANCE_FLOOR times its square, so only
        # then are the blocks looked at
        if not pinned and (spread < VARIANCE_FLOOR * np.square(point[:J]).max()).any():
            one_value = [
                functools.reduce(np.maximum, [xs[k].max(axis=1) for k in g])
                == functools.reduce(np.minimum, [xs[k].min(axis=1) for k in g])
                for g in mean_groups
            ]
            flat = [np.logical_and.reduce([one_value[mean_of[k]] for k in g]) for g in var_groups]
            spread = np.where(flat, 0.0, spread)
        np.multiply(VARIANCE_FLOOR, np.maximum.reduce(spread), out=floor)
        floor[~(floor > 0.0)] = VARIANCE_FLOOR
        clip[:] = np.logical_or.reduce(point[J:] < floor)
        np.maximum(point[J:], floor, out=point[J:])
        alt[:] = point
        back[:] = back2[:] = ref_total[:] = tried[:] = 0.0
        bound[:], q_r[:], entry[:], idx[:] = 1.0, q_rows[rows], step, np.arange(rows.start, rows.stop)

    # the map of a fit with one variance group is a minorize-maximize step
    mm = len(var_groups) == 1
    grow = np.inf if mm else 4.0

    # a row that overflows stops as stuck, and the extrapolation of a row outside the
    # gate may divide by zero or overflow before it is dropped: no warning is due
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = entered = step = 0
        trials = False
        while True:
            # rows enter whenever the window has a free slot, the first ones into the empty window
            if m < cap and entered < B:
                rows = slice(entered, min(B, entered + cap - m))
                enter(rows, m, step)
                m, entered = m + rows.stop - rows.start, rows.stop
                views = named(state[:, :m])
            if not m:
                break
            step += 1
            point, alt, back, back2, ref_total, bound, tried, q_a, floor_a, clip_a, entry, idx = views
            xa = [d[:m] for d in data]
            # the floor keeps every variance positive, so the weights need no sigma2 check
            w = [
                _weight(x, 0.0 if pinned else point[i][:, None], point[J + j][:, None], q_a[:, None], buf[:m],
                        x if pinned else None)
                for x, buf, i, j in zip(xa, weights, mean_of, var_of)
            ]
            sw = [wk.sum(axis=1) for wk in w]
            # the Lq-likelihood at the point is (total - n) / (1 - q) for q < 1, so it rises with total
            total = functools.reduce(np.add, sw)
            # a row is stuck when the weights of some parameter group sum to 0 or NaN
            stuck = ~(functools.reduce(np.minimum, [sum(sw[k] for k in g) for g in mean_groups + var_groups]) > 0.0)
            any_stuck = stuck.any()
            if any_stuck:
                for s in sw:
                    s[stuck] = 1.0
            new = update(xa, w, sw, [s[:m] for s in spare], np.empty((P, m)))
            clip_new = np.logical_or.reduce(new[J:] < floor_a)
            np.maximum(new[J:], floor_a, out=new[J:])
            scale = np.sqrt(np.maximum.reduce(new[J:]))
            ahead = scaled_step(point, new, scale)
            ahead2 = np.add.reduce(ahead * ahead)

            if trials:
                # a trial is kept when its Lq-likelihood is at least that of x (one variance),
                # or when the map's step from it is no longer than x -> y (shared mean); a trial
                # at a = 1 is the plain step, so only one at a > 1 (and a bound of 4 or more) is
                # rejected
                kept = (total >= ref_total if mm else ahead2 <= back2) & ~stuck
                reject = (tried > 1.0) > kept
                bound *= np.where(kept & (tried == bound), grow, np.where(reject, 0.25, 1.0))
                # a rejected evaluation counts for nothing: the row's output is y and its last
                # step x -> y, as after the plain step that led to the trial, which did not stop it
                if reject.any():
                    stuck &= ~reject
                    clip_new &= ~reject
                    np.copyto(new, alt, where=reject)
                    np.copyto(ahead, back, where=reject)
                    np.copyto(ahead2, back2, where=reject)
            if any_stuck:
                # all weights of a parameter group underflowed, or are NaN after an overflow:
                # the row keeps its point, counts as clipped and stops unconverged
                np.copyto(new, point, where=stuck)
                clip_new |= stuck
            clip_a[clip_new] = 1.0
            done = np.logical_and.reduce(np.abs(ahead) < cfg.tol) & ~stuck
            finished = done | stuck if any_stuck else done

            # extrapolate where the plain steps u -> x (back) and x -> y (ahead) are short,
            # point the same way and shrink; a point extrapolated by a > 1 was not reached by back
            dot = np.add.reduce(back * ahead)
            gate = (ahead2 < back2) & (back2 < 0.01) & (dot > 0.9 * np.sqrt(back2 * ahead2)) & (tried <= 1.0)
            trials = gate.any()
            point[:], tried[:] = new, 0.0
            if trials:
                curve = ahead - back
                curve2 = np.add.reduce(curve * curve)
                # ahead2 < back2 makes the curve nonzero, but its square may underflow to 0,
                # and an unbounded step would then be infinite: such a row steps plainly
                gate &= curve2 > 0.0
                a = np.minimum(np.sqrt(back2 / curve2), bound)
                d = a - 1.0
                # y + 2d (y - x) + d^2 (y - 2x + u): the SqS3 point at step a = 1 + d, exactly y at d = 0
                move = d * (2.0 * ahead + d * curve)
                # shortened to REACH in its longest coordinate: a longer extrapolation can cross
                # into the basin of another fixed point however high its Lq-likelihood
                np.multiply(move, np.minimum(1.0, REACH / np.maximum.reduce(np.abs(move))), out=move)
                ext = np.empty_like(new)
                np.add(new[:J], np.multiply(move[:J], scale, out=move[:J]), out=ext[:J])
                np.maximum(np.multiply(new[J:], np.exp(move[J:], out=move[J:]), out=ext[J:]), floor_a, out=ext[J:])
                np.copyto(point, ext, where=gate)
                np.copyto(tried, a, where=gate)
            back[:], back2[:], alt[:], ref_total[:] = ahead, ahead2, new, total

            finished = finished | (step - entry == cfg.max_iter)  # not |=: finished may be done itself
            if finished.any():
                rows = idx[finished].astype(np.intp)
                fitted[:, rows] = new[:, finished]
                iterations[rows] = step - entry[finished]
                converged[rows] = done[finished]
                clipped[rows] = clip_a[finished]
                # the live rows past the new end move into the finished rows' slots before it
                m -= np.count_nonzero(finished)
                holes = np.flatnonzero(finished[:m])
                movers = m + np.flatnonzero(~finished[m:])
                for d in data:
                    d[holes] = d[movers]
                state[:, holes] = state[:, movers]
                views = named(state[:, :m])
    means = [np.zeros(B)] if pinned else list(fitted[:J])
    return means, list(fitted[J:]), iterations, converged, clipped


def batch_fit_normal(xs: np.ndarray, q, cfg: FitConfig = DEFAULT_CONFIG):
    """Unconstrained mean/variance fit on every row of xs (shape (B, n)).

    q may be a scalar or one value per row.  Returns arrays
    (mu, sigma2, iterations, converged, clipped).
    """
    (mu,), (s2,), *state = _fixed_point((xs,), (0,), (0,), q, cfg)
    return (mu, s2, *state)


def batch_fit_variance_known_mean(xs: np.ndarray, q, cfg: FitConfig = DEFAULT_CONFIG):
    """Variance-only fit with the mean pinned at 0; a fit about mu0 takes xs - mu0."""
    (mu,), (s2,), *state = _fixed_point((xs,), (0,), (0,), q, cfg, pinned=True)
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
    after a single confirming iteration.  For q < 1 the reweighting map is
    accelerated by a safeguarded SQUAREM extrapolation (see the module
    docstring), which reaches the plain map's fixed point in fewer map
    evaluations.  `iterations` and cfg.max_iter count map evaluations.
    When max_iter is exhausted the last kept iterate is returned with
    converged=False rather than raising, so resampling loops survive rare
    degenerate inputs.
    """
    return _one_row(NormalFit, batch_fit_normal, (as_sample(sample, 2),), check_q(q), cfg=cfg)


def fit_variance_known_mean(sample, mu: float, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> NormalFit:
    """Fit the variance only, as the fit of sample - mu about 0; the returned mu is exactly the argument."""
    x, mu = as_sample(sample, 1), check_finite(mu, "mu")
    d = _difference(x, mu, ("sample", "mu"))
    return replace(_one_row(NormalFit, batch_fit_variance_known_mean, (d,), check_q(q), cfg=cfg), mu=mu)


def fit_shared_variance(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> SharedVarianceFit:
    """Fit separate means for x and y with one pooled variance."""
    samples = (as_sample(x, 2, "x"), as_sample(y, 2, "y"))
    return _one_row(SharedVarianceFit, batch_fit_shared_variance, samples, check_q(q), cfg=cfg)


def fit_shared_mean(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> SharedMeanFit:
    """Fit one shared mean with separate variances for x and y."""
    samples = (as_sample(x, 2, "x"), as_sample(y, 2, "y"))
    return _one_row(SharedMeanFit, batch_fit_shared_mean, samples, check_q(q), cfg=cfg)

