"""Lq-likelihood-ratio tests for normal location.

The statistic is twice the gap between the maximal Lq-likelihood over
the full parameter space and over the null-constrained space; p-values
come from resampling null-centered data, and q can be chosen adaptively
by minimizing the empirical sandwich variance of the location estimate
over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mlqe
from .lqmath import (_difference, _mu_derivatives, _paired_samples, _scaled_log_pdf, as_sample, check_count,
                     check_finite, check_q)
from .mlqe import DEFAULT_CONFIG, FitConfig

__all__ = [
    "TestOutcome",
    "QSelectionReport",
    "Q_GRID",
    "statistic_1samp",
    "statistic_ind_equal_var",
    "statistic_ind_unequal_var",
    "select_q_1samp",
    "select_q_ind",
    "lqrtest_1samp",
    "lqrtest_rel",
    "lqrtest_ind",
]

# Candidate q values for adaptive selection: [0.50, 1.00] in steps of 0.01.
# 0.5 corresponds to minimum Hellinger-distance estimation; smaller values
# are deliberately not offered.
Q_GRID = tuple(i / 100.0 for i in range(50, 101))


@dataclass(frozen=True)
class TestOutcome:
    """Result of one test: statistic, bootstrap p-value, and diagnostics.

    degenerate_fraction is the share of bootstrap resamples whose fit hit
    the variance floor or ran out of iterations; those statistics are
    still counted.
    """

    statistic: float
    pvalue: float
    q: float
    bootstrap: int
    degenerate_fraction: float


@dataclass(frozen=True)
class QSelectionReport:
    """Grid search outcome: chosen q, the (q, objective) grid, and the minimum."""

    q_hat: float
    grid: list[tuple[float, float]]
    objective: float


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _ratio(blocks, alt, null, q):
    # max(2 (l1 - l0), 0) per row, from each block's (mu, sigma2) under the alternative and the null.  The -1s of the
    # terms (f^s - 1) / s, s = 1 - q, cancel: (2 / s) sum(f1^s - f0^s) keeps its digits at any scale (log f at q = 1).
    below = q < 1.0
    s = np.where(below, 1.0 - q, 1.0)
    total = np.zeros(len(q))
    for xs, *fits in zip(blocks, alt, null):
        for rows in mlqe._slices(0, *xs.shape):
            x = xs[rows]
            z1, z0 = (_scaled_log_pdf(x, mu[rows, None], s2[rows, None], s[rows, None]) for mu, s2 in fits)
            np.exp(z1, out=z1, where=below[rows, None])
            np.exp(z0, out=z0, where=below[rows, None])
            total[rows] += np.subtract(z1, z0, out=z1).sum(axis=1)
    return np.maximum(2.0 * total / s, 0.0)


def _batch_statistic(blocks, equal_var, q, cfg: FitConfig):
    # (statistic, degenerate) per row for H0: mu = 0 on one (B, n) block, or mu1 = mu2 on two, with one pooled
    # variance when equal_var holds and free ones (Welch) otherwise; one block ignores equal_var.  Each fit returns
    # its parameters, then (iterations, converged, clipped); a row is degenerate when any fit of it clipped or did
    # not converge.
    if equal_var and len(blocks) == 2:
        fits = mlqe.batch_fit_shared_variance(*blocks, q, cfg), mlqe._fixed_point(blocks, (0, 0), (0, 0), q, cfg)
        (mx, my, s2, *_), ((mu0,), (s20,), *_) = fits
        alt, null = [(mx, s2), (my, s2)], [(mu0, s20)] * 2
    else:
        # each block free, then the null: the mean pinned at 0 on one block, shared by two
        null_fit = mlqe.batch_fit_variance_known_mean if len(blocks) == 1 else mlqe.batch_fit_shared_mean
        fits = *(mlqe.batch_fit_normal(b, q, cfg) for b in blocks), null_fit(*blocks, q, cfg)
        mu0, *s20 = fits[-1][:len(blocks) + 1]
        alt, null = [fit[:2] for fit in fits[:-1]], [(mu0, s2) for s2 in s20]
    degenerate = np.any([~conv | clip for *_, conv, clip in fits], axis=0)
    return _ratio(blocks, alt, null, q), degenerate


def _min_len(q) -> int:
    # choosing q adaptively (q None) needs three observations per sample; a fixed q needs two
    return 3 if q is None else 2


def _stack(q, **samples) -> tuple:
    # each named 1-D sample, checked for a test at q, as a stack of one dataset
    return tuple(as_sample(x, _min_len(q), name)[None, :] for name, x in samples.items())


def _minus_null(q, x, null, name: str) -> tuple:
    # x, checked for a test at q, minus the checked null value, as a stack of one dataset
    (xs,) = _stack(q, x=x)
    return (_difference(xs, check_finite(null, name), ("x", name)),)


def statistic_1samp(x, mu0: float, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> float:
    """One-sample ratio statistic for H0: mu = mu0; equals the Gaussian LRT at q = 1."""
    return float(_batch_statistic(_minus_null(q, x, mu0, "mu0"), None, np.full(1, check_q(q)), cfg)[0][0])


def statistic_ind_equal_var(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> float:
    """Two-sample ratio statistic under a shared-variance alternative."""
    return float(_batch_statistic(_stack(q, x=x, y=y), True, np.full(1, check_q(q)), cfg)[0][0])


def statistic_ind_unequal_var(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> float:
    """Two-sample ratio statistic with free per-sample variances."""
    return float(_batch_statistic(_stack(q, x=x, y=y), False, np.full(1, check_q(q)), cfg)[0][0])


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx), for
# mixing the seeds of many children in one pass.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_LOW32 = 0xFFFFFFFF


def _child_seed_words(ss: np.random.SeedSequence, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """generate_state(4, uint64) of the next `reps` children ss.spawn would make, without spawning.

    A child's pool is the parent's pool mixed with one more entropy word,
    its spawn index, under the hash constant the parent's own mixing left
    off at.  Returns the (reps, 4) words and a flag for each child whose
    index needs more than 32 bits, which this pass does not mix.
    """
    pool = np.asarray(ss.pool, dtype=np.uint32)
    size = pool.size
    coerce = np.random.bit_generator._coerce_to_uint32_array
    entropy_words = max(len(coerce(ss.entropy)), size) + len(coerce(ss.spawn_key))
    # the parent's mixing made size * entropy_words hashmix calls; the child's
    # word is hashed into pool word d with the constant of call number that + d
    calls = size * entropy_words
    hash_a = np.array([_INIT_A * pow(_MULT_A, calls + d, 1 << 32) & _LOW32 for d in range(size + 1)], dtype=np.uint32)
    index = ss.n_children_spawned + np.arange(reps, dtype=np.uint64)
    mixed = ((index & _LOW32).astype(np.uint32)[:, None] ^ hash_a[:-1]) * hash_a[1:]
    mixed ^= mixed >> 16
    child = pool * np.uint32(_MIX_MULT_L) - mixed * np.uint32(_MIX_MULT_R)
    child ^= child >> 16
    # generate_state: eight words hashed from the pool, read cyclically
    hash_b = np.array([_INIT_B * pow(_MULT_B, j, 1 << 32) & _LOW32 for j in range(9)], dtype=np.uint32)
    state = (child[:, np.arange(8) % size] ^ hash_b[:-1]) * hash_b[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64), index > _LOW32


class _ChildSeed(np.random.bit_generator.ISeedSequence):
    """One child's generate_state(4, uint64) words, as the seed a bit generator asks for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _bounded(words: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Lemire's bounded integers in [0, n) from (rows, n) 32-bit words, written to out (any integer type holding n - 1).

    Returns a flag for each row holding a word that Generator.integers
    rejects and redraws (probability about n / 2**32 per word); those rows
    take more words than this pass gave them.
    """
    # the index is (u * n) >> 32; a word is rejected when the leftover (u * n) mod 2**32 is below the threshold
    product = np.multiply(words, n, dtype=np.int64)
    np.right_shift(product, 32, out=out, casting="unsafe")
    return np.multiply(words, np.uint32(n)).min(axis=1) < (2**32 - n) % n


def _resample_indices(seeds, reps: int, sizes: tuple[int, ...]) -> list[np.ndarray]:
    """Index blocks for `reps` resamples of each of R = len(seeds) stacked datasets, then the datasets themselves.

    Rows r*reps to (r+1)*reps - 1 resample dataset r, each from its own
    substream of seeds[r]; an entry indexes dataset r's sample.  Row
    R*reps + r is np.arange(n), dataset r as observed, written in place.
    The substreams depend only on (seed, repetition index), so the
    resamples do not depend on evaluation order or on the other datasets.
    Row i of dataset r is what np.random.default_rng(child).integers(0, n,
    size=n) gives, one call per block, for the i-th child that
    seeds[r].spawn would make next; a SeedSequence seed is only read.  The
    children's seeds are mixed in one vectorized pass, NumPy's PCG64 seeded
    with each child's words draws its words, and Lemire's step maps a window
    of rows at a time into blocks of the smallest unsigned type that holds
    every index; a row the pass cannot reproduce, after a rejected word or
    with a spawn index past 32 bits, is drawn by the per-child generator.
    """
    seqs = [_seed_sequence(seed) for seed in seeds]
    words, redo = (np.concatenate(parts) for parts in zip(*(_child_seed_words(ss, reps) for ss in seqs)))
    dtype = np.min_scalar_type(max(sizes) - 1)  # the smallest that indexes every sample
    blocks = [np.empty((len(words) + len(seqs), n), dtype=dtype) for n in sizes]
    for block, n in zip(blocks, sizes):
        block[len(words):] = np.arange(n)
    for rows in mlqe._slices(0, len(words), sum(sizes)):
        # each child's PCG64 stream; Generator.integers takes each 64-bit output's low half, then its high half
        stream = np.empty((len(words[rows]), -(-sum(sizes) // 2)), dtype="<u8")
        for out, seed_words in zip(stream, words[rows]):
            out[:] = np.random.PCG64(_ChildSeed(seed_words)).random_raw(stream.shape[1])
        stream, start = stream.view("<u4"), 0
        for block, n in zip(blocks, sizes):
            redo[rows] |= _bounded(stream[:, start:start + n], n, block[rows])
            start += n
    for row in np.flatnonzero(redo).tolist():
        ss = seqs[row // reps]
        child = np.random.SeedSequence(
            ss.entropy, spawn_key=ss.spawn_key + (ss.n_children_spawned + row % reps,), pool_size=ss.pool_size
        )
        rng = np.random.default_rng(child)
        for block, n in zip(blocks, sizes):
            block[row] = rng.integers(0, n, size=n)
    return blocks


def _count_pvalue(boot: np.ndarray, observed: float) -> float:
    """Fraction of resampled statistics strictly above the observed one.

    If the bootstrap distribution is completely tied with the observed
    value (all-constant input is the only practical way there), the
    observed statistic is entirely typical of the null and the p-value is
    1 by convention.  A non-finite statistic has no rank among the others,
    so it raises ValueError instead of becoming a p-value.
    """
    if not np.isfinite(observed):
        raise ValueError(f"the observed statistic is not finite ({observed}); the fits broke down")
    bad = np.count_nonzero(~np.isfinite(boot))
    if bad:
        raise ValueError(f"{bad} of {boot.size} resampled statistics are not finite; the fits broke down")
    count = int(np.count_nonzero(boot > observed))
    if count == 0 and boot.size and np.all(boot == observed):
        return 1.0
    return count / boot.size


def _test(samples, equal_var, q, bootstrap: int, seeds) -> list[TestOutcome]:
    """The TestOutcomes of R datasets tested together at DEFAULT_CONFIG; every test result is made here.

    `samples` holds one (R, n_k) block per sample, row r of each being
    dataset r, and `seeds` the R seeds.  One block is the one-sample test
    of H0: mu = 0 (lqrtest_1samp tests x - u, with equal_var None, which
    one block ignores); two blocks are the two-sample test of equal means,
    pooled when equal_var is True and Welch when it is False.  One stacked
    run of the grid (Q_GRID with q None, else (q,)) fits every sample free
    at each grid q and gives dataset r the q of its least objective.  Each
    sample's mean there centres it, which puts it on the null, for
    resampling with replacement, the samples in order within each
    repetition's substream.  One call of _batch_statistic, at each row's q,
    runs every fit of the test once over all rows: row r*bootstrap + i is
    dataset r's i-th resample and row R*bootstrap + r is dataset r itself;
    outcome r equals that of dataset r tested alone, bit for bit.  The rows
    are index blocks read through lazy gathers (mlqe._Gather) of each
    sample centred and then as observed, so their float rows exist only a
    window at a time.
    """
    bootstrap = check_count(bootstrap, "bootstrap")
    grid = Q_GRID if q is None else (check_q(q),)
    objectives, means = _grid_objectives(samples, grid, DEFAULT_CONFIG)
    best = _best_q(objectives)
    q, reps = np.asarray(grid)[best], len(best)
    idx = _resample_indices(seeds, bootstrap, tuple(s.shape[1] for s in samples))
    # row r*bootstrap + i reads centred sample r, row R*bootstrap + r sample r as observed
    source = np.append(np.repeat(np.arange(reps), bootstrap), np.arange(reps, 2 * reps))
    blocks = [mlqe._Gather(np.concatenate((s - mu[np.arange(reps), best, None], s)).ravel(), i, source * s.shape[1])
              for s, mu, i in zip(samples, means, idx)]
    stats, degen = _batch_statistic(blocks, equal_var, np.append(np.repeat(q, bootstrap), q), DEFAULT_CONFIG)
    outcomes = []
    for r, stat in enumerate(stats[reps * bootstrap:].tolist()):
        rows = slice(r * bootstrap, (r + 1) * bootstrap)
        degenerate = float(np.count_nonzero(degen[rows])) / bootstrap
        outcomes.append(TestOutcome(stat, _count_pvalue(stats[rows], stat), float(q[r]), bootstrap, degenerate))
    return outcomes


def _sandwich_objectives(xs: np.ndarray, grid, cfg: FitConfig):
    """Empirical a*b*a location variance at every q of grid, from unconstrained fits.

    Returns the objectives and the fitted means, each one row per row of xs
    (shape (R, n)), from one fit of all R * len(grid) (dataset, q) rows,
    which are gathered a slice at a time.
    """
    reps = len(xs)
    qs = np.tile(grid, reps)
    block = mlqe._Gather.of_rows(xs, np.repeat(np.arange(reps), len(grid)))
    mu, s2, *_ = mlqe.batch_fit_normal(block, qs, cfg)

    b, mean_curv = np.empty(qs.size), np.empty(qs.size)
    for rows in mlqe._slices(0, *block.shape):
        score, curvature = _mu_derivatives(block[rows], mu[rows, None], s2[rows, None], qs[rows, None])
        b[rows] = np.mean(score ** 2, axis=1)
        mean_curv[rows] = np.mean(curvature, axis=1)
    objective = np.full(qs.size, np.inf)
    ok = mean_curv != 0.0
    a = 1.0 / mean_curv[ok]
    objective[ok] = a * b[ok] * a
    return objective.reshape(reps, -1), mu.reshape(reps, -1)


def _grid_objectives(samples, grid, cfg: FitConfig):
    # the q-selection objective of each stacked dataset, its samples' sandwich variances summed, and each sample's means
    objectives, means = zip(*(_sandwich_objectives(s, grid, cfg) for s in samples))
    return sum(objectives), means


def _best_q(objectives: np.ndarray):
    # the grid index of each row's minimum; ties resolve toward the largest q, the most efficient candidate.
    # A NaN objective ranks as +inf: argmin alone would pick the first NaN.
    ranked = np.where(np.isnan(objectives), np.inf, objectives)
    return ranked.shape[-1] - 1 - np.argmin(ranked[..., ::-1], axis=-1)


def _select_q(samples, cfg: FitConfig) -> QSelectionReport:
    (objective,), _ = _grid_objectives(samples, Q_GRID, cfg)
    best = int(_best_q(objective))
    return QSelectionReport(
        q_hat=Q_GRID[best],
        grid=list(zip(Q_GRID, objective.tolist())),
        objective=float(objective[best]),
    )


def select_q_1samp(x, cfg: FitConfig = DEFAULT_CONFIG) -> QSelectionReport:
    """Pick q on the grid by minimizing the sandwich variance of the mean."""
    return _select_q(_stack(None, x=x), cfg)


def select_q_ind(x, y, cfg: FitConfig = DEFAULT_CONFIG) -> QSelectionReport:
    """Two-sample q selection: sum of the per-sample sandwich variances.

    Both samples are fit unconstrained, whichever variance model the test uses.
    """
    return _select_q(_stack(None, x=x, y=y), cfg)


def lqrtest_1samp(x, u: float, q=None, bootstrap: int = 100, seed=None) -> TestOutcome:
    """Test H0: mu = u against a two-sided alternative on one sample.

    With q=None (the default) the distortion parameter is selected
    adaptively, which needs at least three observations.  The statistic
    does not depend on `bootstrap`; only the p-value resolution does.
    """
    return _test(_minus_null(q, x, u, "u"), None, q, bootstrap, (seed,))[0]


def lqrtest_rel(x1, x2, q=None, bootstrap: int = 100, seed=None) -> TestOutcome:
    """Paired two-sample test: one-sample test of the differences against 0."""
    d = _difference(*_paired_samples(x1, x2, _min_len(q), ("x1", "x2")), ("x1", "x2"))
    return lqrtest_1samp(d, 0.0, q=q, bootstrap=bootstrap, seed=seed)


def lqrtest_ind(x1, x2, equal_var: bool = True, q=None, bootstrap: int = 100, seed=None) -> TestOutcome:
    """Unpaired two-sample test of equal means; sizes may differ.

    equal_var=True pools the variance (Student-like); equal_var=False
    leaves the variances free (Welch-like).
    """
    return _test(_stack(q, x1=x1, x2=x2), equal_var, q, bootstrap, (seed,))[0]
