"""Lq-likelihood-ratio tests for normal location.

The statistic is twice the gap between the maximal Lq-likelihood over
the full parameter space and over the null-constrained space; p-values
come from resampling null-centered data, and q can be chosen adaptively
by minimizing the empirical sandwich variance of the location estimate
over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import mlqe
from .lqmath import as_sample, check_count, check_finite, check_q, lq_curvature_mu, lq_likelihood, lq_score_mu
from .mlqe import DEFAULT_CONFIG, FitConfig

__all__ = [
    "TestOutcome",
    "QSelectionReport",
    "Q_GRID",
    "statistic_1samp",
    "statistic_ind_equal_var",
    "statistic_ind_unequal_var",
    "pvalue_bootstrap_1samp",
    "pvalue_bootstrap_ind",
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


def _lik(xs, mu, sigma2, q: float):
    # one Lq-likelihood per row of xs; mu may be a scalar or (B,), sigma2 is (B,)
    return lq_likelihood(xs, np.reshape(mu, (-1, 1)), sigma2[:, None], q)


def _degenerate(*fits) -> np.ndarray:
    # fits are (converged, clipped) pairs; a row is degenerate if any fit
    # clipped or failed to converge.
    bad = np.zeros_like(fits[0][0], dtype=bool)
    for conv, clip in fits:
        bad |= ~conv | clip
    return bad


# Each batch statistic returns (statistic, degenerate, free_means): one value
# per row, plus each sample's unconstrained-fit mean where the statistic fit
# one (None for the pooled statistic, which fits no sample on its own).


def _batch_statistic_1samp(xs, mu0: float, q: float, cfg: FitConfig):
    mu1, s21, _, conv1, clip1 = mlqe.batch_fit_normal(xs, q, cfg)
    _, s20, _, conv0, clip0 = mlqe.batch_fit_variance_known_mean(xs, mu0, q, cfg)
    d = np.maximum(2.0 * (_lik(xs, mu1, s21, q) - _lik(xs, mu0, s20, q)), 0.0)
    return d, _degenerate((conv1, clip1), (conv0, clip0)), (mu1,)


def _batch_statistic_ind_equal(xs, ys, q: float, cfg: FitConfig):
    mx, my, s2, _, conv1, clip1 = mlqe.batch_fit_shared_variance(xs, ys, q, cfg)
    pooled = np.concatenate([xs, ys], axis=1)
    mu0, s20, _, conv0, clip0 = mlqe.batch_fit_normal(pooled, q, cfg)
    l1 = _lik(xs, mx, s2, q) + _lik(ys, my, s2, q)
    d = np.maximum(2.0 * (l1 - _lik(pooled, mu0, s20, q)), 0.0)
    return d, _degenerate((conv1, clip1), (conv0, clip0)), None


def _batch_statistic_ind_unequal(xs, ys, q: float, cfg: FitConfig):
    mx, s2x, _, convx, clipx = mlqe.batch_fit_normal(xs, q, cfg)
    my, s2y, _, convy, clipy = mlqe.batch_fit_normal(ys, q, cfg)
    mu0, s2x0, s2y0, _, conv0, clip0 = mlqe.batch_fit_shared_mean(xs, ys, q, cfg)
    l1 = _lik(xs, mx, s2x, q) + _lik(ys, my, s2y, q)
    l0 = _lik(xs, mu0, s2x0, q) + _lik(ys, mu0, s2y0, q)
    d = np.maximum(2.0 * (l1 - l0), 0.0)
    return d, _degenerate((convx, clipx), (convy, clipy), (conv0, clip0)), (mx, my)


def _observed(statistic, samples, q: float, cfg: FitConfig):
    """The batch statistic on the samples themselves, and its free-fit means."""
    d, _, means = statistic(*(s[None, :] for s in samples), q=q, cfg=cfg)
    return float(d[0]), means


def statistic_1samp(x, mu0: float, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> float:
    """One-sample ratio statistic for H0: mu = mu0; equals the Gaussian LRT at q = 1."""
    xa = as_sample(x, 2, "x")
    mu0 = check_finite(mu0, "mu0")
    return _observed(partial(_batch_statistic_1samp, mu0=mu0), (xa,), check_q(q), cfg)[0]


def statistic_ind_equal_var(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> float:
    """Two-sample ratio statistic under a shared-variance alternative."""
    samples = (as_sample(x, 2, "x"), as_sample(y, 2, "y"))
    return _observed(_batch_statistic_ind_equal, samples, check_q(q), cfg)[0]


def statistic_ind_unequal_var(x, y, q: float, cfg: FitConfig = DEFAULT_CONFIG) -> float:
    """Two-sample ratio statistic with free per-sample variances."""
    samples = (as_sample(x, 2, "x"), as_sample(y, 2, "y"))
    return _observed(_batch_statistic_ind_unequal, samples, check_q(q), cfg)[0]


def _resample_indices(seed_seq, reps: int, sizes: tuple[int, ...]) -> list[np.ndarray]:
    """Index blocks for `reps` resamples, one independent substream per rep.

    The substreams depend only on (seed, repetition index), so the
    resulting resamples do not depend on evaluation order.
    """
    blocks = [np.empty((reps, n), dtype=np.intp) for n in sizes]
    for b, child in enumerate(seed_seq.spawn(reps)):
        rng = np.random.default_rng(child)
        for block, n in zip(blocks, sizes):
            block[b] = rng.integers(0, n, size=n)
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


def _test(samples, targets, statistic, select, q, bootstrap: int, seed, cfg: FitConfig) -> TestOutcome:
    """The TestOutcome of a test on `samples`; every test result is made here.

    `statistic(*blocks, q=q, cfg=cfg)` is a batch statistic of one (B, n)
    block per sample.  With q None, q is `select(*samples, cfg=cfg).q_hat`.
    The observed fits also give each sample's robust mean; the sample is
    centred on it, shifted to its target where the null names one (None
    where it does not), and resampled with replacement, the samples in
    order within each repetition's substream.  The pooled statistic fits no
    sample on its own, so its samples are fit here.
    """
    bootstrap = check_count(bootstrap, "bootstrap")
    q = select(*samples, cfg=cfg).q_hat if q is None else check_q(q)
    observed, means = _observed(statistic, samples, q, cfg)
    if means is None:
        means = [mlqe.batch_fit_normal(s[None, :], q, cfg)[0] for s in samples]
    centred = [s - m[0] if t is None else s - m[0] + t for s, m, t in zip(samples, means, targets)]
    idx = _resample_indices(_seed_sequence(seed), bootstrap, tuple(s.size for s in samples))
    boot, degen, _ = statistic(*(c[i] for c, i in zip(centred, idx)), q=q, cfg=cfg)
    degenerate = float(np.count_nonzero(degen)) / bootstrap
    return TestOutcome(observed, _count_pvalue(boot, observed), q, bootstrap, degenerate)


def pvalue_bootstrap_1samp(
    x,
    mu0: float,
    q: float,
    bootstrap: int,
    seed=None,
    cfg: FitConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Bootstrap p-value for the one-sample test.

    The sample is shifted so its robustly fitted mean sits at mu0, then
    resampled with replacement; the p-value is the fraction of resampled
    statistics exceeding the observed one.  Returns (pvalue,
    degenerate_fraction).
    """
    xa = as_sample(x, 2, "x")
    mu0 = check_finite(mu0, "mu0")
    statistic = partial(_batch_statistic_1samp, mu0=mu0)
    out = _test((xa,), (mu0,), statistic, select_q_1samp, q, bootstrap, seed, cfg)
    return out.pvalue, out.degenerate_fraction


def pvalue_bootstrap_ind(
    x,
    y,
    q: float,
    equal_var: bool,
    bootstrap: int,
    seed=None,
    cfg: FitConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Bootstrap p-value for the two-sample unpaired test.

    Each sample is centered on its own robust mean and resampled
    independently (x then y within each repetition's substream).
    """
    samples = (as_sample(x, 2, "x"), as_sample(y, 2, "y"))
    statistic = _batch_statistic_ind_equal if equal_var else _batch_statistic_ind_unequal
    out = _test(samples, (None, None), statistic, select_q_ind, q, bootstrap, seed, cfg)
    return out.pvalue, out.degenerate_fraction


def _sandwich_objectives(x: np.ndarray, cfg: FitConfig) -> np.ndarray:
    """Empirical a*b*a location variance at every grid q, from unconstrained fits."""
    qs = np.array(Q_GRID)
    xs = np.broadcast_to(x, (qs.size, x.size))
    mu, s2, _, _, _ = mlqe.batch_fit_normal(xs, qs, cfg)

    args = (xs, mu[:, None], s2[:, None], qs[:, None])
    b = np.mean(lq_score_mu(*args) ** 2, axis=1)
    mean_curv = np.mean(lq_curvature_mu(*args), axis=1)
    objective = np.full(qs.size, np.inf)
    ok = mean_curv != 0.0
    a = 1.0 / mean_curv[ok]
    objective[ok] = a * b[ok] * a
    return objective


def _argmin_largest_q(objective: np.ndarray) -> int:
    # ties resolve toward the largest q, i.e. the most efficient candidate
    best = 0
    for i in range(1, objective.size):
        if objective[i] <= objective[best]:
            best = i
    return best


def _select_q(samples, cfg: FitConfig) -> QSelectionReport:
    objective = sum(_sandwich_objectives(s, cfg) for s in samples)
    best = _argmin_largest_q(objective)
    return QSelectionReport(
        q_hat=Q_GRID[best],
        grid=list(zip(Q_GRID, objective.tolist())),
        objective=float(objective[best]),
    )


def select_q_1samp(x, cfg: FitConfig = DEFAULT_CONFIG) -> QSelectionReport:
    """Pick q on the grid by minimizing the sandwich variance of the mean."""
    return _select_q((as_sample(x, 3, "x"),), cfg)


def select_q_ind(x, y, cfg: FitConfig = DEFAULT_CONFIG) -> QSelectionReport:
    """Two-sample q selection: sum of the per-sample sandwich variances.

    Both samples are fit unconstrained, whichever variance model the test uses.
    """
    return _select_q((as_sample(x, 3, "x"), as_sample(y, 3, "y")), cfg)


def lqrtest_1samp(x, u: float, q=None, bootstrap: int = 100, seed=None) -> TestOutcome:
    """Test H0: mu = u against a two-sided alternative on one sample.

    With q=None (the default) the distortion parameter is selected
    adaptively, which needs at least three observations.  The statistic
    does not depend on `bootstrap`; only the p-value resolution does.
    """
    xa = as_sample(x, 3 if q is None else 2, "x")
    u = check_finite(u, "u")
    statistic = partial(_batch_statistic_1samp, mu0=u)
    return _test((xa,), (u,), statistic, select_q_1samp, q, bootstrap, seed, DEFAULT_CONFIG)


def lqrtest_rel(x1, x2, q=None, bootstrap: int = 100, seed=None) -> TestOutcome:
    """Paired two-sample test: one-sample test of the differences against 0."""
    min_len = 3 if q is None else 2
    a = as_sample(x1, min_len, "x1")
    b = as_sample(x2, min_len, "x2")
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    return lqrtest_1samp(a - b, 0.0, q=q, bootstrap=bootstrap, seed=seed)


def lqrtest_ind(x1, x2, equal_var: bool = True, q=None, bootstrap: int = 100, seed=None) -> TestOutcome:
    """Unpaired two-sample test of equal means; sizes may differ.

    equal_var=True pools the variance (Student-like); equal_var=False
    leaves the variances free (Welch-like).
    """
    min_len = 3 if q is None else 2
    samples = (as_sample(x1, min_len, "x1"), as_sample(x2, min_len, "x2"))
    statistic = _batch_statistic_ind_equal if equal_var else _batch_statistic_ind_unequal
    return _test(samples, (None, None), statistic, select_q_ind, q, bootstrap, seed, DEFAULT_CONFIG)
