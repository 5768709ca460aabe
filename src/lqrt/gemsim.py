"""Gross-error-model data generation and Monte Carlo size/power runs.

Data come from a two-component normal scale mixture: with probability
eps an observation is drawn from the wide outlier component N(mu, tau2)
instead of N(mu, sigma2).  The runner replays each scenario over a
contamination grid and reports rejection rates with binomial confidence
intervals.  Every repetition draws from a substream keyed by
(seed, contamination index, repetition index), so results do not depend
on evaluation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import baselines, ratio_test
from .lqmath import check_alpha, check_count, check_eps, check_finite

__all__ = [
    "GrossErrorSpec",
    "ScenarioSpec",
    "PowerEstimate",
    "SETUPS",
    "TESTS_BY_SETUP",
    "DEFAULT_EPS_GRID",
    "sample_gem",
    "sample_gem_paired",
    "builtin_scenarios",
    "run_scenario",
]

SETUPS = ("one_sample", "paired", "unpaired_equal_var", "unpaired_unequal_var")

TESTS_BY_SETUP = {
    "one_sample": ("lqrt", "t", "wilcoxon", "sign"),
    "paired": ("lqrt", "t", "wilcoxon", "sign"),
    "unpaired_equal_var": ("lqrt", "t", "ranksum"),
    "unpaired_unequal_var": ("lqrt", "t", "ranksum"),
}

# Default contamination grid; the mixture model requires eps < 0.5.
DEFAULT_EPS_GRID = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

# Most elements that one stacked lqrt call may index: replicates x max(bootstrap
# + 1 observed row, q-grid rows) x the row width of all samples.  The call holds
# an index of at most 4 bytes per element and builds its float rows a window
# at a time (mlqe.WINDOW_ELEMENTS).  run_scenario stacks as many whole
# replicates as fit, at least one, so its memory does not grow with reps.
STACK_ELEMENTS = 2**19


@dataclass(frozen=True)
class GrossErrorSpec:
    """Mixture parameters: location, inlier variance, outlier variance, contamination rate."""

    mu: float
    sigma2: float
    tau2: float
    eps: float

    def __post_init__(self):
        for name in ("mu", "sigma2", "tau2"):
            object.__setattr__(self, name, check_finite(getattr(self, name), name))
        object.__setattr__(self, "eps", check_eps(self.eps))
        if not 0.0 < self.sigma2 < self.tau2:
            raise ValueError("need 0 < sigma2 < tau2")


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation set-up: null and alternative means, variances, sample size."""

    setup: str
    means_null: tuple
    means_alt: tuple
    variances: tuple  # (sigma1_sq, sigma2_sq or None, tau_sq)
    n: int = 50

    def __post_init__(self):
        if self.setup not in SETUPS:
            raise ValueError(f"unknown setup {self.setup!r}")
        count = 1 if self.setup == "one_sample" else 2
        for name in ("means_null", "means_alt"):
            means = tuple(getattr(self, name))
            if len(means) != count:
                raise ValueError(f"{name} must hold {count} value(s) for setup {self.setup!r}, got {len(means)}")
            object.__setattr__(self, name, tuple(check_finite(m, name) for m in means))
        if len(self.variances) != 3 or (self.setup.startswith("unpaired") and self.variances[1] is None):
            raise ValueError(f"variances must be (sigma1_sq, sigma2_sq, tau_sq) for setup {self.setup!r}")
        object.__setattr__(self, "n", check_count(self.n, "n", minimum=2))


@dataclass(frozen=True)
class PowerEstimate:
    """Monte Carlo rejection rate with a 95% normal-approximation interval."""

    rejection_rate: float
    ci_low: float
    ci_high: float
    repetitions: int
    alpha: float
    epsilon: float
    test_name: str
    seed: int


def _draw(spec: GrossErrorSpec, n: int, rng: np.random.Generator, k: int) -> list[np.ndarray]:
    # n contamination indicators, then k vectors of n standard normals that share them
    n = check_count(n, "n")
    outlier = rng.random(n) < spec.eps
    sd = np.where(outlier, math.sqrt(spec.tau2), math.sqrt(spec.sigma2))
    return [spec.mu + sd * rng.standard_normal(n) for _ in range(k)]


def sample_gem(spec: GrossErrorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations from the mixture.

    Consumes the stream in a fixed order: n contamination indicators,
    then n standard normals.
    """
    return _draw(spec, n, rng, 1)[0]


def sample_gem_paired(spec: GrossErrorSpec, n: int, rng: np.random.Generator):
    """Draw n pairs sharing one contamination indicator per pair.

    Either both members of a pair are inliers or both are outliers.  Both
    are centered at spec.mu; shift afterwards for unequal means.  Consumes
    n indicators, then n standard normals for x, then n for y.
    """
    return tuple(_draw(spec, n, rng, 2))


def builtin_scenarios() -> list[ScenarioSpec]:
    """The four study set-ups: n=50, unit inlier variance, outlier variance 50."""
    return [
        ScenarioSpec(
            setup="one_sample",
            means_null=(0.0,),
            means_alt=(0.34,),
            variances=(1.0, None, 50.0),
        ),
        ScenarioSpec(
            setup="paired",
            means_null=(0.0, 0.0),
            means_alt=(0.0, 0.50),
            variances=(1.0, 1.0, 50.0),
        ),
        ScenarioSpec(
            setup="unpaired_equal_var",
            means_null=(0.0, 0.0),
            means_alt=(0.0, 0.50),
            variances=(1.0, 1.0, 50.0),
        ),
        ScenarioSpec(
            setup="unpaired_unequal_var",
            means_null=(0.0, 0.0),
            means_alt=(0.0, 0.50),
            variances=(1.0, 0.01, 50.0),
        ),
    ]


def _generate(scenario: ScenarioSpec, eps: float, means, rng: np.random.Generator):
    s1, s2, tau2 = scenario.variances
    if scenario.setup == "one_sample":
        spec = GrossErrorSpec(means[0], s1, tau2, eps)
        return (sample_gem(spec, scenario.n, rng),)
    if scenario.setup == "paired":
        spec = GrossErrorSpec(0.0, s1, tau2, eps)
        x, y = sample_gem_paired(spec, scenario.n, rng)
        return x + means[0], y + means[1]
    x = sample_gem(GrossErrorSpec(means[0], s1, tau2, eps), scenario.n, rng)
    y = sample_gem(GrossErrorSpec(means[1], s2, tau2, eps), scenario.n, rng)
    return x, y


def _test_data(setup: str, data):
    # a paired test is the one-sample test of the differences against 0
    return (data[0] - data[1],) if setup == "paired" else data


def _pvalues(test: str, setup: str, datasets, seeds, bootstrap: int) -> list[float]:
    # the p-values of test on equal-size datasets: lqrt tests them in one stacked
    # call, with adaptive q, and a classical test takes them one at a time
    datasets = [_test_data(setup, d) for d in datasets]
    equal_var = setup == "unpaired_equal_var"
    if test == "lqrt":
        samples = tuple(np.stack(s) for s in zip(*datasets))
        outcomes = ratio_test._test(samples, equal_var, None, bootstrap, seeds)
        return [out.pvalue for out in outcomes]
    classical = {
        "t": lambda d: (baselines.ttest_1samp(d[0], 0.0) if len(d) == 1
                        else baselines.ttest_ind(*d, equal_var=equal_var)),
        "wilcoxon": lambda d: baselines.wilcoxon_signed_rank(d[0]),
        "sign": lambda d: baselines.sign_test(d[0], 0.0),
        "ranksum": lambda d: baselines.rank_sum(*d),
    }[test]
    return [classical(d).pvalue for d in datasets]


def run_scenario(
    scenario: ScenarioSpec,
    test: str,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    reps: int = 500,
    alpha: float = 0.05,
    bootstrap: int = 200,
    seed: Optional[int] = None,
    under_null: bool = False,
) -> list[PowerEstimate]:
    """Rejection rate of `test` for each contamination level.

    under_null=False generates from the alternative means (power);
    under_null=True generates from the null means (size).  A repetition
    rejects when its p-value is at or below alpha.
    """
    reps = check_count(reps, "reps")
    bootstrap = check_count(bootstrap, "bootstrap")
    alpha = check_alpha(alpha)
    if test not in TESTS_BY_SETUP[scenario.setup]:
        raise ValueError(f"test {test!r} is not available for setup {scenario.setup!r}")
    if test == "lqrt":
        check_count(scenario.n, "n", minimum=ratio_test._min_len(None))  # lqrt chooses q adaptively
    eps_grid = [check_eps(eps) for eps in eps_grid]
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    means = scenario.means_null if under_null else scenario.means_alt

    def replicates():
        # (eps index, data, resampling seed) of every repetition, in (eps, rep) order
        for e, eps in enumerate(eps_grid):
            for r in range(reps):
                data_ss, boot_ss = np.random.SeedSequence(seed, spawn_key=(e, r)).spawn(2)
                yield e, _generate(scenario, eps, means, np.random.default_rng(data_ss)), boot_ss

    # whole replicates per call, so a stacked lqrt call indexes at most STACK_ELEMENTS elements
    width = scenario.n * (1 if scenario.setup in ("one_sample", "paired") else 2)
    per_call = max(1, STACK_ELEMENTS // (max(bootstrap + 1, len(ratio_test.Q_GRID)) * width))
    rejections = [0] * len(eps_grid)
    todo = replicates()
    while chunk := list(itertools.islice(todo, per_call)):
        es, datasets, seeds = zip(*chunk)
        for e, pvalue in zip(es, _pvalues(test, scenario.setup, datasets, seeds, bootstrap)):
            rejections[e] += pvalue <= alpha

    estimates = []
    for eps, hits in zip(eps_grid, rejections):
        rate = hits / reps
        half = 1.96 * math.sqrt(rate * (1.0 - rate) / reps)
        estimates.append(
            PowerEstimate(
                rejection_rate=rate,
                ci_low=rate - half,
                ci_high=rate + half,
                repetitions=reps,
                alpha=alpha,
                epsilon=eps,
                test_name=test,
                seed=seed,
            )
        )
    return estimates
