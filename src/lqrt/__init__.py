"""Robust location tests based on Lq-likelihood ratios.

Public surface: the three tests (`lqrtest_1samp`, `lqrtest_rel`,
`lqrtest_ind`), adaptive q selection, the reweighting fitters, classical
baseline tests, and the gross-error simulation harness.
"""

from .baselines import (
    ClassicalOutcome,
    rank_sum,
    sign_test,
    ttest_1samp,
    ttest_ind,
    ttest_rel,
    wilcoxon_signed_rank,
)
from .gemsim import (
    GrossErrorSpec,
    PowerEstimate,
    ScenarioSpec,
    builtin_scenarios,
    run_scenario,
    sample_gem,
    sample_gem_paired,
)
from .lqmath import lq_likelihood
from .mlqe import (
    DEFAULT_CONFIG,
    VARIANCE_FLOOR,
    FitConfig,
    NormalFit,
    SharedMeanFit,
    SharedVarianceFit,
    fit_normal,
    fit_shared_mean,
    fit_shared_variance,
    fit_variance_known_mean,
)
from .ratio_test import (
    Q_GRID,
    QSelectionReport,
    TestOutcome,
    lqrtest_1samp,
    lqrtest_ind,
    lqrtest_rel,
    select_q_1samp,
    select_q_ind,
    statistic_1samp,
    statistic_ind_equal_var,
    statistic_ind_unequal_var,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalOutcome",
    "DEFAULT_CONFIG",
    "FitConfig",
    "GrossErrorSpec",
    "NormalFit",
    "PowerEstimate",
    "Q_GRID",
    "QSelectionReport",
    "ScenarioSpec",
    "SharedMeanFit",
    "SharedVarianceFit",
    "TestOutcome",
    "VARIANCE_FLOOR",
    "builtin_scenarios",
    "fit_normal",
    "fit_shared_mean",
    "fit_shared_variance",
    "fit_variance_known_mean",
    "lq_likelihood",
    "lqrtest_1samp",
    "lqrtest_ind",
    "lqrtest_rel",
    "rank_sum",
    "run_scenario",
    "sample_gem",
    "sample_gem_paired",
    "select_q_1samp",
    "select_q_ind",
    "sign_test",
    "statistic_1samp",
    "statistic_ind_equal_var",
    "statistic_ind_unequal_var",
    "ttest_1samp",
    "ttest_ind",
    "ttest_rel",
    "wilcoxon_signed_rank",
]
