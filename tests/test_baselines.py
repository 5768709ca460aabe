import math
import time

import mpmath as mp
import numpy as np
import pytest
from lqrt import baselines
from scipy import special

from _oracles import signed_rank_enum_pvalue, sign_test_exact_pvalue, t_pvalue_quadrature

mp.mp.dps = 30

# Frozen from the quadrature / high-precision references.
P_T1SAMP_12345_VS_2 = 0.23019964108049873  # t = sqrt(2), df = 4
T_IND_POOLED = -7.071067811865475  # [0,2] vs [10,12]
P_IND_POOLED = 0.019419324309079843  # df = 2
RANKSUM_Z = -1.9639610121239315
RANKSUM_P = 0.04953461343562674


def _t_and_p(out):
    return out.statistic, out.pvalue


class TestTTest1Samp:
    def test_centered_sample(self):
        out = baselines.ttest_1samp([1.0, 2.0, 3.0, 4.0, 5.0], 3.0)
        assert out.statistic == 0.0
        assert out.pvalue == 1.0
        assert out.method == "t_1samp"

    def test_known_value(self):
        out = baselines.ttest_1samp([1.0, 2.0, 3.0, 4.0, 5.0], 2.0)
        assert out.statistic == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert out.pvalue == pytest.approx(P_T1SAMP_12345_VS_2, abs=1e-12)

    def test_reflection_invariance(self):
        x = np.array([0.3, 1.2, -0.7, 2.5, 0.1])
        a = baselines.ttest_1samp(x, 0.4)
        b = baselines.ttest_1samp(-x, -0.4)
        assert a.pvalue == b.pvalue
        assert a.statistic == -b.statistic

    def test_zero_variance_conventions(self):
        assert baselines.ttest_1samp([2.0, 2.0, 2.0], 2.0).pvalue == 1.0
        assert baselines.ttest_1samp([2.0, 2.0, 2.0], 1.0).pvalue == 0.0
        # the mean of seven 1.7s rounds, which leaves a variance near 1e-32: still constant
        assert _t_and_p(baselines.ttest_1samp([1.7] * 7, 1.7)) == (0.0, 1.0)
        assert _t_and_p(baselines.ttest_1samp([1.7] * 7, 0.0)) == (math.inf, 0.0)
        assert _t_and_p(baselines.ttest_rel([1.7] * 7, [0.0] * 7)) == (math.inf, 0.0)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(50)
        for df in range(1, 101):
            t = float(rng.uniform(-10, 10))
            p = baselines._t_two_sided(t, df)
            assert abs(p - t_pvalue_quadrature(t, df)) <= 1e-8

    def test_monotone_in_statistic(self):
        for df in (2, 5, 30):
            ps = [baselines._t_two_sided(t, df) for t in (0.0, 0.5, 1.0, 2.0, 5.0, 9.0)]
            assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestTTestScale:
    # x ~ N(1, 1) and y ~ N(0, 1), 30 each, from one generator
    _rng = np.random.default_rng(0)
    X = _rng.normal(1, 1, 30)
    Y = _rng.normal(0, 1, 30)
    MU0 = 0.3

    def _outcomes(self, s):
        x, y = self.X * s, self.Y * s
        outs = [baselines.ttest_1samp(x, self.MU0 * s), baselines.ttest_ind(x, y),
                baselines.ttest_ind(x, y, equal_var=False)]
        return [(out.statistic, out.pvalue) for out in outs]

    def test_power_of_two_scales_keep_every_bit(self):
        want = self._outcomes(1.0)
        for k in range(-1000, 1001):
            assert self._outcomes(2.0**k) == want, k

    def test_welch_df_when_one_sample_is_constant_and_the_other_tiny(self):
        # y's spread is 1e-80 to 1e-150 of the largest magnitude: its squared variance used to underflow, df = 0/0
        y = np.array([1.0, 2.0, 3.0])
        for s in (1e-80, 1e-100, 1e-150):
            out = baselines.ttest_ind([5.0, 5.0, 5.0], y * s, equal_var=False)
            assert math.isfinite(out.statistic)
            assert out.pvalue == baselines._t_two_sided(out.statistic, 2.0)  # df = m - 1 when x is constant

    @pytest.mark.parametrize("s", [1e-170, 1e-160, 1e-155, 1e150, 1e160, 1e200])
    def test_extreme_scales(self, s):
        # the variance used to overflow or underflow here: t = 0, t = inf, or a Welch df of nan
        for (t, p), (t1, p1) in zip(self._outcomes(s), self._outcomes(1.0)):
            assert t == pytest.approx(t1, rel=1e-13)
            assert p == pytest.approx(p1, rel=1e-13)

    def test_null_beyond_the_data_by_more_than_the_exponent_range(self):
        # mu0 divided by the data's power of two overflows: t is -inf, p is 0
        assert _t_and_p(baselines.ttest_1samp(self.X * 1e-300, 1e10)) == (-math.inf, 0.0)


class TestTTestRel:
    def test_identical_samples(self):
        x = np.arange(5.0)
        assert baselines.ttest_rel(x, x).pvalue == 1.0

    def test_reduces_to_one_sample_on_differences(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.zeros(5)
        rel = baselines.ttest_rel(x, y)
        one = baselines.ttest_1samp(x, 0.0)
        assert rel.statistic == one.statistic
        assert rel.pvalue == one.pvalue

    def test_antisymmetry(self):
        rng = np.random.default_rng(51)
        x = rng.normal(0, 1, 12)
        y = rng.normal(0.5, 1, 12)
        ab = baselines.ttest_rel(x, y)
        ba = baselines.ttest_rel(y, x)
        assert ab.statistic == -ba.statistic
        assert ab.pvalue == ba.pvalue

    def test_pairs_whose_differences_overflow(self):
        # finite pairs whose x - y overflow: the differences used to be formed before any rescaling
        x = np.array([1.0, 1.2, 0.9, 1.1]) * 1e308
        y = -np.array([0.9, 1.1, 1.0, 1.3]) * 1e308
        got = baselines.ttest_rel(x, y)
        assert got == baselines.ttest_rel(x / 4, y / 4)
        assert math.isfinite(got.statistic) and 0.0 < got.pvalue < 1.0


class TestTTestInd:
    def test_identical_samples(self):
        x = np.arange(6.0)
        out = baselines.ttest_ind(x, x)
        assert out.statistic == 0.0 and out.pvalue == 1.0

    def test_pooled_known_value(self):
        out = baselines.ttest_ind([0.0, 2.0], [10.0, 12.0], equal_var=True)
        assert out.statistic == pytest.approx(T_IND_POOLED, rel=1e-15)
        assert out.pvalue == pytest.approx(P_IND_POOLED, abs=1e-12)
        assert out.method == "t_ind_pooled"

    def test_welch_equals_pooled_for_balanced_equal_variances(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = x + 0.7  # same sample variance, same n
        pooled = baselines.ttest_ind(x, y, equal_var=True)
        welch = baselines.ttest_ind(x, y, equal_var=False)
        assert welch.statistic == pytest.approx(pooled.statistic, rel=1e-12)
        assert welch.pvalue == pytest.approx(pooled.pvalue, rel=1e-12)

    def test_degenerate_conventions(self):
        for equal_var in (True, False):
            assert baselines.ttest_ind([1.0, 1.0], [1.0, 1.0], equal_var).pvalue == 1.0
            assert baselines.ttest_ind([1.0, 1.0], [2.0, 2.0], equal_var).pvalue == 0.0
            # constant samples whose means round
            assert _t_and_p(baselines.ttest_ind([1.7] * 7, [1.7] * 5, equal_var)) == (0.0, 1.0)
            assert _t_and_p(baselines.ttest_ind([1.7] * 7, [0.3] * 5, equal_var)) == (math.inf, 0.0)


class TestWilcoxonSignedRank:
    def test_antisymmetric_differences(self):
        out = baselines.wilcoxon_signed_rank(np.array([-2.0, -1.0, 1.0, 2.0]))
        assert out.pvalue == 1.0

    def test_all_positive_exact_tail(self):
        out = baselines.wilcoxon_signed_rank(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert out.statistic == 0.0
        assert out.pvalue == pytest.approx(0.0625, abs=1e-12)

    def test_negation_invariance(self):
        rng = np.random.default_rng(52)
        d = rng.normal(0.3, 1, 15)
        assert baselines.wilcoxon_signed_rank(d).pvalue == pytest.approx(
            baselines.wilcoxon_signed_rank(-d).pvalue, abs=1e-12
        )

    def test_paired_mode_equals_differences(self):
        rng = np.random.default_rng(53)
        x = rng.normal(0, 1, 10)
        y = rng.normal(0, 1, 10)
        assert baselines.wilcoxon_signed_rank(x, y) == baselines.wilcoxon_signed_rank(x - y)

    def test_all_zero_differences(self):
        assert baselines.wilcoxon_signed_rank(np.zeros(6)).pvalue == 1.0

    def test_pairs_whose_differences_overflow(self):
        # x - y overflowed to +-inf, whose ranks tie: the test silently returned 2.5 and p = 1
        x = np.array([1.7e308, -0.9e308, 0.5])
        y = np.array([-1.7e308, 1.0e308, 0.1])
        got = baselines.wilcoxon_signed_rank(x, y)
        assert got == baselines.wilcoxon_signed_rank(x / 4, y / 4)
        assert (got.statistic, got.pvalue) == (2.0, 0.75)
        assert baselines.wilcoxon_signed_rank([], []) == baselines.ClassicalOutcome(0.0, 1.0, "wilcoxon_signed_rank")

    def test_exact_matches_enumeration_up_to_n12(self):
        rng = np.random.default_rng(54)
        for n in range(1, 13):
            for _ in range(4):
                # integer-valued data produce plenty of tied magnitudes
                d = rng.integers(-4, 5, size=n).astype(float)
                got = baselines.wilcoxon_signed_rank(d).pvalue
                want = signed_rank_enum_pvalue(d)
                assert got == pytest.approx(want, abs=1e-12), (n, d)

    def test_normal_approximation_regime(self):
        rng = np.random.default_rng(55)
        d = rng.normal(0.5, 1, 60)
        out = baselines.wilcoxon_signed_rank(d)
        assert 0.0 <= out.pvalue <= 1.0
        # a clear shift should be detected
        assert out.pvalue < 0.01


class TestRankSum:
    def test_balanced_ties_give_p_one(self):
        out = baselines.rank_sum([1.0, 2.0], [1.0, 2.0])
        assert out.statistic == 0.0 and out.pvalue == 1.0

    def test_known_value(self):
        out = baselines.rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert out.statistic == pytest.approx(RANKSUM_Z, rel=1e-14)
        assert out.pvalue == pytest.approx(RANKSUM_P, abs=1e-12)

    def test_swap_invariance(self):
        rng = np.random.default_rng(56)
        x = rng.normal(0, 1, 8)
        y = rng.normal(0.5, 1, 11)
        assert baselines.rank_sum(x, y).pvalue == pytest.approx(
            baselines.rank_sum(y, x).pvalue, abs=1e-12
        )


class TestSignTest:
    def test_perfect_balance(self):
        x = np.array([-3.0, -2.0, -1.5, -0.5, -0.1, 0.1, 0.5, 1.5, 2.0, 3.0])
        assert baselines.sign_test(x, 0.0).pvalue == 1.0

    def test_eight_of_ten(self):
        x = np.array([1.0] * 8 + [-1.0] * 2)
        out = baselines.sign_test(x, 0.0)
        assert out.pvalue == pytest.approx(0.109375, abs=0)
        assert out.statistic == 3.0  # 8 - 10/2

    def test_reflection_invariance(self):
        rng = np.random.default_rng(57)
        x = rng.normal(0.4, 1, 21)
        assert baselines.sign_test(x, 0.0).pvalue == baselines.sign_test(-x, 0.0).pvalue

    def test_all_equal_mu0(self):
        assert baselines.sign_test(np.full(5, 2.0), 2.0).pvalue == 1.0

    def test_exact_rational_values(self):
        rng = np.random.default_rng(58)
        for n in (1, 2, 5, 12, 30):
            x = rng.normal(0.2, 1, n)
            got = baselines.sign_test(x, 0.0).pvalue
            assert got == sign_test_exact_pvalue(x, 0.0)

    def test_exact_up_to_the_cutover(self):
        limit = baselines._SIGN_EXACT_LIMIT
        for n in (limit - 1, limit, limit + 1, limit + 2):
            for above in (n // 2, n // 2 + 20, 3 * n // 5, n - 3):
                x = np.concatenate([np.full(above, 1.0), np.full(n - above, -1.0)])
                exact = min(1.0, 2.0 * baselines.binomial_tail(n, max(above, n - above)))
                got = baselines.sign_test(x, 0.0).pvalue
                if n <= limit:
                    assert got == exact, (n, above)
                else:
                    assert abs(got - exact) <= 1e-13 * exact, (n, above)

    def test_tail_at_a_million(self):
        # P(K >= k) for k from n/2 to n/2 + 3000 (6 sigma), against tails summed at 30 digits with the
        # term ratio (n - i)/(i + 1); terms past n/2 + 12 000 are below 1e-100 of every tail
        n = 10**6
        with mp.workdps(30):
            term = mp.binomial(n, n // 2) / mp.mpf(2) ** n
            terms = []
            for i in range(n // 2, n // 2 + 12_001):
                terms.append(term)
                term = term * (n - i) / (i + 1)
            tails = []
            total = mp.mpf(0)
            for term in reversed(terms):
                total += term
                tails.append(total)
            tails.reverse()
        slowest = 0.0
        for j in range(3001):
            k = n // 2 + j
            start = time.perf_counter()
            got = baselines.regularized_incomplete_beta(k, n - k + 1, 0.5)
            slowest = max(slowest, time.perf_counter() - start)
            assert abs(got - tails[j]) <= 1e-13 * tails[j], k
        assert slowest < 0.05
        for k in (n // 2, n // 2 + 1, n // 2 + 1500, n // 2 + 3000):
            x = np.concatenate([np.full(k, 1.0), np.full(n - k, -1.0)])
            start = time.perf_counter()
            got = baselines.sign_test(x, 0.0).pvalue
            assert time.perf_counter() - start < 0.05
            want = min(1, 2 * tails[k - n // 2])
            assert abs(got - want) <= 1e-13 * want, k


class TestSpecialFunctions:
    def test_beta_boundaries(self):
        assert baselines.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert baselines.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_beta_against_high_precision(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            a = float(rng.uniform(0.5, 60))
            b = float(rng.uniform(0.5, 60))
            x = float(rng.uniform(0, 1))
            assert_beta_accurate(a, b, x)

    def test_beta_over_the_t_tests_reach(self):
        # a = df/2 with df from 1 to 1e6, integral and not (Welch), b = 1/2, x = df/(df + t^2), |t| from 1e-6 to 40
        rng = np.random.default_rng(61)
        for i in range(2000):
            df = 10 ** rng.uniform(0, 6)
            df = float(round(df)) if i % 2 else float(df)
            t = 10 ** rng.uniform(-6, math.log10(40))
            a, b, x = df / 2, 0.5, df / (df + t * t)
            assert_beta_accurate(a, b, x)
            total = baselines.regularized_incomplete_beta(a, b, x) + baselines.regularized_incomplete_beta(b, a, 1 - x)
            assert abs(total - 1.0) <= 4 * np.finfo(float).eps, (a, x)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            baselines.regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            baselines.regularized_incomplete_beta(1.0, 2.0, 1.5)
        for a, b in ((math.inf, 2.0), (2.0, math.inf)):
            with pytest.raises(ValueError, match="a and b must be finite"):
                baselines.regularized_incomplete_beta(a, b, 0.5)

    def test_normal_cdf(self):
        assert baselines.normal_cdf(0.0) == 0.5
        assert abs(baselines.normal_cdf(1.959964) - 0.975) < 1e-6
        for z in (-8.0, -1.0, 0.3, 2.5, 8.0):
            assert abs(baselines.normal_cdf(z) - float(mp.ncdf(z))) <= 1e-10

    def test_binomial_tail(self):
        assert baselines.binomial_tail(10, 0) == 1.0
        assert baselines.binomial_tail(10, 8) == pytest.approx(56 / 1024, abs=0)
        for n in (1, 7, 30):
            for k in range(n + 1):
                direct = sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n
                assert baselines.binomial_tail(n, k) == direct
        with pytest.raises(ValueError):
            baselines.binomial_tail(5, 6)

    @pytest.mark.parametrize("n", [50, 1000, 3000])
    def test_binomial_tail_recurrence_is_bitwise_the_comb_sum(self, n):
        # both are the same exact rational, rounded once
        for k in sorted({0, 1, n // 3, n // 2 - 7, n // 2, n // 2 + 1, n // 2 + n // 20, 3 * n // 5, n - 1, n}):
            direct = sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n
            assert baselines.binomial_tail(n, k) == direct

    def test_sign_test_at_large_n_against_high_precision(self):
        # past the exact-sum cutover, so the tail is the incomplete beta I_{1/2}(5120, 4881)
        n, above = 10_000, 4_880
        x = np.concatenate([np.full(above, 1.0), np.full(n - above, -1.0)])
        with mp.workdps(40):
            want = 2 * mp.fsum(mp.binomial(n, i) for i in range(n - above, n + 1)) / mp.mpf(2) ** n
        got = baselines.sign_test(x, 0.0).pvalue
        assert 0.01 < got < 0.05
        assert abs(got - float(want)) <= 1e-13 * float(want)


def assert_beta_accurate(a, b, x):
    # relative error at most 1e-13, or scipy's own where that is larger, down to 1e-300; below it absolute
    with mp.workdps(40):
        want = mp.betainc(a, b, 0, x, regularized=True)
        got = baselines.regularized_incomplete_beta(a, b, x)
        if want >= 1e-300:
            bound = max(1e-13, float(abs(special.betainc(a, b, x) - want) / want))
            assert float(abs(got - want) / want) <= bound, (a, b, x)
        else:
            assert abs(got - want) <= 1e-300, (a, b, x)


def test_all_pvalues_in_unit_interval():
    rng = np.random.default_rng(60)
    for _ in range(50):
        x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), 15)
        y = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), 15)
        outs = [
            baselines.ttest_1samp(x, 0.0),
            baselines.ttest_rel(x, y),
            baselines.ttest_ind(x, y, True),
            baselines.ttest_ind(x, y, False),
            baselines.wilcoxon_signed_rank(x, y),
            baselines.rank_sum(x, y),
            baselines.sign_test(x, 0.0),
        ]
        for out in outs:
            assert 0.0 <= out.pvalue <= 1.0


@pytest.mark.parametrize("name, call", [
    ("ttest_1samp", lambda x, y: baselines.ttest_1samp(x, 0.0)),
    ("ttest_rel", lambda x, y: baselines.ttest_rel(y, x)),
    ("ttest_ind", lambda x, y: baselines.ttest_ind(y, x, False)),
    ("wilcoxon_signed_rank", lambda x, y: baselines.wilcoxon_signed_rank(x)),
    ("rank_sum", lambda x, y: baselines.rank_sum(x, y)),
    ("sign_test", lambda x, y: baselines.sign_test(x, 0.0)),
])
def test_nan_input_rejected(name, call):
    # a NaN must be named, not ranked into a p-value or passed to the incomplete beta
    rng = np.random.default_rng(314)
    x = rng.normal(0.3, 1.0, 50)
    y = rng.normal(0.0, 1.0, 50)
    x[7] = np.nan
    with pytest.raises(ValueError, match=r"^[xy] contains NaN"):
        call(x, y)
