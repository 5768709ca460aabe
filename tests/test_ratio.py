import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import lqrt
from lqrt import lqmath, mlqe, ratio_test
from lqrt.mlqe import FitConfig

from _oracles import (
    fit_normal_oracle,
    fit_shared_mean_oracle,
    lq_likelihood_oracle,
    select_q_oracle,
)

TIGHT = FitConfig(tol=1e-12, max_iter=5000)

# closed-form Gaussian LRT value for x=[0,1,2], mu0=0: 3*ln(5/2)
STAT_012 = 2.7488721956224652
# pooled-variance Gaussian LRT for [0,2] vs [10,12]: 4*ln(26)
STAT_EQVAR = 13.032386152085929


def contaminated(rng, n=50, n_out=5, mu=0.0):
    return np.concatenate([rng.normal(mu, 1.0, n - n_out), rng.normal(mu, np.sqrt(50.0), n_out)])


class TestStatistic1Samp:
    def test_centered_sample_is_zero(self):
        assert lqrt.statistic_1samp([-1.0, 0.0, 1.0], 0.0, 1.0) <= 1e-12

    def test_gaussian_lrt_value(self):
        assert lqrt.statistic_1samp([0.0, 1.0, 2.0], 0.0, 1.0) == pytest.approx(
            STAT_012, abs=1e-10
        )

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.integers(5, 60))
            q = rng.uniform(0.5, 1.0)
            assert lqrt.statistic_1samp(x, rng.uniform(-2, 2), q) >= 0.0

    def test_preclamp_negatives_are_tiny(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(100):
            x = contaminated(rng, n=25, n_out=3)
            q = rng.uniform(0.5, 1.0)
            mu0 = rng.uniform(-1, 1)
            alt = lqrt.fit_normal(x, q)
            nul = lqrt.fit_variance_known_mean(x, mu0, q)
            raw = 2.0 * (
                lqmath.lq_likelihood(x, alt.mu, alt.sigma2, q)
                - lqmath.lq_likelihood(x, mu0, nul.sigma2, q)
            )
            worst = min(worst, raw)
        assert worst > -1e-6

    def test_location_invariance(self):
        rng = np.random.default_rng(23)
        x = contaminated(rng)
        for c in (-5.0, 3.0):
            for q in (0.6, 1.0):
                assert_allclose(
                    lqrt.statistic_1samp(x + c, 0.25 + c, q),
                    lqrt.statistic_1samp(x, 0.25, q),
                    rtol=1e-8,
                    atol=1e-8,
                )

    def test_lrt_equivalence_at_q1(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.3, 3.0), n)
            mu0 = rng.uniform(-3, 3)
            s2_alt = np.mean((x - x.mean()) ** 2)
            s2_nul = np.mean((x - mu0) ** 2)
            expected = n * math.log(s2_nul / s2_alt)
            assert abs(lqrt.statistic_1samp(x, mu0, 1.0) - expected) <= 1e-6


class TestStatisticInd:
    def test_identical_samples_equal_var(self):
        rng = np.random.default_rng(25)
        x = rng.normal(0, 1, 30)
        assert lqrt.statistic_ind_equal_var(x, x, 0.8) <= 1e-8

    def test_identical_samples_unequal_var(self):
        rng = np.random.default_rng(26)
        x = rng.normal(0, 1, 30)
        assert lqrt.statistic_ind_unequal_var(x, x, 0.8) <= 1e-8

    def test_equal_var_gaussian_value(self):
        assert lqrt.statistic_ind_equal_var([0.0, 2.0], [10.0, 12.0], 1.0) == pytest.approx(
            STAT_EQVAR, abs=1e-9
        )

    def test_swap_symmetry(self):
        rng = np.random.default_rng(27)
        x = contaminated(rng, n=30, n_out=3)
        y = contaminated(rng, n=40, n_out=4, mu=0.5)
        for q in (0.6, 1.0):
            assert_allclose(
                lqrt.statistic_ind_equal_var(x, y, q),
                lqrt.statistic_ind_equal_var(y, x, q),
                rtol=1e-8,
                atol=1e-8,
            )
            assert_allclose(
                lqrt.statistic_ind_unequal_var(x, y, q),
                lqrt.statistic_ind_unequal_var(y, x, q),
                rtol=1e-8,
                atol=1e-8,
            )

    def test_unequal_var_matches_fixed_point_oracle(self):
        x = [-1.0, 1.0]
        y = [9.0, 11.0]
        q = 1.0
        mx, s2x = fit_normal_oracle(x, q)
        my, s2y = fit_normal_oracle(y, q)
        mu0, s2x0, s2y0 = fit_shared_mean_oracle(x, y, q)
        expected = 2.0 * (
            lq_likelihood_oracle(x, mx, s2x, q)
            + lq_likelihood_oracle(y, my, s2y, q)
            - lq_likelihood_oracle(x, mu0, s2x0, q)
            - lq_likelihood_oracle(y, mu0, s2y0, q)
        )
        got = lqrt.statistic_ind_unequal_var(x, y, q, TIGHT)
        assert_allclose(got, max(expected, 0.0), rtol=1e-8)


class TestBootstrapPvalues:
    def test_symmetric_null_statistic_gives_large_pvalue(self):
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        assert lqrt.statistic_1samp(x, 0.0, 1.0) <= 1e-12
        assert lqrt.lqrtest_1samp(x, 0.0, q=1.0, bootstrap=200, seed=0).pvalue >= 0.9

    def test_pvalue_on_lattice(self):
        rng = np.random.default_rng(29)
        x = rng.normal(0.2, 1, 20)
        for B in (1, 7, 100):
            p = lqrt.lqrtest_1samp(x, 0.0, q=0.8, bootstrap=B, seed=5).pvalue
            assert p * B == pytest.approx(round(p * B), abs=1e-12)
            assert 0.0 <= p <= 1.0

    def test_contamination_ordering_robust_q_rejects_harder(self):
        rng = np.random.default_rng(314)
        x = np.concatenate([rng.normal(0.32, 1, 45), rng.normal(0.32, np.sqrt(50), 5)])
        p_robust = lqrt.lqrtest_1samp(x, 0.0, q=0.6, bootstrap=1000, seed=1).pvalue
        p_efficient = lqrt.lqrtest_1samp(x, 0.0, q=0.9, bootstrap=1000, seed=1).pvalue
        assert p_robust <= p_efficient

    def test_two_sample_identical_inputs(self):
        rng = np.random.default_rng(30)
        x = rng.normal(0, 1, 25)
        for equal_var in (True, False):
            assert lqrt.lqrtest_ind(x, x, equal_var=equal_var, q=0.8, bootstrap=100, seed=3).pvalue >= 0.9

    def test_two_sample_null_behavior_many_seeds(self):
        rng = np.random.default_rng(31)
        x = rng.normal(0, 1, 50)
        y = rng.normal(0, 1, 70)
        wins = sum(
            lqrt.lqrtest_ind(x, y, q=0.9, bootstrap=100, seed=meta).pvalue > 0.5
            for meta in range(100)
        )
        assert wins >= 95

    def test_determinism(self):
        rng = np.random.default_rng(32)
        x = contaminated(rng, n=30, n_out=3)
        a = lqrt.lqrtest_1samp(x, 0.0, q=0.7, bootstrap=150, seed=99)
        b = lqrt.lqrtest_1samp(x, 0.0, q=0.7, bootstrap=150, seed=99)
        assert a == b


class TestSelectQ:
    def test_grid_membership_and_shape(self):
        rng = np.random.default_rng(33)
        report = lqrt.select_q_1samp(rng.normal(0, 1, 40))
        assert report.q_hat in lqrt.Q_GRID
        assert len(report.grid) == 51
        assert report.grid[0][0] == 0.5 and report.grid[-1][0] == 1.0
        assert report.objective == min(v for _, v in report.grid)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(8):
            x = contaminated(rng, n=40, n_out=4)
            report = lqrt.select_q_1samp(x, TIGHT)
            q_hat, _, objectives = select_q_oracle(x)
            assert report.q_hat == q_hat
            assert_allclose([v for _, v in report.grid], objectives, rtol=1e-6)

    def test_identical_samples_reduce_to_one_sample_choice(self):
        rng = np.random.default_rng(35)
        x = contaminated(rng, n=40, n_out=4)
        rep_two = lqrt.select_q_ind(x, x)
        rep_one = lqrt.select_q_1samp(x)
        assert rep_two.q_hat == rep_one.q_hat
        assert_allclose(
            [v for _, v in rep_two.grid], [2.0 * v for _, v in rep_one.grid], rtol=1e-12
        )

    def test_contamination_lowers_selected_q(self):
        rng = np.random.default_rng(36)
        clean, dirty = [], []
        for _ in range(30):
            clean.append(lqrt.select_q_1samp(rng.normal(0, 1, 200)).q_hat)
            dirty.append(lqrt.select_q_1samp(contaminated(rng, n=200, n_out=40)).q_hat)
        assert np.median(dirty) < np.median(clean)


class TestLqrtest1Samp:
    def test_null_not_rejected_and_alternative_rejected(self):
        rng = np.random.default_rng(314)
        x = rng.normal(0, 1, 50)
        keep = lqrt.lqrtest_1samp(x, 0.0, seed=1)
        assert keep.pvalue > 0.1  # clear fail-to-reject at the 5% level
        reject = lqrt.lqrtest_1samp(x, 1.0, seed=1)
        assert reject.pvalue == 0.0
        assert reject.statistic > keep.statistic

    def test_statistic_independent_of_bootstrap_count(self):
        rng = np.random.default_rng(38)
        x = rng.normal(0.1, 1, 50)
        small = lqrt.lqrtest_1samp(x, 0.0, bootstrap=100, seed=2)
        large = lqrt.lqrtest_1samp(x, 0.0, bootstrap=10_000, seed=2)
        assert small.statistic == large.statistic
        assert small.q == large.q
        assert large.bootstrap == 10_000

    def test_outcome_fields(self):
        rng = np.random.default_rng(39)
        out = lqrt.lqrtest_1samp(rng.normal(0, 1, 20), 0.0, q=0.8, bootstrap=50, seed=4)
        assert out.statistic >= 0.0
        assert 0.0 <= out.pvalue <= 1.0
        assert out.q == 0.8
        assert 0.0 <= out.degenerate_fraction <= 1.0

    def test_validation(self):
        rng = np.random.default_rng(40)
        with pytest.raises(ValueError):
            lqrt.lqrtest_1samp([1.0, 2.0], 0.0)  # q=None needs >= 3
        with pytest.raises(ValueError):
            lqrt.lqrtest_1samp(rng.normal(0, 1, 10), np.inf)
        with pytest.raises(ValueError):
            lqrt.lqrtest_1samp(rng.normal(0, 1, 10), 0.0, q=1.2)
        for q in (None, "abc"):
            # a q that is not a number is named, not a TypeError from float()
            with pytest.raises(ValueError, match=r"^q must satisfy 0 < q <= 1, got"):
                ratio_test.statistic_1samp(rng.normal(0, 1, 10), 0.0, q=q)
        with pytest.raises(ValueError):
            lqrt.lqrtest_1samp(rng.normal(0, 1, 10), 0.0, bootstrap=0)
        with pytest.raises(ValueError):
            lqrt.lqrtest_1samp([[1.0, 2.0], [3.0, 4.0]], 0.0)


    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_sample_sizes_at_the_index_type_limit(self, n):
        # 256 values are indexed by a 1-byte type; the statistic does not depend on it
        x = np.random.default_rng(n).normal(0.2, 1.0, n)
        out = lqrt.lqrtest_1samp(x, 0.0, q=0.8, bootstrap=30, seed=2)
        assert 0.0 <= out.pvalue <= 1.0 and out.bootstrap == 30
        assert out.statistic == lqrt.lqrtest_1samp(x, 0.0, q=0.8, bootstrap=5, seed=3).statistic
        for equal_var in (True, False):
            two = lqrt.lqrtest_ind(x, x[:100] + 0.5, q=0.8, equal_var=equal_var, bootstrap=30, seed=2)
            assert 0.0 <= two.pvalue <= 1.0


class TestLqrtestRel:
    def test_identical_pairs_degenerate(self):
        x = np.arange(10.0)
        out = lqrt.lqrtest_rel(x, x, seed=0)
        assert out.statistic == 0.0
        assert out.pvalue == 1.0
        assert out.degenerate_fraction == 1.0

    def test_shifted_pairs_rejected(self):
        rng = np.random.default_rng(314)
        x1 = rng.normal(0, 1, 50)
        x2 = rng.normal(1, 1, 50)
        out = lqrt.lqrtest_rel(x1, x2, seed=6)
        assert out.pvalue == 0.0

    def test_equals_one_sample_on_differences(self):
        rng = np.random.default_rng(41)
        x1 = rng.normal(0, 1, 30)
        x2 = rng.normal(0.2, 1, 30)
        rel = lqrt.lqrtest_rel(x1, x2, bootstrap=200, seed=12)
        one = lqrt.lqrtest_1samp(x1 - x2, 0.0, bootstrap=200, seed=12)
        assert rel == one

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            lqrt.lqrtest_rel([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_non_finite_input_named(self):
        x = np.arange(10.0)
        y = x.copy()
        y[3] = np.nan
        with pytest.raises(ValueError, match="x2 contains NaN"):
            lqrt.lqrtest_rel(x, y)
        with pytest.raises(ValueError, match="x1 contains NaN"):
            lqrt.lqrtest_rel(y, x)


class TestOneSampleShift:
    """The one-sample test of x against u is the test of x - u against 0, bit for bit."""

    @pytest.mark.parametrize("u", [0.25, -3.0, 1e6, 1e12])
    def test_null_is_subtracted_first(self, u):
        x = _readme_sample() + u
        d = x - u
        assert repr(lqrt.lqrtest_1samp(x, u, bootstrap=50, seed=3)) == repr(
            lqrt.lqrtest_1samp(d, 0.0, bootstrap=50, seed=3))
        assert repr(lqrt.lqrtest_1samp(x, u, q=0.7, bootstrap=50, seed=3)) == repr(
            lqrt.lqrtest_1samp(d, 0.0, q=0.7, bootstrap=50, seed=3))
        assert repr(lqrt.statistic_1samp(x, u, 0.7)) == repr(lqrt.statistic_1samp(d, 0.0, 0.7))

    def test_shift_of_a_trillion(self):
        # the fits used to run on data near 1e12, where the spacing of doubles (1.2e-4) stalls
        # their stop test: 16 of 100 resamples were counted degenerate
        x = _readme_sample()
        at_zero = lqrt.lqrtest_1samp(x, 0.0, seed=1)
        shifted = lqrt.lqrtest_1samp(x + 1e12, 1e12, seed=1)
        assert shifted.degenerate_fraction == 0.0 == at_zero.degenerate_fraction
        assert (shifted.q, shifted.pvalue) == (at_zero.q, at_zero.pvalue)


def _ratio_mp(blocks, alt, null, q):
    # max(2 (l1 - l0), 0) of one row at 50 digits: 2 sum(l1 - l0) at q = 1, else (2 / s) sum(e^(s l1) - e^(s l0))
    # with s = 1 - q, l being log f at a block's alternative and null fits.  The differences are summed as
    # such: at 1e100 the sum of (e^(s l) - 1) / s loses every digit even at 50.
    q = float(q[0])
    with mp.workdps(50):
        s = 1 - mp.mpf(q)  # exact: 1 - q rounds to no other float for q in [0.5, 1]
        total = mp.mpf(0)
        for xs, *fits in zip(blocks, alt, null):
            for v in xs[0]:
                l1, l0 = (-mp.log(2 * mp.pi * mp.mpf(s2[0])) / 2 - (mp.mpf(v) - mp.mpf(mu[0])) ** 2 / (2 * mp.mpf(s2[0]))
                          for mu, s2 in fits)
                total += l1 - l0 if q == 1.0 else mp.exp(s * l1) - mp.exp(s * l0)
        return max(2 * total / (1 if q == 1.0 else s), 0)


class TestStatisticAtAnyScale:
    """The ratio statistics are sums of weight differences, so they hold from 1e-100 to 1e150."""

    SCALES = (2.0 ** -20, 2.0 ** -30, 1e-8, 1e-9, 1e-100, 1e50, 1e100)

    @pytest.mark.parametrize("q", [0.5, 0.7, 0.9, 0.99, 1.0])
    def test_batch_statistics_against_mpmath(self, monkeypatch, q):
        # each statistic against 50 digits at the fits the package made for it; taken as the difference
        # of two Lq-likelihood sums, the statistic read 0 at 1e50 and 1e100 for q <= 0.7
        seen, ratio = [], ratio_test._ratio
        monkeypatch.setattr(ratio_test, "_ratio", lambda *args: seen.append(args) or ratio(*args))
        x, y = _readme_pair()
        for s in (1e-6, 1e-3, 1.0, 1e3, 1e50, 1e100, 1e150):
            for statistic, samples in ((lqrt.statistic_1samp, (x * s, 0.0)),
                                       (lqrt.statistic_ind_equal_var, (x * s, y * s)),
                                       (lqrt.statistic_ind_unequal_var, (x * s, y * s))):
                got = statistic(*samples, q)
                want = _ratio_mp(*seen[-1])
                assert want > 0 and abs(got - want) <= 1e-11 * want, (s, got, float(want))

    @pytest.mark.parametrize("s", SCALES)
    def test_readme_tests_at_scale(self, s):
        # the s = 1 q, p and degenerate_fraction at every scale, the statistic times s^(1 - q) within 1e-8:
        # at 2^-30, 1e-8 and 1e-9 the absolute variance floor chose q 0.5 and counted every resample
        # degenerate, at 1e-100 it gave p = 1, and at 1e100 the statistic cancelled to 0
        x, y = _readme_pair()
        for test, stat in ((lambda k: lqrt.lqrtest_1samp(x * k, 0.0, seed=1), 6.71064769),
                           (lambda k: lqrt.lqrtest_ind(x * k, y * k, seed=2), 4.86015069)):
            at_one, scaled = test(1.0), test(s)
            assert (scaled.q, scaled.pvalue, scaled.degenerate_fraction) == (
                at_one.q, at_one.pvalue, at_one.degenerate_fraction)
            assert at_one.statistic == pytest.approx(stat, rel=1e-9)
            assert scaled.statistic * s ** (1.0 - scaled.q) == pytest.approx(at_one.statistic, rel=1e-8)


class TestLqrtestInd:
    def test_null_not_rejected_both_flags(self):
        rng = np.random.default_rng(314)
        x = rng.normal(0, 1, 50)
        y = rng.normal(0, 1, 70)
        for equal_var in (True, False):
            out = lqrt.lqrtest_ind(x, y, equal_var=equal_var, seed=8)
            assert out.pvalue > 0.05  # fail to reject under both flags

    def test_shifted_alternative_rejected_both_flags(self):
        rng = np.random.default_rng(314)
        x = rng.normal(0, 1, 50)
        y = rng.normal(1, 1, 70)
        for equal_var in (True, False):
            out = lqrt.lqrtest_ind(x, y, equal_var=equal_var, seed=9)
            assert out.pvalue == 0.0

    def test_swap_leaves_statistic_and_decision(self):
        rng = np.random.default_rng(42)
        x = contaminated(rng, n=40, n_out=4, mu=0.3)
        y = contaminated(rng, n=55, n_out=5)
        ab = lqrt.lqrtest_ind(x, y, bootstrap=1000, seed=11)
        ba = lqrt.lqrtest_ind(y, x, bootstrap=1000, seed=11)
        assert_allclose(ab.statistic, ba.statistic, rtol=1e-8, atol=1e-8)
        assert (ab.pvalue <= 0.05) == (ba.pvalue <= 0.05)

    def test_seeded_outcome_reproducible(self):
        rng = np.random.default_rng(43)
        x = rng.normal(0, 1, 20)
        y = rng.normal(0, 1, 25)
        assert lqrt.lqrtest_ind(x, y, seed=77) == lqrt.lqrtest_ind(x, y, seed=77)


def test_degenerate_resamples_are_counted_not_fatal():
    # near-ties force variance clipping in some resamples; the p-value
    # must still come back with the degenerate share reported
    x = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
    out = lqrt.lqrtest_1samp(x, 1.0, q=0.5, bootstrap=200, seed=13)
    assert 0.0 <= out.pvalue <= 1.0
    assert out.degenerate_fraction > 0.0


def test_null_pvalues_roughly_uniform():
    rng = np.random.default_rng(44)
    pvals = []
    for _ in range(60):
        x = rng.normal(0, 1, 30)
        pvals.append(lqrt.lqrtest_1samp(x, 0.0, q=0.9, bootstrap=60, seed=int(rng.integers(2**32))).pvalue)
    assert 0.35 < np.mean(pvals) < 0.65


@pytest.mark.slow
def test_null_calibration_scale_free():
    # rejection rate at alpha=0.05 stays inside the exact binomial 99% band
    # for clean data at a non-unit scale (n=50, sigma=0.5)
    from scipy import stats as sps

    reps, B, alpha = 1000, 200, 0.05
    rejections = 0
    for r in range(reps):
        data_ss, boot_ss = np.random.SeedSequence(4550, spawn_key=(0, r)).spawn(2)
        x = np.random.default_rng(data_ss).normal(0.0, 0.5, 50)
        out = lqrt.lqrtest_1samp(x, 0.0, bootstrap=B, seed=boot_ss)
        rejections += out.pvalue <= alpha
    lo = sps.binom.ppf(0.005, reps, alpha) / reps
    hi = sps.binom.ppf(0.995, reps, alpha) / reps
    assert lo <= rejections / reps <= hi


def _readme_pair():
    rng = np.random.default_rng(314)
    x = np.concatenate([rng.normal(0.3, 1, 45), rng.normal(0.3, np.sqrt(50), 5)])
    return x, rng.normal(0.0, 1, 60)


def _readme_sample():
    return _readme_pair()[0]


class TestOneFitPerTest:
    """lqrtest_* equal the standalone pieces, and fit each batch only once."""

    @pytest.mark.parametrize("q", [None, 0.6, 1.0])
    def test_1samp_matches_standalone_bitwise(self, q):
        x = _readme_sample()
        out = lqrt.lqrtest_1samp(x, 0.2, q=q, bootstrap=200, seed=5)
        assert out == lqrt.lqrtest_1samp(x, 0.2, q=out.q, bootstrap=200, seed=5)
        assert out.statistic == lqrt.statistic_1samp(x, 0.2, out.q)

    @pytest.mark.parametrize("q", [None, 0.6, 1.0])
    @pytest.mark.parametrize("equal_var", [True, False])
    def test_ind_matches_standalone_bitwise(self, q, equal_var):
        x = _readme_sample()
        y = contaminated(np.random.default_rng(77), n=40, n_out=4)
        out = lqrt.lqrtest_ind(x, y, equal_var=equal_var, q=q, bootstrap=200, seed=6)
        stat = lqrt.statistic_ind_equal_var if equal_var else lqrt.statistic_ind_unequal_var
        assert out == lqrt.lqrtest_ind(x, y, equal_var=equal_var, q=out.q, bootstrap=200, seed=6)
        assert out.statistic == stat(x, y, out.q)

    @pytest.mark.parametrize("q", [None, 0.7])
    @pytest.mark.parametrize(
        "kind, want", [("onesample", 3), ("pooled", 4), ("welch", 5)]
    )
    def test_batch_fit_calls_per_test(self, monkeypatch, kind, want, q):
        # the q grid (one free fit per sample, over 51 q or the one fixed q), then the fits of
        # one statistic over the B resamples and the observed dataset; each runs the fixed point once
        rows = []
        fixed_point = mlqe._fixed_point

        def counted(*args, **kwargs):
            rows.append(args[0][0].shape[0])
            return fixed_point(*args, **kwargs)

        monkeypatch.setattr(mlqe, "_fixed_point", counted)
        x = _readme_sample()
        y = contaminated(np.random.default_rng(78), n=40, n_out=4)
        if kind == "onesample":
            lqrt.lqrtest_1samp(x, 0.0, q=q, bootstrap=20, seed=1)
        else:
            lqrt.lqrtest_ind(x, y, equal_var=kind == "pooled", q=q, bootstrap=20, seed=1)
        grid = 1 if kind == "onesample" else 2
        assert rows == [len(lqrt.Q_GRID) if q is None else 1] * grid + [20 + 1] * (want - grid)


class TestNonFiniteStatistic:
    def test_overflowing_sample_raises_instead_of_pvalue(self):
        # at 1e200 the fits overflow and the statistic is NaN, which no
        # resample compares above: it must raise rather than read as p = 0
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            lqrt.lqrtest_1samp(_readme_sample() * 1e200, 0.0, seed=1)

    @pytest.mark.parametrize("observed, boot", [
        (np.nan, [0.1, 0.2]),
        (np.inf, [0.1, 0.2]),
        (0.1, [0.1, np.nan]),
        (0.1, [-np.inf, 0.2]),
    ])
    def test_count_pvalue_rejects_non_finite(self, observed, boot):
        with pytest.raises(ValueError, match="not finite"):
            ratio_test._count_pvalue(np.array(boot), observed)


class TestStackedDriver:
    """_test on R stacked datasets equals R separate single-dataset calls, bit for bit."""

    # (seed, outliers): adaptive q lands on 1.0, 0.5 and in between for both tests
    CASES = [(2, 0), (3, 3), (4, 8), (0, 3), (7, 8)]
    MU0 = [0.0, 0.25, -0.5, 0.25, 1.0]

    @staticmethod
    def _sample(seed, n, n_out, mu):
        rng = np.random.default_rng(seed)
        return np.concatenate([rng.normal(mu, 1.0, n - n_out), rng.normal(mu, np.sqrt(50.0), n_out)])

    def _datasets(self):
        xs = [self._sample(seed, 30, k, 0.3) for seed, k in self.CASES]
        ys = [self._sample(seed + 100, 25, k, 0.0) for seed, k in self.CASES]
        return xs, ys

    @staticmethod
    def _fields(out):
        return (out.statistic, out.pvalue, out.q, out.bootstrap, out.degenerate_fraction)

    @pytest.mark.parametrize("q", [None, 0.6])
    def test_1samp_rows_equal_single_calls(self, q):
        xs, _ = self._datasets()
        seeds = list(range(40, 45))
        stacked = ratio_test._test((np.stack(xs) - np.c_[self.MU0],), None, q, 60, seeds)
        single = [lqrt.lqrtest_1samp(x, m, q=q, bootstrap=60, seed=s) for x, m, s in zip(xs, self.MU0, seeds)]
        assert [self._fields(o) for o in stacked] == [self._fields(o) for o in single]
        if q is None:
            assert {1.0, 0.5} <= {o.q for o in single}

    @pytest.mark.parametrize("q", [None, 0.6])
    @pytest.mark.parametrize("equal_var", [True, False])
    def test_ind_rows_equal_single_calls(self, q, equal_var):
        xs, ys = self._datasets()
        seeds = list(range(50, 55))
        stacked = ratio_test._test((np.stack(xs), np.stack(ys)), equal_var, q, 60, seeds)
        single = [lqrt.lqrtest_ind(x, y, equal_var=equal_var, q=q, bootstrap=60, seed=s)
                  for x, y, s in zip(xs, ys, seeds)]
        assert [self._fields(o) for o in stacked] == [self._fields(o) for o in single]
        if q is None:
            assert {1.0, 0.5} <= {o.q for o in single}

    def test_stacked_lqrtest_is_the_adaptive_test_of_each_row(self):
        xs, ys = self._datasets()
        seeds = [np.random.SeedSequence(9, spawn_key=(r,)) for r in range(5)]
        got = ratio_test._test((np.stack(xs),), True, None, 40, seeds)
        want = [lqrt.lqrtest_1samp(x, 0.0, bootstrap=40, seed=np.random.SeedSequence(9, spawn_key=(r,)))
                for r, x in enumerate(xs)]
        assert got == want

    def test_stacked_q_choice_is_each_rows_last_minimum(self):
        # one argmin over all rows; a tie goes to the largest q, as a scan keeping the last minimum does,
        # and a NaN objective ranks as +inf
        rng = np.random.default_rng(12)
        objectives = rng.integers(0, 4, size=(200, len(lqrt.Q_GRID))).astype(float)
        objectives[::7] = np.inf
        objectives[1::7, 10:] = np.inf
        objectives[rng.random(objectives.shape) < 0.2] = np.nan
        objectives[2::7] = np.nan
        objectives[3::7, :40] = np.nan
        ranked = [[math.inf if math.isnan(v) else v for v in row] for row in objectives.tolist()]
        want = [max(i for i, v in enumerate(row) if v == min(row)) for row in ranked]
        assert ratio_test._best_q(objectives).tolist() == want
        assert [int(ratio_test._best_q(row)) for row in objectives] == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_objective_is_never_chosen(self):
        # at 1e-140 the squared scores overflow and 31 of the 51 objectives are NaN; argmin chose q 0.80 by one
        x = np.loadtxt(Path(__file__).resolve().parent / "data" / "pair_x.csv", skiprows=1) * 1e-140
        report = lqrt.select_q_1samp(x)
        assert any(math.isnan(v) for _, v in report.grid)
        assert not math.isnan(report.objective)
        assert report.objective == min(v for _, v in report.grid if not math.isnan(v))

    def test_grid_objectives_are_the_sandwich_of_the_public_derivatives(self):
        # one weight evaluation serves score and curvature; the objectives keep their bits
        xs, _ = self._datasets()
        block = np.repeat(np.stack(xs), len(lqrt.Q_GRID), axis=0)
        qs = np.tile(lqrt.Q_GRID, len(xs))
        mu, s2, *_ = mlqe.batch_fit_normal(block, qs)
        args = (block, mu[:, None], s2[:, None], qs[:, None])
        b = np.mean(lqmath.lq_score_mu(*args) ** 2, axis=1)
        a = 1.0 / np.mean(lqmath.lq_curvature_mu(*args), axis=1)
        got, _ = ratio_test._sandwich_objectives(np.stack(xs), lqrt.Q_GRID, mlqe.DEFAULT_CONFIG)
        assert got.tobytes() == (a * b * a).reshape(len(xs), -1).tobytes()

    STATISTICS = {
        "onesample": lambda x, y, m, q: lqrt.statistic_1samp(x, m, q),
        "pooled": lambda x, y, m, q: lqrt.statistic_ind_equal_var(x, y, q),
        "welch": lambda x, y, m, q: lqrt.statistic_ind_unequal_var(x, y, q),
    }

    @pytest.mark.parametrize("q", [None, 0.7])
    @pytest.mark.parametrize("kind", ["onesample", "pooled", "welch"])
    def test_observed_rows_ride_in_the_bootstrap_batch(self, monkeypatch, kind, q):
        # one statistic call over R * (B + 1) rows: the R resample blocks, then each dataset as observed,
        # whose statistics are the public statistic's bits at its q-hat
        public = self.STATISTICS[kind]
        seen, real = [], ratio_test._batch_statistic

        def spy(blocks, equal_var, qs, cfg):
            out = real(blocks, equal_var, qs, cfg)
            seen.append((blocks, qs, out[0]))
            return out

        monkeypatch.setattr(ratio_test, "_batch_statistic", spy)
        xs, ys = self._datasets()
        samples = (np.stack(xs) - np.c_[self.MU0],) if kind == "onesample" else (np.stack(xs), np.stack(ys))
        stacked = ratio_test._test(samples, kind == "pooled", q, 20, range(5))
        assert len(seen) == 1
        (blocks, qs, stats), R = seen[0], 5
        for block, sample in zip(blocks, samples):
            assert block.shape == (R * 21, sample.shape[1])
            assert block[R * 20:].tobytes() == sample.tobytes()
        assert qs.tolist() == [o.q for o in stacked for _ in range(20)] + [o.q for o in stacked]
        if q is None:
            assert {1.0, 0.5} <= {o.q for o in stacked}
        want = np.array([public(x, y, m, o.q) for x, y, m, o in zip(xs, ys, self.MU0, stacked)])
        assert stats[R * 20:].tobytes() == want.tobytes()
        assert [o.statistic for o in stacked] == want.tolist()

    @pytest.mark.parametrize("q", [None, 0.7])
    @pytest.mark.parametrize("kind", ["onesample", "pooled", "welch"])
    def test_free_fits_from_the_grid_equal_standalone_fits(self, monkeypatch, kind, q):
        # each sample's free fit at q-hat comes off the grid's rows and centres its resamples: stacked and
        # alone, its mean is a standalone batch_fit_normal's bits, and every resample draws from the sample less it
        means, blocks = [], []
        grid_objectives, statistic = ratio_test._grid_objectives, ratio_test._batch_statistic

        def grid_spy(samples, grid, cfg):
            out = grid_objectives(samples, grid, cfg)
            means.append(out[1])
            return out

        def statistic_spy(bs, equal_var, qs, cfg):
            blocks.append(bs)
            return statistic(bs, equal_var, qs, cfg)

        monkeypatch.setattr(ratio_test, "_grid_objectives", grid_spy)
        monkeypatch.setattr(ratio_test, "_batch_statistic", statistic_spy)
        xs, ys = self._datasets()
        samples = (np.stack(xs) - np.c_[self.MU0],) if kind == "onesample" else (np.stack(xs), np.stack(ys))
        runs = [(samples, ratio_test._test(samples, kind == "pooled", q, 20, range(5)))]
        for r in range(5):
            alone = tuple(s[r:r + 1] for s in samples)
            runs.append((alone, ratio_test._test(alone, kind == "pooled", q, 20, [r])))
        assert len(means) == len(blocks) == 6
        grid = list(lqrt.Q_GRID) if q is None else [q]
        for (data, outcomes), mus, bs in zip(runs, means, blocks):
            assert len(mus) == len(bs) == len(data)
            for sample, mu, block in zip(data, mus, bs):
                for r, o in enumerate(outcomes):
                    want = mlqe.batch_fit_normal(sample[r:r + 1], np.array([o.q]))[0]
                    assert mu[r, grid.index(o.q)].tobytes() == want[0].tobytes()
                    assert np.isin(block[r * 20:(r + 1) * 20], sample[r] - want[0]).all()
        if q is None:
            assert {1.0, 0.5} <= {o.q for o in runs[0][1]}
        assert [o for _, (o,) in runs[1:]] == runs[0][1]

    def test_per_row_q_likelihood_matches_scalar_rows(self):
        xs, _ = self._datasets()
        block = np.stack(xs)
        mu = np.linspace(-0.5, 0.5, 5)[:, None]
        s2 = np.linspace(0.5, 3.0, 5)[:, None]
        for rows in ([1.0, 0.5, 0.67, 1.0, 0.79], [0.7] * 5, [1.0] * 5):
            q = np.array(rows)[:, None]
            want = np.array([lqmath.lq_likelihood(block[r], mu[r, 0], s2[r, 0], q[r, 0]) for r in range(5)])
            got = lqmath.lq_likelihood(block, mu, s2, q)
            assert got.tobytes() == want.tobytes()

    def test_per_row_q_likelihood_with_a_whole_cell_of_distinct_q(self):
        # 24 distinct q below 1, as a stacked simulate cell may choose, and one row at q = 1
        rng = np.random.default_rng(46)
        block = contaminated(rng, n=25 * 40, n_out=100).reshape(25, 40)
        mu, s2 = rng.normal(0.0, 0.3, (25, 1)), rng.uniform(0.5, 3.0, (25, 1))
        q = np.append(rng.permutation(np.arange(50, 98, 2) / 100.0), 1.0)[rng.permutation(25)][:, None]
        assert np.unique(q[q < 1.0]).size == 24
        got = lqmath.lq_likelihood(block, mu, s2, q)
        want = np.array([lqmath.lq_likelihood(block[r], mu[r, 0], s2[r, 0], q[r, 0]) for r in range(25)])
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _peak_bytes_per_resampled_element(n):
        # the B x n resamples are held as an index block and built a window of rows at a time
        x = contaminated(np.random.default_rng(47), n=n, n_out=n // 10)
        lqrt.lqrtest_1samp(x[:50], 0.0, q=0.8, bootstrap=10, seed=1)
        tracemalloc.start()
        try:
            lqrt.lqrtest_1samp(x, 0.0, q=0.8, bootstrap=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (200 * n)

    @pytest.mark.slow
    def test_peak_memory_of_a_large_test_per_resampled_element(self):
        assert self._peak_bytes_per_resampled_element(20_000) < 6

    @pytest.mark.slow
    def test_peak_memory_per_resampled_element_at_ten_times_the_size(self):
        # 4-byte indices from n = 65 537 on
        assert self._peak_bytes_per_resampled_element(200_000) < 6


def _per_child_indices(seeds, reps, sizes):
    # the reference: one spawned child and one default_rng per resample, the blocks in order, each
    # index stored in the smallest unsigned type that holds every index into one dataset's sample;
    # then one identity row per dataset, which stands for the dataset as observed
    dtype = np.min_scalar_type(max(sizes) - 1)
    blocks = [np.empty((len(seeds) * (reps + 1), n), dtype=dtype) for n in sizes]
    children = [child for ss in seeds for child in ss.spawn(reps)]
    for row, child in enumerate(children):
        rng = np.random.default_rng(child)
        for block, n in zip(blocks, sizes):
            block[row] = rng.integers(0, n, size=n)
    for block, n in zip(blocks, sizes):
        block[len(children):] = np.arange(n)
    return blocks


def _spawned(ss, k):
    ss.spawn(k)
    return ss


class TestResampleStream:
    """The one-pass resampler reproduces NumPy's per-child Generator streams bit for bit."""

    SEEDS = {
        "int": lambda: np.random.SeedSequence(20240917),
        "six_words": lambda: np.random.SeedSequence([3, 1, 4, 1, 5, 9]),
        "os_entropy": lambda: np.random.SeedSequence(),
        "spawn_key": lambda: np.random.SeedSequence(77, spawn_key=(2, 5)),
        "spawned_before": lambda: _spawned(np.random.SeedSequence(8), 37),
        "pool_size_8": lambda: np.random.SeedSequence(123, pool_size=8),
    }

    @staticmethod
    def _check(make_seeds, reps, sizes):
        got = ratio_test._resample_indices(make_seeds(), reps, sizes)
        want = _per_child_indices(make_seeds(), reps, sizes)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("kind", sorted(SEEDS))
    @pytest.mark.parametrize("sizes", [(50,), (7, 10)])
    def test_seed_forms(self, kind, sizes):
        ss = self.SEEDS[kind]()
        state = (ss.entropy, ss.spawn_key, ss.n_children_spawned)
        got = ratio_test._resample_indices([ss], 40, sizes)
        assert (ss.entropy, ss.spawn_key, ss.n_children_spawned) == state  # read, not advanced
        want = _per_child_indices([ss], 40, sizes)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in want]

    def test_stacked_mixed_seeds_and_odd_blocks(self):
        # odd n: the spare 32-bit half of x's last output starts y's draws
        makers = [self.SEEDS[k] for k in ("pool_size_8", "int", "spawned_before", "six_words")]
        self._check(lambda: [m() for m in makers], 23, (31, 17))
        self._check(lambda: [m() for m in makers], 5, (2, 3))

    def test_plain_seeds_take_a_fresh_sequence(self):
        got = ratio_test._resample_indices([5, [6, 7]], 9, (13,))
        want = _per_child_indices([np.random.SeedSequence(5), np.random.SeedSequence([6, 7])], 9, (13,))
        assert got[0].tobytes() == want[0].tobytes()

    def test_spawn_index_at_the_32_bit_limit(self):
        # the last one-word spawn indices take the pass; from 2**32 on, the index takes two words and
        # the row the per-child generator
        ss = np.random.SeedSequence(9, n_children_spawned=2**32 - 3)
        assert ratio_test._child_seed_words(ss, 6)[1].tolist() == [False] * 3 + [True] * 3
        self._check(lambda: [np.random.SeedSequence(9, n_children_spawned=2**32 - 3)], 2, (7, 10))
        # SeedSequence.spawn hangs once its count would reach 2**32 (NumPy 2.4), so the reference builds
        # the children it documents
        children = [np.random.SeedSequence(9, spawn_key=(2**32 - 3 + i,)) for i in range(6)]
        rows = [[rng.integers(0, n, size=n).tolist() for n in (7, 10)] for rng in map(np.random.default_rng, children)]
        got = ratio_test._resample_indices([ss], 6, (7, 10))
        assert [b.tolist() for b in got] == [[r[k] for r in rows] + [list(range(n))] for k, n in enumerate((7, 10))]

    @pytest.mark.parametrize("kind", sorted(SEEDS))
    def test_child_words_seed_pcg64_as_the_child_does(self, kind):
        # the words of the children not yet spawned, then the children themselves
        ss = self.SEEDS[kind]()
        words, _ = ratio_test._child_seed_words(ss, 40)
        for w, child in zip(words, ss.spawn(40), strict=True):
            assert np.random.PCG64(ratio_test._ChildSeed(w)).state == np.random.PCG64(child).state

    def test_lemire_rejection_flags_the_row(self):
        # u = 0 with n = 3: leftover 0 is below the threshold (2**32 - 3) % 3 = 1, so NumPy redraws
        words = np.array([[5, 0, 7], [5, 9, 7], [2**32 - 1, 2**31, 1]], dtype=np.uint32)
        out = np.empty((3, 3), dtype=np.intp)
        assert ratio_test._bounded(words, 3, out).tolist() == [True, False, False]
        assert out[1:].tolist() == [[0, 0, 0], [2, 1, 0]]

    def test_natural_rejection_is_redrawn(self):
        # seed 541's child 343 draws a word that Lemire's step rejects at n = 400
        ss = np.random.SeedSequence(541)
        words, _ = ratio_test._child_seed_words(ss, 344)
        raw = np.array([np.random.PCG64(ratio_test._ChildSeed(w)).random_raw(200) for w in words], dtype="<u8")
        out = np.empty((344, 400), dtype=np.intp)
        assert np.flatnonzero(ratio_test._bounded(raw.view("<u4"), 400, out)).tolist() == [343]
        self._check(lambda: [np.random.SeedSequence(541)], 344, (400,))

    @pytest.mark.parametrize(
        "count, reps, sizes, dtype",
        [
            (1, 3, (256,), np.uint8),  # the sample size, 256, does not fit uint8 itself
            (1, 3, (255, 256), np.uint8),
            (3, 3, (256, 5), np.uint8),  # three datasets, 768 values, still index one sample each
            (1, 3, (257,), np.uint16),
            (1, 2, (65_536,), np.uint16),
            (2, 2, (65_537, 7), np.uint32),
        ],
    )
    def test_index_type_at_its_limits(self, count, reps, sizes, dtype):
        # the smallest unsigned type that holds max(n) - 1, whatever the number of datasets
        got = ratio_test._resample_indices(list(range(count)), reps, sizes)
        want = _per_child_indices([np.random.SeedSequence(s) for s in range(count)], reps, sizes)
        assert [b.dtype for b in got] == [np.dtype(dtype)] * len(sizes)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in want]

    def test_every_row_redrawn_by_the_fallback(self, monkeypatch):
        bounded = ratio_test._bounded
        monkeypatch.setattr(ratio_test, "_bounded", lambda words, n, out: bounded(words, n, out) | True)
        self._check(lambda: [self.SEEDS["spawned_before"](), self.SEEDS["spawn_key"]()], 6, (9, 4))

    def test_same_seed_sequence_gives_the_same_test(self):
        rng = np.random.default_rng(314)
        x = np.concatenate([rng.normal(0.3, 1, 45), rng.normal(0.3, np.sqrt(50), 5)])
        ss = np.random.SeedSequence(5)
        first = lqrt.lqrtest_1samp(x, 0.1, q=0.7, bootstrap=200, seed=ss)
        assert lqrt.lqrtest_1samp(x, 0.1, q=0.7, bootstrap=200, seed=ss) == first
        assert ss.n_children_spawned == 0
        assert lqrt.lqrtest_1samp(x, 0.1, q=0.7, bootstrap=200, seed=np.random.SeedSequence(5)) == first
