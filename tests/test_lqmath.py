import math
import re

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import lqrt
from lqrt import gemsim, lqmath, mlqe

from _oracles import lq_log_pdf

# Frozen with 40-digit arithmetic.
LQ_LOG_2_HALF = 0.8284271247461901  # 2*(sqrt(2)-1)
HALF_LOG_2PI = 0.9189385332046727
TWO_PI_NEG_QUARTER = 0.6316187777460647  # (2*pi)**-0.25
LQLIK_SYM3_HALF = -2.7691416496629153  # sum over [-1,0,1] at mu=0, s2=1, q=0.5


class TestLqLog:
    """ln_q, the deformed logarithm that lq_likelihood sums: (u^(1-q) - 1)/(1 - q), and ln(u) at q = 1."""

    @staticmethod
    def ln_q(u, q):
        # a one-point sample at its centre with sigma2 = 1/(2 pi u^2) has density u
        return lqmath.lq_likelihood([0.0], 0.0, 1.0 / (2.0 * math.pi * u * u), q)

    def test_unit_argument_is_zero(self):
        for q in (0.5, 0.7, 1.0):
            assert self.ln_q(1.0, q) == pytest.approx(0.0, abs=1e-15)

    def test_q1_is_natural_log(self):
        for u in (0.25, 1.0, math.e, 7.5):
            assert self.ln_q(u, 1.0) == pytest.approx(math.log(u), abs=1e-15)

    def test_closed_form_value(self):
        assert self.ln_q(2.0, 0.5) == pytest.approx(LQ_LOG_2_HALF, abs=1e-15)

    def test_limit_to_log_near_q1(self):
        # ln_q(u) - ln(u) = s ln(u)^2 / 2 + O(s^2) with s = 1 - q; the power form (u^s - 1)/s would lose
        # that gap to cancellation at s = 1e-8
        for u in np.geomspace(0.01, 100.0, 25):
            assert abs(self.ln_q(u, 1.0 - 1e-8) - math.log(u) - 0.5e-8 * math.log(u) ** 2) < 1e-14

    def test_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = rng.uniform(0.05, 0.999)
            u = float(np.exp(rng.uniform(-20, 10)))
            assert self.ln_q(u, q) > -1.0 / (1.0 - q)


class TestNormalLogPdf:
    """The kernel's log density: s log f(x | mu, sigma2) at s = 1."""

    def test_standard_value(self):
        assert lqmath._scaled_log_pdf(0.0, 0.0, 1.0, 1.0) == pytest.approx(-HALF_LOG_2PI, abs=1e-15)

    def test_symmetry(self):
        for d in (0.25, 1.75, 4.0):  # 2 +- d is exact, so the two sides must agree to the bit
            assert lqmath._scaled_log_pdf(2.0 + d, 2.0, 3.0, 1.0) == lqmath._scaled_log_pdf(2.0 - d, 2.0, 3.0, 1.0)

    def test_zero_quadratic_term(self):
        assert lqmath._scaled_log_pdf(1.0, 1.0, 4.0, 1.0) == pytest.approx(-0.5 * math.log(8.0 * math.pi), abs=1e-15)


class TestLqWeight:
    """The fitters' weight kernel, f(x|mu,sigma2)^(1-q) through the log density."""

    def test_q1_weights_are_one(self):
        for x in (-30.0, 0.0, 2.5, 100.0):
            assert lqmath._weight(x, 0.0, 1.0, 1.0) == 1.0

    def test_center_value(self):
        assert lqmath._weight(0.0, 0.0, 1.0, 0.5) == pytest.approx(TWO_PI_NEG_QUARTER, abs=1e-15)

    def test_monotone_decay(self):
        assert lqmath._weight(3.0, 0.0, 1.0, 0.8) < lqmath._weight(1.0, 0.0, 1.0, 0.8)

    def test_matches_direct_power(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 3, 500)
        pdf = np.exp(-0.5 * np.log(4.0 * np.pi) - (x - 0.5) ** 2 / 4.0)  # N(0.5, 2)
        for q in (0.5, 0.8, 0.99):
            assert_allclose(lqmath._weight(x, 0.5, 2.0, q), pdf ** (1.0 - q), rtol=1e-14)

    def test_survives_extreme_outliers(self):
        # the density itself underflows near |z| ~ 39; the log route must not
        assert math.exp(lq_log_pdf(50.0, 0.0, 1.0, 1.0)) == 0.0
        w = lqmath._weight(50.0, 0.0, 1.0, 0.5)
        assert 0.0 < w < 1e-250

    def test_fits_skip_the_variance_check(self, monkeypatch):
        # the fitters floor every variance, so their loop and the q grid's derivatives do not pay for the check
        calls = []
        monkeypatch.setattr(lqmath, "_check_sigma2", lambda s2: calls.append(s2))
        xs = np.random.default_rng(5).normal(0.0, 1.0, (20, 30))
        mlqe.batch_fit_normal(xs, 0.7)
        mlqe.batch_fit_shared_mean(xs, xs + 1.0, 0.7)
        lqrt.select_q_1samp(xs[0])
        assert calls == []


class TestLqLikelihood:
    def test_single_observation_at_center(self):
        assert lqmath.lq_likelihood([2.0], 2.0, 1.0, 1.0) == pytest.approx(
            -HALF_LOG_2PI, abs=1e-15
        )

    def test_q1_equals_gaussian_loglik(self):
        rng = np.random.default_rng(3)
        x = rng.normal(1.0, 2.0, 40)
        expected = math.fsum(lq_log_pdf(v, 0.7, 3.3, 1.0) for v in x)
        assert lqmath.lq_likelihood(x, 0.7, 3.3, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_symmetric_three_points(self):
        assert lqmath.lq_likelihood([-1.0, 0.0, 1.0], 0.0, 1.0, 0.5) == pytest.approx(
            LQLIK_SYM3_HALF, abs=1e-14
        )

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            lqmath.lq_likelihood([], 0.0, 1.0, 0.8)

    def test_rejects_non_positive_variance(self):
        xs = np.zeros((3, 4))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma2 must be positive"):
                lqmath.lq_likelihood([0.0], 0.0, bad, 0.7)
            with pytest.raises(ValueError, match="sigma2 must be positive"):
                lqmath.lq_likelihood(xs, 0.0, np.array([[1.0], [bad], [2.0]]), 0.7)


def _fd_score(x, mu, s2, q, h):
    return (lq_log_pdf(x, mu + h, s2, q) - lq_log_pdf(x, mu - h, s2, q)) / (2.0 * h)


def _fd_curvature(x, mu, s2, q, h):
    return (lq_log_pdf(x, mu + h, s2, q) - 2.0 * lq_log_pdf(x, mu, s2, q) + lq_log_pdf(x, mu - h, s2, q)) / (h * h)


class TestMuDerivatives:
    """The q grid's kernel: the first and second mu-derivatives of ln_q f, from one weight evaluation."""

    @staticmethod
    def score(x, mu, s2, q):
        return lqmath._mu_derivatives(x, mu, s2, q)[0]

    @staticmethod
    def curvature(x, mu, s2, q):
        return lqmath._mu_derivatives(x, mu, s2, q)[1]

    def test_score_vanishes_at_center(self):
        assert self.score(1.5, 1.5, 2.0, 0.6) == 0.0

    def test_score_q1_reduction(self):
        assert self.score(2.0, 0.5, 4.0, 1.0) == pytest.approx((2.0 - 0.5) / 4.0)

    def test_curvature_q1_reduction(self):
        assert self.curvature(3.0, 0.0, 4.0, 1.0) == pytest.approx(-0.25, abs=1e-15)

    def test_curvature_center_value(self):
        assert self.curvature(0.0, 0.0, 1.0, 0.5) == pytest.approx(-TWO_PI_NEG_QUARTER, abs=1e-15)

    def test_score_matches_finite_difference(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            mu = rng.uniform(-3, 3)
            s2 = rng.uniform(0.2, 8.0)
            x = mu + rng.uniform(-5, 5) * math.sqrt(s2)
            q = rng.uniform(0.5, 1.0)
            exact = self.score(x, mu, s2, q)
            approx = _fd_score(x, mu, s2, q, 1e-6 * math.sqrt(s2))
            assert_allclose(approx, exact, rtol=1e-6, atol=1e-9)

    def test_curvature_matches_finite_difference(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            mu = rng.uniform(-3, 3)
            s2 = rng.uniform(0.2, 8.0)
            x = mu + rng.uniform(-5, 5) * math.sqrt(s2)
            q = rng.uniform(0.5, 1.0)
            exact = self.curvature(x, mu, s2, q)
            approx = _fd_curvature(x, mu, s2, q, 1.5e-4 * math.sqrt(s2))
            assert_allclose(approx, exact, rtol=1e-5, atol=1e-7)


class TestBroadcastBlocks:
    """A (B, n) block with (B, 1) parameters equals B row-by-row calls, bit for bit."""

    def _block(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(0.0, 3.0, (7, 30))
        xs[2, 4] = 1e6  # an outlier whose weight underflows
        mu = rng.normal(0.0, 1.0, (7, 1))
        s2 = rng.uniform(0.1, 5.0, (7, 1))
        q = rng.uniform(0.5, 1.0, (7, 1))
        return xs, mu, s2, q

    @pytest.mark.parametrize(
        "fn",
        [
            pytest.param(lqmath._weight, id="lq_weight"),
            pytest.param(lambda *a: lqmath._mu_derivatives(*a)[0], id="lq_score_mu"),
            pytest.param(lambda *a: lqmath._mu_derivatives(*a)[1], id="lq_curvature_mu"),
        ],
    )
    def test_elementwise_primitives(self, fn):
        # the weight and the score and curvature kernels, under the names of the quantities they compute
        xs, mu, s2, q = self._block()
        block = fn(xs, mu, s2, q)
        rows = np.array([fn(xs[b], mu[b, 0], s2[b, 0], q[b, 0]) for b in range(xs.shape[0])])
        assert block.tobytes() == rows.tobytes()

    def test_normal_log_pdf(self):
        xs, mu, s2, _ = self._block()
        block = lqmath._scaled_log_pdf(xs, mu, s2, 1.0)
        rows = np.array([lqmath._scaled_log_pdf(xs[b], mu[b, 0], s2[b, 0], 1.0) for b in range(xs.shape[0])])
        assert block.tobytes() == rows.tobytes()

    def test_kernels_are_the_written_formulas(self):
        # the kernels write into one buffer but keep the formulas' operations and order, so their bits
        xs, mu, s2, q = self._block()
        s = 1 - q
        w = np.exp(-0.5 * s * np.log(2 * np.pi * s2) - (xs - mu) ** 2 * (s / (2 * s2)))
        z = (xs - mu) / s2
        assert lqmath._weight(xs, mu, s2, q).tobytes() == w.tobytes()
        buffer = np.full((9, 30), np.nan)
        assert lqmath._weight(xs, mu, s2, q, buffer[:7], (xs - mu) ** 2).tobytes() == w.tobytes()
        assert lqmath._weight(xs, mu, s2, q, buffer[:7]).tobytes() == w.tobytes()
        score, curvature = lqmath._mu_derivatives(xs, mu, s2, q)
        assert score.tobytes() == (w * z).tobytes()
        assert curvature.tobytes() == (w * ((1.0 - q) * ((xs - mu) / s2) ** 2 - 1.0 / s2)).tobytes()

    @pytest.mark.parametrize("q", [0.6, 1.0])
    def test_lq_likelihood_sums_each_row(self, q):
        xs, mu, s2, _ = self._block()
        block = lqmath.lq_likelihood(xs, mu, s2, q)
        rows = np.array([lqmath.lq_likelihood(xs[b], mu[b, 0], s2[b, 0], q) for b in range(xs.shape[0])])
        assert block.shape == (xs.shape[0],)
        assert block.tobytes() == rows.tobytes()


class TestKernelAccuracy:
    """Weights and Lq-likelihoods agree with 50-digit arithmetic at any scale, out to 30 standard deviations."""

    @pytest.mark.parametrize("q", [0.5, 0.7, 0.9, 0.99, 0.999999, 1.0])
    def test_weight_and_likelihood_against_mpmath(self, q):
        mu = 0.3
        for s2 in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            x = mu + np.linspace(-30.0, 30.0, 121) * math.sqrt(s2)
            with mp.workdps(50):
                s = 1 - mp.mpf(q)  # exact: 1 - q rounds to no other float for q in [0.5, 1]
                log_f = [-mp.log(2 * mp.pi * s2) / 2 - (mp.mpf(v) - mu) ** 2 / (2 * s2) for v in x]
                w_err = max(abs(w / mp.exp(s * lf) - 1) for w, lf in zip(lqmath._weight(x, mu, s2, q), log_f))
                exact = mp.fsum(log_f) if q == 1.0 else mp.fsum(mp.expm1(s * lf) for lf in log_f) / s
                lik_err = abs(lqmath.lq_likelihood(x, mu, s2, q) - exact) / max(1, abs(exact))
            assert w_err <= 1e-13, (s2, float(w_err))
            assert lik_err <= 1e-14, (s2, float(lik_err))


class TestArgumentChecks:
    """Null values and counts are checked the same way in every entry point."""

    _X = np.random.default_rng(3).normal(0.3, 1.0, 20)
    _SPEC = gemsim.GrossErrorSpec(0.0, 1.0, 50.0, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "abc", None])
    @pytest.mark.parametrize("name, call", [
        pytest.param("u", lambda x, v: lqrt.lqrtest_1samp(x, v, q=0.7, bootstrap=10, seed=1),
                     id="lqrtest_1samp"),
        pytest.param("mu0", lambda x, v: lqrt.statistic_1samp(x, v, 0.7), id="statistic_1samp"),
        pytest.param("mu", lambda x, v: lqrt.fit_variance_known_mean(x, v, 0.7),
                     id="fit_variance_known_mean"),
        pytest.param("mu0", lambda x, v: lqrt.ttest_1samp(x, v), id="ttest_1samp"),
        pytest.param("mu0", lambda x, v: lqrt.sign_test(x, v), id="sign_test"),
    ])
    def test_null_value_must_be_finite(self, name, call, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            call(self._X, bad)

    @pytest.mark.parametrize("name, call", [
        pytest.param("x - u", lambda x, v: lqrt.lqrtest_1samp(x, v, q=0.7, bootstrap=10, seed=1),
                     id="lqrtest_1samp"),
        pytest.param("x - mu0", lambda x, v: lqrt.statistic_1samp(x, v, 0.7), id="statistic_1samp"),
        pytest.param("x1 - x2", lambda x, v: lqrt.lqrtest_rel(x, np.full(x.size, v), q=0.7, bootstrap=10, seed=1),
                     id="lqrtest_rel"),
        pytest.param("sample - mu", lambda x, v: lqrt.fit_variance_known_mean(x, v, 0.7),
                     id="fit_variance_known_mean"),
    ])
    def test_difference_must_not_overflow(self, name, call):
        # the tests form x - u (or x1 - x2) of finite values first; an overflow is named, not fit
        x = np.array([1.7e308, -0.9e308, 0.5, 1.0])
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} overflows$"):
            call(x, -1e308)

    @pytest.mark.parametrize("name, call", [
        pytest.param("bootstrap", lambda x, k: lqrt.lqrtest_1samp(x, 0.0, q=0.7, bootstrap=k, seed=1),
                     id="lqrtest_1samp"),
        pytest.param("bootstrap", lambda x, k: lqrt.lqrtest_ind(x, x + 1.0, q=0.7, bootstrap=k, seed=1),
                     id="lqrtest_ind"),
        pytest.param("reps", lambda x, k: gemsim.run_scenario(
            gemsim.builtin_scenarios()[0], "t", eps_grid=[0.0], reps=k, seed=0), id="run_scenario"),
        pytest.param("bootstrap", lambda x, k: gemsim.run_scenario(
            gemsim.builtin_scenarios()[0], "t", eps_grid=[0.0], reps=1, bootstrap=k, seed=0),
            id="run_scenario_bootstrap"),
        pytest.param("n", lambda x, k: gemsim.ScenarioSpec(
            "one_sample", (0.0,), (0.3,), (1.0, None, 50.0), n=k), id="ScenarioSpec"),
        pytest.param("n", lambda x, k: gemsim.sample_gem(
            TestArgumentChecks._SPEC, k, np.random.default_rng(0)), id="sample_gem"),
        pytest.param("n", lambda x, k: gemsim.sample_gem_paired(
            TestArgumentChecks._SPEC, k, np.random.default_rng(0)), id="sample_gem_paired"),
        pytest.param("max_iter", lambda x, k: lqrt.FitConfig(max_iter=k), id="FitConfig"),
    ])
    @pytest.mark.parametrize("bad", [2.5, 0, np.nan, "abc", None])
    def test_count_must_be_whole_and_positive(self, name, call, bad):
        # a fractional count used to be truncated (bootstrap=2.5 ran 2 resamples)
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number"):
            call(self._X, bad)

    @pytest.mark.parametrize("q, shown", [
        (1.5, "1.5"), (0.0, "0.0"), (-0.1, "-0.1"), (np.nan, "nan"), (np.inf, "inf"),
        (np.array([[0.7], [1.0], [2.0]]), "2.0"), (np.array([[0.5], [np.nan], [0.9]]), "nan"),
    ])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda q: lqmath.lq_likelihood(np.zeros((3, 4)), 0.0, 1.0, q), id="lq_likelihood"),
    ])
    def test_primitives_check_q(self, call, q, shown):
        # every entry of an array q is checked; a q of 1.5 or NaN would otherwise give a likelihood with no error
        with pytest.raises(ValueError, match=rf"^q must satisfy 0 < q <= 1, got {shown}$"):
            call(q)
        call(np.where(np.isfinite(q) & (q > 0.0) & (q <= 1.0), q, 1.0))

    @pytest.mark.parametrize("bad", [0, 1, -0.1, np.nan, "abc", None])
    def test_alpha_must_lie_in_the_unit_interval(self, bad):
        # alpha=None used to raise TypeError from the comparison
        with pytest.raises(ValueError, match=rf"^alpha must lie in \(0, 1\), got {re.escape(repr(bad))}$"):
            gemsim.run_scenario(gemsim.builtin_scenarios()[0], "t", eps_grid=[0.0], reps=2, alpha=bad, seed=0)

    def test_alpha_and_eps_read_as_numbers(self):
        sc = gemsim.builtin_scenarios()[0]
        want = gemsim.run_scenario(sc, "t", eps_grid=[0.0, 0.1], reps=3, alpha=0.05, seed=0)
        got = gemsim.run_scenario(sc, "t", eps_grid=["0", "0.1"], reps=3, alpha="0.05", seed=0)
        assert got == want and type(got[0].alpha) is float
        assert lqmath.check_alpha("0.05") == 0.05 and lqmath.check_eps(np.float64(0.25)) == 0.25
        with pytest.raises(ValueError, match=r"^eps must lie in \[0, 0\.5\), got 0\.5$"):
            gemsim.run_scenario(sc, "t", eps_grid=[0.0, 0.5], reps=2, seed=0)

    def test_whole_counts_of_any_type_accepted(self):
        want = lqrt.lqrtest_1samp(self._X, 0.0, q=0.7, bootstrap=1000, seed=1)
        for k in (1000.0, np.int64(1000), np.float64(1000.0)):
            out = lqrt.lqrtest_1samp(self._X, 0.0, q=0.7, bootstrap=k, seed=1)
            assert out == want and type(out.bootstrap) is int
        sc = gemsim.builtin_scenarios()[0]
        runs = [gemsim.run_scenario(sc, "t", eps_grid=[0.1], reps=k, seed=4) for k in (3, 3.0, np.int64(3))]
        assert runs[0] == runs[1] == runs[2] and runs[1][0].repetitions == 3
        assert gemsim.sample_gem(self._SPEC, 5.0, np.random.default_rng(0)).size == 5
        spec = gemsim.ScenarioSpec("one_sample", (0.0,), (0.3,), (1.0, None, 50.0), n=np.int64(30))
        assert type(spec.n) is int
        cfg = lqrt.FitConfig(max_iter=500.0)
        assert type(cfg.max_iter) is int and cfg == lqrt.DEFAULT_CONFIG
        assert lqrt.fit_normal(self._X, 0.7, cfg) == lqrt.fit_normal(self._X, 0.7)

    @pytest.mark.parametrize("names, min_len, call", [
        pytest.param(("x1", "x2"), 3, lambda x, y: lqrt.lqrtest_rel(x, y, bootstrap=10, seed=1), id="lqrtest_rel"),
        pytest.param(("x1", "x2"), 2, lambda x, y: lqrt.lqrtest_rel(x, y, q=0.7, bootstrap=10, seed=1),
                     id="lqrtest_rel_fixed_q"),
        pytest.param(("x", "y"), 2, lambda x, y: lqrt.ttest_rel(x, y), id="ttest_rel"),
        pytest.param(("x", "y"), 0, lambda x, y: lqrt.wilcoxon_signed_rank(x, y), id="wilcoxon_signed_rank"),
    ])
    def test_pairing_checked_the_same_way(self, names, min_len, call):
        with pytest.raises(ValueError, match=r"^paired samples must have equal length$"):
            call(self._X, self._X[:-1])
        with pytest.raises(ValueError, match=rf"^{names[1]} contains NaN"):
            call(self._X, np.where(np.arange(20) == 4, np.nan, self._X))
        if min_len:
            short = self._X[: min_len - 1]
            with pytest.raises(ValueError, match=rf"^{names[0]} must hold at least {min_len} observations"):
                call(short, short)
        assert 0.0 <= call(self._X[:min_len + 1], self._X[1:min_len + 2]).pvalue <= 1.0

    @pytest.mark.parametrize("call", [
        pytest.param(lambda x, q: lqrt.lqrtest_1samp(x, 0.0, q=q, bootstrap=10, seed=1), id="lqrtest_1samp"),
        pytest.param(lambda x, q: lqrt.lqrtest_ind(x, x + 1.0, q=q, bootstrap=10, seed=1), id="lqrtest_ind"),
    ])
    def test_adaptive_q_needs_three_observations(self, call):
        with pytest.raises(ValueError, match=r"must hold at least 3 observations, got 2$"):
            call(self._X[:2], None)
        call(self._X[:2], 0.7)
        call(self._X[:3], None)

    @pytest.mark.parametrize("field", ["mu", "sigma2", "tau2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "abc", None])
    def test_mixture_parameters_must_be_finite(self, field, bad):
        # None used to raise TypeError from math.isfinite, with no name
        args = {"mu": 0.0, "sigma2": 1.0, "tau2": 50.0, "eps": 0.1, field: bad}
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {re.escape(repr(bad))}$"):
            gemsim.GrossErrorSpec(**args)

    def test_mixture_parameters_read_as_numbers(self):
        spec = gemsim.GrossErrorSpec("0", np.float64(1.0), 50, "0.1")
        assert spec == self._SPEC and all(type(v) is float for v in vars(spec).values())
        # the same words as run_scenario's check of the eps grid
        for bad in (0.6, -0.1, None, "abc"):
            with pytest.raises(ValueError, match=rf"^eps must lie in \[0, 0\.5\), got {re.escape(repr(bad))}$"):
                gemsim.GrossErrorSpec(0.0, 1.0, 50.0, bad)
        with pytest.raises(ValueError, match=r"^need 0 < sigma2 < tau2$"):
            gemsim.GrossErrorSpec(0.0, 2.0, "2", 0.1)

    def test_check_helpers_return_plain_numbers(self):
        assert lqmath.check_finite(np.float64(0.25), "mu0") == 0.25
        assert type(lqmath.check_finite(np.int64(2), "mu0")) is float
        assert lqmath.check_count(np.float64(7.0), "n", minimum=2) == 7
        with pytest.raises(ValueError, match=r"^n must be a whole number of at least 2, got 1$"):
            lqmath.check_count(1, "n", minimum=2)
        # a number given as text is read as the number, as check_q reads it
        assert lqmath.check_count("1e3", "bootstrap") == 1000 and lqmath.check_finite("-0.5", "u") == -0.5
        assert lqrt.FitConfig(tol="1e-8", max_iter="500") == lqrt.DEFAULT_CONFIG
        # an infinite tol stopped every row after one map evaluation, reported as converged
        for bad in ("abc", None, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"^tol must be finite and positive, got {bad!r}$"):
                lqrt.FitConfig(tol=bad)
