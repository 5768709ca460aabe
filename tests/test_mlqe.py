import numpy as np
import pytest
from numpy.testing import assert_allclose

import lqrt
from lqrt import lqmath, mlqe
from lqrt.mlqe import DEFAULT_CONFIG, FitConfig, VARIANCE_FLOOR

from _oracles import (
    fit_known_mean_oracle,
    fit_normal_oracle,
    fit_shared_mean_oracle,
    fit_shared_variance_oracle,
)

TIGHT = FitConfig(tol=1e-12, max_iter=5000)


def contaminated(rng, n=50, n_out=5, mu=0.0, sigma=1.0, tau=np.sqrt(50.0)):
    return np.concatenate(
        [rng.normal(mu, sigma, n - n_out), rng.normal(mu, tau, n_out)]
    )


class TestFitNormal:
    def test_q1_is_mle(self):
        fit = lqrt.fit_normal([1.0, 2.0, 3.0], 1.0)
        assert fit.mu == pytest.approx(2.0, abs=0)
        assert fit.sigma2 == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert fit.converged and fit.iterations == 1 and not fit.clipped

    def test_constant_sample_clips(self):
        fit = lqrt.fit_normal([5.0, 5.0, 5.0, 5.0], 0.7)
        assert fit.mu == 5.0
        assert fit.sigma2 == VARIANCE_FLOOR
        assert fit.clipped

    def test_robust_variance_below_sample_variance(self):
        rng = np.random.default_rng(101)
        x = contaminated(rng, n=55, n_out=5)
        fit = lqrt.fit_normal(x, 0.6)
        assert fit.sigma2 < np.mean((x - x.mean()) ** 2)

    def test_q1_reduction_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = rng.integers(2, 40)
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), n)
            fit = lqrt.fit_normal(x, 1.0)
            assert_allclose(fit.mu, x.mean(), rtol=1e-12)
            assert_allclose(fit.sigma2, np.mean((x - x.mean()) ** 2), rtol=1e-12)

    def test_variance_floor_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            kind = rng.integers(0, 3)
            if kind == 0:
                x = rng.normal(0, 1, rng.integers(2, 12))
            elif kind == 1:
                x = np.full(rng.integers(2, 12), rng.uniform(-5, 5))  # constant
            else:
                x = rng.uniform(-1, 1) + rng.normal(0, 1e-12, rng.integers(2, 12))
            fit = lqrt.fit_normal(x, rng.uniform(0.5, 1.0))
            assert fit.sigma2 >= VARIANCE_FLOOR

    def test_fixed_point_consistency(self):
        # one more hand-applied update step must move a converged fit < tol
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = contaminated(rng)
            q = rng.uniform(0.5, 0.95)
            fit = lqrt.fit_normal(x, q)
            assert fit.converged and not fit.clipped
            w = lqmath.lq_weight(x, fit.mu, fit.sigma2, q)
            mu_next = np.sum(w * x) / np.sum(w)
            s2_next = np.sum(w * (x - mu_next) ** 2) / np.sum(w)
            assert abs(mu_next - fit.mu) / np.sqrt(s2_next) < DEFAULT_CONFIG.tol
            assert abs(s2_next - fit.sigma2) / s2_next < DEFAULT_CONFIG.tol

    def test_objective_monotone_along_iterates(self):
        # iterate k is recovered by capping max_iter at k
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = contaminated(rng)
            q = rng.uniform(0.5, 0.9)
            values = []
            for k in range(1, 25):
                fit = lqrt.fit_normal(x, q, FitConfig(tol=1e-300, max_iter=k))
                if fit.clipped:
                    break
                values.append(lqmath.lq_likelihood(x, fit.mu, fit.sigma2, q))
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-9)

    def test_shift_scale_equivariance(self):
        rng = np.random.default_rng(12)
        x = contaminated(rng)
        q = 0.7
        base = lqrt.fit_normal(x, q, TIGHT)
        for a in (0.5, 2.0):
            for b in (-3.0, 7.0):
                fit = lqrt.fit_normal(a * x + b, q, TIGHT)
                assert not fit.clipped
                assert_allclose(fit.mu, a * base.mu + b, rtol=1e-8, atol=1e-8)
                assert_allclose(fit.sigma2, a * a * base.sigma2, rtol=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lqrt.fit_normal([1.0], 0.8)
        with pytest.raises(ValueError):
            lqrt.fit_normal([1.0, np.nan, 2.0], 0.8)
        with pytest.raises(ValueError):
            lqrt.fit_normal([1.0, 2.0], 1.5)

    def test_max_iter_returns_last_iterate(self):
        rng = np.random.default_rng(13)
        x = contaminated(rng)
        fit = lqrt.fit_normal(x, 0.5, FitConfig(tol=1e-300, max_iter=3))
        assert not fit.converged
        assert fit.iterations == 3
        assert np.isfinite(fit.mu) and np.isfinite(fit.sigma2)


class TestFitVarianceKnownMean:
    def test_q1_value(self):
        fit = lqrt.fit_variance_known_mean([-1.0, 1.0], 0.0, 1.0)
        assert fit.mu == 0.0
        assert fit.sigma2 == pytest.approx(1.0, rel=1e-15)

    def test_constant_at_mean_clips(self):
        fit = lqrt.fit_variance_known_mean([2.0, 2.0, 2.0], 2.0, 0.8)
        assert fit.sigma2 == VARIANCE_FLOOR and fit.clipped

    def test_robust_variance_smaller_than_q1(self):
        rng = np.random.default_rng(77)
        x = contaminated(rng)
        v_mle = lqrt.fit_variance_known_mean(x, 0.0, 1.0).sigma2
        v_rob = lqrt.fit_variance_known_mean(x, 0.0, 0.6).sigma2
        assert v_rob < v_mle

    def test_mean_is_argument_exactly(self):
        rng = np.random.default_rng(14)
        x = rng.normal(3, 2, 20)
        fit = lqrt.fit_variance_known_mean(x, 2.75, 0.7)
        assert fit.mu == 2.75


class TestFitSharedVariance:
    def test_q1_pooled_mle(self):
        fit = lqrt.fit_shared_variance([0.0, 2.0], [10.0, 12.0], 1.0)
        assert fit.mu_x == pytest.approx(1.0, abs=0)
        assert fit.mu_y == pytest.approx(11.0, abs=0)
        assert fit.sigma2 == pytest.approx(1.0, rel=1e-15)

    def test_identical_samples_match_one_sample_fit(self):
        rng = np.random.default_rng(15)
        x = contaminated(rng, n=30, n_out=3)
        fit = lqrt.fit_shared_variance(x, x, 0.7, TIGHT)
        one = lqrt.fit_normal(x, 0.7, TIGHT)
        assert_allclose(fit.mu_x, fit.mu_y, rtol=1e-12)
        assert_allclose(fit.mu_x, one.mu, rtol=0, atol=1e-9)
        assert_allclose(fit.sigma2, one.sigma2, rtol=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        x = contaminated(rng, n=40, n_out=4)
        y = contaminated(rng, n=30, n_out=3, mu=1.0)
        fit = lqrt.fit_shared_variance(x, y, 0.7, TIGHT)
        mx, my, s2 = fit_shared_variance_oracle(x, y, 0.7)
        assert_allclose([fit.mu_x, fit.mu_y, fit.sigma2], [mx, my, s2], rtol=1e-8, atol=1e-8)


class TestFitSharedMean:
    def test_q1_value(self):
        fit = lqrt.fit_shared_mean([-1.0, 1.0], [-2.0, 2.0], 1.0)
        assert fit.mu == pytest.approx(0.0, abs=1e-15)
        assert fit.sigma2_x == pytest.approx(1.0, rel=1e-12)
        assert fit.sigma2_y == pytest.approx(4.0, rel=1e-12)

    def test_identical_samples(self):
        rng = np.random.default_rng(17)
        x = contaminated(rng, n=30, n_out=3)
        fit = lqrt.fit_shared_mean(x, x, 0.8, TIGHT)
        one = lqrt.fit_normal(x, 0.8, TIGHT)
        assert_allclose(fit.mu, one.mu, atol=1e-9)
        assert_allclose(fit.sigma2_x, fit.sigma2_y, rtol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(18)
        x = contaminated(rng, n=40, n_out=4)
        y = contaminated(rng, n=25, n_out=2, mu=0.5, sigma=2.0)
        fit = lqrt.fit_shared_mean(x, y, 0.7, TIGHT)
        mu, s2x, s2y = fit_shared_mean_oracle(x, y, 0.7)
        assert_allclose([fit.mu, fit.sigma2_x, fit.sigma2_y], [mu, s2x, s2y], rtol=1e-8, atol=1e-8)


class TestOracleAgreementAllFitters:
    def test_fit_normal_and_known_mean(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = contaminated(rng)
            q = rng.uniform(0.5, 0.95)
            fit = lqrt.fit_normal(x, q, TIGHT)
            mu, s2 = fit_normal_oracle(x, q)
            assert_allclose([fit.mu, fit.sigma2], [mu, s2], rtol=1e-8, atol=1e-8)
            fitk = lqrt.fit_variance_known_mean(x, 0.1, q, TIGHT)
            _, s2k = fit_known_mean_oracle(x, 0.1, q)
            assert_allclose(fitk.sigma2, s2k, rtol=1e-8)


class TestWindow:
    """The fixed-point window changes no bit of any fit, and a lazy gather fits as its rows do."""

    # each fitter on an x block of width 3 and a y block of width 4
    FITS = {
        "normal": lambda xs, ys, mu0, q, cfg: mlqe.batch_fit_normal(xs, q, cfg),
        "known_mean": lambda xs, ys, mu0, q, cfg: mlqe.batch_fit_variance_known_mean(xs, mu0, q, cfg),
        "shared_variance": lambda xs, ys, mu0, q, cfg: mlqe.batch_fit_shared_variance(xs, ys, q, cfg),
        "shared_mean": lambda xs, ys, mu0, q, cfg: mlqe.batch_fit_shared_mean(xs, ys, q, cfg),
    }
    WIDTH = {"normal": 3, "known_mean": 3, "shared_variance": 7, "shared_mean": 7}
    # WINDOW_ELEMENTS for a fit of the given row width over 37 rows
    WINDOWS = {
        "one_row": lambda width: width,
        "seven": lambda width: 7,  # two rows of width 3, one of width 7
        "uneven": lambda width: 5 * width + width // 2,  # 37 rows: seven windows of 5, then 2
        "above_input": lambda width: 37 * width + 1,
    }

    # q and the pinned mean: scalars, every row the same values, or each row its own
    Q_KINDS = ["scalar", "uniform", "per_row"]

    @staticmethod
    def _batch(q_kind):
        rng = np.random.default_rng(31)
        xs, ys = rng.normal(0.5, 2.0, (37, 3)), rng.normal(-0.3, 1.0, (37, 4))
        xs[rng.random((37, 3)) < 0.15] = 30.0  # outliers: slow rows, some that reach max_iter 7
        xs[4] = 2.0  # a constant row clips
        # squares that overflow only when summed: the variance is inf, every weight 0, the row stuck
        xs[9], ys[11] = [1.2e154, -1.2e154, 0.0], [1e154, -1e154, 1e154, -1e154]
        xs[20, 0] = 1e160  # a square that overflows: the variance is inf, the weights NaN, the row stuck
        if q_kind == "scalar":
            return xs, ys, 0.4, 0.7
        if q_kind == "uniform":
            return xs, ys, np.full(37, 0.4), np.full(37, 0.7)
        q = np.where(rng.random(37) < 0.25, 1.0, rng.uniform(0.5, 1.0, 37))
        return xs, ys, rng.normal(0.0, 1.0, 37), q

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("max_iter", [7, 500])
    @pytest.mark.parametrize("q_kind", Q_KINDS)
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_window_changes_no_bit(self, monkeypatch, fit, q_kind, max_iter, window):
        args = (*self._batch(q_kind), FitConfig(max_iter=max_iter))
        monkeypatch.setattr(mlqe, "WINDOW_ELEMENTS", 2**62)
        whole = [np.asarray(a).tobytes() for a in self.FITS[fit](*args)]
        monkeypatch.setattr(mlqe, "WINDOW_ELEMENTS", self.WINDOWS[window](self.WIDTH[fit]))
        assert [np.asarray(a).tobytes() for a in self.FITS[fit](*args)] == whole

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q_kind", Q_KINDS)
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_overflowing_row_stops_clipped(self, fit, q_kind):
        # row 20 keeps its start, the unit-weight fit, instead of running on NaN to max_iter
        *params, iterations, converged, clipped = self.FITS[fit](*self._batch(q_kind), FitConfig(max_iter=500))
        assert (iterations[20], converged[20], clipped[20]) == (1, False, True)
        assert not any(np.isnan(p[20]) for p in params)
        assert np.isinf(params[-1][20])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q", [0.7, 1.0])
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_uniform_rows_fit_as_the_scalar(self, fit, q):
        # one q and one pinned mean given per row fit bit for bit as the scalars do
        xs, ys, _, _ = self._batch("scalar")
        cfg = FitConfig(max_iter=7)
        uniform = self.FITS[fit](xs, ys, np.full(37, 0.4), np.full(37, q), cfg)
        assert [a.tobytes() for a in uniform] == [a.tobytes() for a in self.FITS[fit](xs, ys, 0.4, q, cfg)]

    def test_uniform_rows_take_the_scalar_q_pass(self):
        # every row sharing one q gives the float the scalar pass runs on; mixed rows give a column
        for q in (0.7, 1.0):
            got = mlqe._q_column(np.full(5, q), 5)
            assert type(got) is float and got == q
        mixed = mlqe._q_column(np.array([0.7, 0.7, 1.0, 0.7, 0.7]), 5)
        assert mixed.shape == (5, 1)
        assert type(mlqe._q_column(0.7, 5)) is float and np.isnan(mlqe._q_column(np.nan, 5))
        assert mlqe._q_column(np.full(5, np.nan), 5).shape == (5, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_gather_fits_as_its_materialized_block(self, monkeypatch, fit):
        rng = np.random.default_rng(32)
        _, _, mu0, q = self._batch("per_row")
        base_x, base_y = contaminated(rng, n=20, n_out=2), rng.normal(0.4, 1.5, 15)
        base_x[7] = 1e160
        ix, iy = rng.integers(0, 20, (37, 3)), rng.integers(0, 15, (37, 4))
        monkeypatch.setattr(mlqe, "WINDOW_ELEMENTS", 20)
        args = (mu0, q, FitConfig(max_iter=50))
        no_offset = np.zeros(37, dtype=np.intp)
        lazy = self.FITS[fit](mlqe._Gather((base_x, ix, no_offset)), mlqe._Gather((base_y, iy, no_offset)), *args)
        dense = self.FITS[fit](base_x[ix], base_y[iy], *args)
        assert [a.tobytes() for a in lazy] == [a.tobytes() for a in dense]

    def test_gather_rows_are_the_materialized_rows(self):
        rng = np.random.default_rng(33)
        flat, block = rng.normal(size=40), rng.normal(size=(6, 5))
        index, offset = rng.integers(0, 10, (9, 3), dtype=np.uint8), 10 * rng.integers(0, 4, 9)
        rows = rng.integers(0, 6, 9)
        by_index, by_row = mlqe._Gather((flat, index, offset)), mlqe._Gather.of_rows(block, rows)
        joined = mlqe._joined(by_index, by_row)
        picked = flat[index + offset[:, None]]
        dense = np.concatenate([picked, block[rows]], axis=1)
        assert (by_index.shape, by_row.shape, joined.shape) == ((9, 3), (9, 5), (9, 8))
        assert by_index[2:7].tobytes() == picked[2:7].tobytes()
        assert by_row[4:].tobytes() == block[rows][4:].tobytes()
        assert joined[1:8].tobytes() == dense[1:8].tobytes()
        mixed = np.concatenate([block, block[rows[:6]]], axis=1)
        assert mlqe._joined(block, mlqe._Gather.of_rows(block, rows[:6]))[:].tobytes() == mixed.tobytes()


def test_variance_bias_correction():
    assert lqrt.variance_bias_correction(1.0, 1.0) == 1.0
    assert lqrt.variance_bias_correction(2.0, 0.5) == 1.0
    assert lqrt.variance_bias_correction(0.8, 0.9) == pytest.approx(0.72, rel=1e-15)
    with pytest.raises(ValueError):
        lqrt.variance_bias_correction(-1.0, 0.5)
