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


def minus_mean(xs, mu0):
    # xs - mu0 row by row, the data of the known-mean fit pinned at mu0; a gather comes with mu0 None, as it is
    return xs if mu0 is None else xs - np.reshape(mu0, (-1, 1))


def known_mean(xs, mu0, q, cfg):
    return mlqe.batch_fit_variance_known_mean(minus_mean(xs, mu0), q, cfg)


def pooled_null(xs, ys, q, cfg):
    # the pooled test's null fit: both samples in one mean group and one variance group
    (mu,), (s2,), *state = mlqe._fixed_point((xs, ys), (0, 0), (0, 0), q, cfg)
    return mu, s2, *state


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

    def test_constant_sample_whose_mean_rounds_clips_at_once(self):
        # 1.7 * 7 / 7 rounds to 1.6999999999999997, but the sample has no spread
        fit = lqrt.fit_normal([1.7] * 7, 0.7)
        assert fit.sigma2 == VARIANCE_FLOOR and fit.clipped
        assert fit.converged and fit.iterations == 1
        pooled = lqrt.fit_shared_variance([1.7] * 5, [0.1] * 6, 0.7)
        assert pooled.sigma2 == VARIANCE_FLOOR and pooled.clipped and pooled.iterations == 1
        joint = lqrt.fit_shared_mean([1.7] * 5, [1.7] * 6, 0.7)
        assert joint.sigma2_x == joint.sigma2_y == VARIANCE_FLOOR and joint.clipped and joint.iterations == 1

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
        # a constant sample clips at VARIANCE_FLOOR, whether or not its mean rounds; any other sample
        # is floored at VARIANCE_FLOOR times its maximum-likelihood variance, so one whose spread is
        # 1e-12 fits a variance far below VARIANCE_FLOOR
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
            if kind == 1:
                assert fit.sigma2 == VARIANCE_FLOOR and fit.clipped
            else:
                assert fit.sigma2 >= VARIANCE_FLOOR * np.mean((x - x.mean()) ** 2)

    def test_fixed_point_consistency(self):
        # one more hand-applied update step must move a converged fit < tol
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = contaminated(rng)
            q = rng.uniform(0.5, 0.95)
            fit = lqrt.fit_normal(x, q)
            assert fit.converged and not fit.clipped
            w = lqmath._weight(x, fit.mu, fit.sigma2, q)
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
        with pytest.raises(ValueError, match="per-row q must match the number of rows"):
            mlqe.batch_fit_normal(np.random.default_rng(14).normal(0, 1, (5, 4)), [0.5, 0.7, 0.9])

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

    def test_all_fitters_at_a_small_scale(self):
        # the README sample times 1e-9: every variance is near 1e-18, far below VARIANCE_FLOOR, which
        # bound each of these fits while the floor was absolute
        rng = np.random.default_rng(314)
        x = 1e-9 * np.concatenate([rng.normal(0.3, 1, 45), rng.normal(0.3, np.sqrt(50), 5)])
        y = 1e-9 * rng.normal(0.0, 1, 60)
        q, tiny = 0.7, 1e-17
        fit = lqrt.fit_normal(x, q, TIGHT)
        assert_allclose([fit.mu, fit.sigma2], fit_normal_oracle(x, q), rtol=1e-8, atol=tiny)
        fitk = lqrt.fit_variance_known_mean(x, 1e-10, q, TIGHT)
        assert_allclose(fitk.sigma2, fit_known_mean_oracle(x, 1e-10, q)[1], rtol=1e-8)
        fsv = lqrt.fit_shared_variance(x, y, q, TIGHT)
        assert_allclose([fsv.mu_x, fsv.mu_y, fsv.sigma2], fit_shared_variance_oracle(x, y, q), rtol=1e-8, atol=tiny)
        fsm = lqrt.fit_shared_mean(x, y, q, TIGHT)
        assert_allclose([fsm.mu, fsm.sigma2_x, fsm.sigma2_y], fit_shared_mean_oracle(x, y, q), rtol=1e-8, atol=tiny)
        for f in (fit, fitk, fsv, fsm):
            assert f.converged and not f.clipped
        assert max(fit.sigma2, fitk.sigma2, fsv.sigma2, fsm.sigma2_x, fsm.sigma2_y) < VARIANCE_FLOOR


class TestWindow:
    """The fixed-point window changes no bit of any fit, and a lazy gather fits as its rows do."""

    # each fitter on an x block of width 3 and a y block of width 4
    FITS = {
        "normal": lambda xs, ys, mu0, q, cfg: mlqe.batch_fit_normal(xs, q, cfg),
        "known_mean": lambda xs, ys, mu0, q, cfg: known_mean(xs, mu0, q, cfg),
        "shared_variance": lambda xs, ys, mu0, q, cfg: mlqe.batch_fit_shared_variance(xs, ys, q, cfg),
        "shared_mean": lambda xs, ys, mu0, q, cfg: mlqe.batch_fit_shared_mean(xs, ys, q, cfg),
        "pooled": lambda xs, ys, mu0, q, cfg: pooled_null(xs, ys, q, cfg),
    }
    WIDTH = {"normal": 3, "known_mean": 3, "shared_variance": 7, "shared_mean": 7, "pooled": 7}
    # WINDOW_ELEMENTS for a fit of the given row width over 37 rows
    WINDOWS = {
        "one_row": lambda width: width,
        "seven": lambda width: 7,  # two rows of width 3, one of width 7
        "uneven": lambda width: 5 * width + width // 2,  # 37 rows: seven windows of 5, then 2
        "above_input": lambda width: 37 * width + 1,
    }

    # q and the known mean: scalars, every row the same values, or each row its own
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
        # one q given per row fits bit for bit as the scalar does
        xs, ys, _, _ = self._batch("scalar")
        cfg = FitConfig(max_iter=7)
        uniform = self.FITS[fit](xs, ys, 0.4, np.full(37, q), cfg)
        assert [a.tobytes() for a in uniform] == [a.tobytes() for a in self.FITS[fit](xs, ys, 0.4, q, cfg)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_gather_fits_as_its_materialized_block(self, monkeypatch, fit):
        rng = np.random.default_rng(32)
        _, _, _, q = self._batch("per_row")
        base_x, base_y = contaminated(rng, n=20, n_out=2), rng.normal(0.4, 1.5, 15)
        base_x[7] = 1e160
        ix, iy = rng.integers(0, 20, (37, 3)), rng.integers(0, 15, (37, 4))
        monkeypatch.setattr(mlqe, "WINDOW_ELEMENTS", 20)
        args = (None, q, FitConfig(max_iter=50))
        no_offset = np.zeros(37, dtype=np.intp)
        lazy = self.FITS[fit](mlqe._Gather(base_x, ix, no_offset), mlqe._Gather(base_y, iy, no_offset), *args)
        dense = self.FITS[fit](base_x[ix], base_y[iy], *args)
        assert [a.tobytes() for a in lazy] == [a.tobytes() for a in dense]

    def test_gather_rows_are_the_materialized_rows(self):
        rng = np.random.default_rng(33)
        flat, block = rng.normal(size=40), rng.normal(size=(6, 5))
        index, offset = rng.integers(0, 10, (9, 3), dtype=np.uint8), 10 * rng.integers(0, 4, 9)
        rows = rng.integers(0, 6, 9)
        by_index, by_row = mlqe._Gather(flat, index, offset), mlqe._Gather.of_rows(block, rows)
        picked = flat[index + offset[:, None]]
        assert (by_index.shape, by_row.shape) == ((9, 3), (9, 5))
        assert by_index[2:7].tobytes() == picked[2:7].tobytes()
        assert by_row[4:].tobytes() == block[rows][4:].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("window", ["whole", "one_row"])
@pytest.mark.parametrize("fit", sorted(TestWindow.FITS))
def test_overflowing_rows_warn_in_no_window(monkeypatch, fit, window):
    # TestWindow's batch holds rows whose squares overflow; in one window every row enters with
    # the first, in windows of one row all but row 0 enter later, and neither warns
    width = {"whole": 2**62, "one_row": TestWindow.WIDTH[fit]}[window]
    monkeypatch.setattr(mlqe, "WINDOW_ELEMENTS", width)
    *_, iterations, converged, clipped = TestWindow.FITS[fit](*TestWindow._batch("per_row"), DEFAULT_CONFIG)
    assert (iterations[20], converged[20], clipped[20]) == (1, False, True)


def plain_fit(blocks, mean_of, var_of, q, pinned=False, tol=1e-12, max_iter=20_000):
    """The reweighting map without acceleration, on every row at once, each row stopped by the engine's rules.

    Block k is modelled as N(mu[mean_of[k]], s2[var_of[k]]); when pinned the
    one mean is held at 0.  The start is the unit-weight fit.  A row stops
    when a step moves every mean less than tol largest standard deviations
    and every log variance less than tol, and stops unconverged when some
    parameter group's weights do not sum to a positive number.  Returns
    (means, variances, iterations, converged), the first two shaped (groups, rows).
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    rows = len(blocks[0])
    q = np.broadcast_to(np.asarray(q, dtype=float), (rows,))
    n_mean, n_var = max(mean_of) + 1, max(var_of) + 1

    def groups(values, of, n):
        return [sum(v for v, g in zip(values, of) if g == j) for j in range(n)]

    def step(idx, mu, s2, start):
        xs = [b[idx] for b in blocks]
        if start:
            w = [np.ones_like(x) for x in xs]
        else:
            w = [np.exp((1.0 - q[idx, None]) * (-0.5 * np.log(2.0 * np.pi * s2[j][:, None])
                                                 - (x - mu[i][:, None]) ** 2 / (2.0 * s2[j][:, None])))
                 for x, i, j in zip(xs, mean_of, var_of)]
        sw = [wk.sum(axis=1) for wk in w]
        ok = np.logical_and.reduce([s > 0.0 for s in groups(sw, mean_of, n_mean) + groups(sw, var_of, n_var)])
        if not pinned:
            mu = np.array(groups([(wk * x).sum(axis=1) for wk, x in zip(w, xs)], mean_of, n_mean)) / groups(
                sw, mean_of, n_mean)
        dev = [(wk * (x - mu[i][:, None]) ** 2).sum(axis=1) for wk, x, i in zip(w, xs, mean_of)]
        s2 = np.maximum(np.array(groups(dev, var_of, n_var)) / groups(sw, var_of, n_var), VARIANCE_FLOOR)
        return mu, s2, ok

    with np.errstate(all="ignore"):
        mu, s2, _ = step(np.arange(rows), np.zeros((1, rows)) if pinned else None, None, True)
        iterations, converged = np.zeros(rows, dtype=int), np.zeros(rows, dtype=bool)
        active = np.arange(rows)
        for k in range(1, max_iter + 1):
            new_mu, new_s2, ok = step(active, mu[:, active], s2[:, active], False)
            done = ok & np.all(np.abs(np.log(new_s2 / s2[:, active])) < tol, axis=0)
            done &= np.all(np.abs(new_mu - mu[:, active]) / np.sqrt(new_s2.max(axis=0)) < tol, axis=0)
            mu[:, active], s2[:, active] = np.where(ok, new_mu, mu[:, active]), np.where(ok, new_s2, s2[:, active])
            stop = done | ~ok | (k == max_iter)
            iterations[active[stop]], converged[active[stop]] = k, done[stop]
            active = active[~stop]
            if not len(active):
                break
    return mu, s2, iterations, converged


def plain_step(blocks, mean_of, var_of, q, mu, s2, pinned=False):
    """One step of the reweighting map from (mu, s2), each shaped (groups, rows), with q one value per row.

    The weights are f^(1-q) at the point (the fitters' kernel); each mean group moves to its
    blocks' pooled weighted mean (unless pinned) and each variance group to
    its blocks' pooled weighted squared deviations from the new means.
    """
    w = [lqmath._weight(x, mu[i][:, None], s2[j][:, None], q[:, None]) for x, i, j in zip(blocks, mean_of, var_of)]
    sw = [wk.sum(axis=1) for wk in w]

    def pooled(values, of):
        return np.array([sum(v for v, g in zip(values, of) if g == j) for j in range(max(of) + 1)])

    if not pinned:
        mu = pooled([(wk * x).sum(axis=1) for wk, x in zip(w, blocks)], mean_of) / pooled(sw, mean_of)
    dev = [(wk * (x - mu[i][:, None]) ** 2).sum(axis=1) for wk, x, i in zip(w, blocks, mean_of)]
    return mu, pooled(dev, var_of) / pooled(sw, var_of)


def lq_total(blocks, mean_of, var_of, q, mu, s2):
    """The Lq-likelihood of every row at (mu, s2): the sum of lq_likelihood over the blocks."""
    return sum(lqmath.lq_likelihood(x, mu[i][:, None], s2[j][:, None], q[:, None])
               for x, i, j in zip(blocks, mean_of, var_of))


class TestAcceleration:
    """Every accelerated row reaches the plain map's fixed point, with fewer map evaluations.

    MLqE fixed points are not unique, so an extrapolation that leaves the
    basin of the plain path's fixed point would settle on another one.  The
    reference is the plain map run to tol 1e-12.
    """

    # (batch fitter, plain_fit layout): block means, block variances, mean pinned
    FITS = {
        "normal": (TestWindow.FITS["normal"], (0,), (0,), False),
        "known_mean": (TestWindow.FITS["known_mean"], (0,), (0,), True),
        "shared_variance": (TestWindow.FITS["shared_variance"], (0, 1), (0, 0), False),
        "shared_mean": (TestWindow.FITS["shared_mean"], (0, 0), (0, 1), False),
        "pooled": (TestWindow.FITS["pooled"], (0, 0), (0, 0), False),
    }
    # contaminated(default_rng(seed)) samples resampled 250 times each; without the
    # linear-regime gate the extrapolation leaves the plain path's basin on some rows of these
    SEEDS = (3, 5, 20, 22)
    Q_GRID = (0.5, 0.6, 0.7, 0.9)

    @classmethod
    def _contaminated_batch(cls):
        # xs, ys, the known means and a per-row q over the grid
        parts = []
        for seed in cls.SEEDS:
            x = contaminated(np.random.default_rng(seed))
            y = contaminated(np.random.default_rng(seed + 1000), n=40, n_out=4, mu=0.5)
            rng = np.random.default_rng(41)
            parts.append((x[rng.integers(0, 50, (250, 50))], y[rng.integers(0, 40, (250, 40))], rng.normal(0.0, 0.3, 250)))
        xs, ys, mu0 = (np.concatenate(p) for p in zip(*parts))
        return xs, ys, mu0, np.random.default_rng(42).choice(cls.Q_GRID, len(xs))

    @staticmethod
    def _reference(fit, xs, ys, mu0, q, **kw):
        _, mean_of, var_of, pinned = TestAcceleration.FITS[fit]
        blocks = (minus_mean(xs, mu0) if pinned else xs,) if len(mean_of) == 1 else (xs, ys)
        return plain_fit(blocks, mean_of, var_of, q, pinned, **kw)

    def _check_same_fixed_point(self, fit, xs, ys, mu0, q):
        call, mean_of, _, pinned = self.FITS[fit]
        *params, _, converged, clipped = call(xs, ys, mu0, q, DEFAULT_CONFIG)
        mu, s2, _, ref_converged = self._reference(fit, xs, ys, mu0, q)
        n_mean = 1 if pinned else max(mean_of) + 1
        means, variances = np.array(params[:n_mean]), np.array(params[n_mean:])
        rows = converged & ~clipped & ref_converged
        sigma = np.sqrt(s2.max(axis=0))
        off_mean = np.max(np.abs(means - mu) / sigma, axis=0)
        off_var = np.max(np.abs(variances - s2) / s2, axis=0)
        assert np.count_nonzero(rows) >= 0.97 * len(rows)
        assert off_mean[rows].max() <= 1e-6 and off_var[rows].max() <= 1e-6, (
            np.flatnonzero(rows & ((off_mean > 1e-6) | (off_var > 1e-6))))

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_contaminated_resamples_reach_the_plain_fixed_point(self, fit):
        xs, ys, mu0, q_rows = self._contaminated_batch()
        for q in (*self.Q_GRID, q_rows):
            self._check_same_fixed_point(fit, xs, ys, mu0, q)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q_kind", TestWindow.Q_KINDS)
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_window_batch_reaches_the_plain_fixed_point(self, fit, q_kind):
        xs, ys, mu0, q = TestWindow._batch(q_kind)
        call, mean_of, _, pinned = self.FITS[fit]
        *params, _, converged, clipped = call(xs, ys, mu0, q, DEFAULT_CONFIG)
        mu, s2, _, ref_converged = self._reference(fit, xs, ys, mu0, q)
        n_mean = 1 if pinned else max(mean_of) + 1
        rows = converged & ~clipped & ref_converged
        sigma = np.sqrt(s2.max(axis=0))
        assert np.all(np.abs(np.array(params[:n_mean]) - mu)[:, rows] <= 1e-6 * sigma[rows])
        assert np.all(np.abs(np.array(params[n_mean:]) - s2)[:, rows] <= 1e-6 * s2[:, rows])

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_fewer_map_evaluations_than_the_plain_map(self, fit):
        # at q = 0.5, the slowest of the grid, against the plain map under the default stop test and cap
        xs, ys, mu0, _ = self._contaminated_batch()
        iterations = self.FITS[fit][0](xs, ys, mu0, 0.5, DEFAULT_CONFIG)[-3]
        _, _, plain, _ = self._reference(fit, xs, ys, mu0, 0.5, tol=DEFAULT_CONFIG.tol,
                                         max_iter=DEFAULT_CONFIG.max_iter)
        # the shared-mean map pools the two samples' weighted sums without their
        # variances, so it does not climb the Lq-likelihood and the likelihood
        # guard keeps most of its extrapolations out
        ratio = 1.0 if fit == "shared_mean" else 0.6
        assert iterations.mean() <= ratio * plain.mean()
        cap = DEFAULT_CONFIG.max_iter
        assert np.count_nonzero(iterations >= cap) <= np.count_nonzero(plain >= cap)

    @pytest.mark.parametrize("fit", ["normal", "known_mean", "shared_variance", "pooled"])
    def test_a_plain_step_never_lowers_the_lq_likelihood(self, fit):
        # the map of a fit with one variance is a weighted-MLE step and so a minorize-maximize step:
        # f^s >= f0^s (1 + s log(f / f0)) as exp is convex.  _fixed_point judges their trials by
        # likelihood alone, so any point of any sample must do, not only the points a fit passes through
        _, mean_of, var_of, pinned = self.FITS[fit]
        xs, ys, _, _ = self._contaminated_batch()
        rng = np.random.default_rng(43)
        rows = np.repeat(np.arange(len(xs)), 3)
        blocks = [xs[rows]] if len(mean_of) == 1 else [xs[rows], ys[rows]]
        q = rng.uniform(0.5, 0.99, len(rows))
        centre = np.mean([b.mean(axis=1) for b in blocks], axis=0)
        spread = np.mean([b.var(axis=1) for b in blocks], axis=0)
        mu = centre + np.sqrt(spread) * rng.normal(0.0, 2.0, (max(mean_of) + 1, len(rows)))
        s2 = spread * np.exp(rng.uniform(-4.0, 4.0, (max(var_of) + 1, len(rows))))
        before = lq_total(blocks, mean_of, var_of, q, mu, s2)
        after = lq_total(blocks, mean_of, var_of, q, *plain_step(blocks, mean_of, var_of, q, mu, s2, pinned))
        assert np.all(after >= before - 1e-12 * np.abs(before))

    def test_a_shared_mean_step_can_lower_the_lq_likelihood(self):
        # the shared-mean map pools the samples' weighted sums without their variances, so it is no
        # weighted-MLE step: from a mean at x with a small variance, it moves towards y and loses
        # likelihood.  This is why _fixed_point judges its trials by step length instead
        blocks = [np.array([[0.0, 1.0, 0.5]]), np.array([[10.0, 30.0, 14.0]])]
        q, mu, s2 = np.array([0.7]), np.array([[0.5]]), np.array([[1.0], [100.0]])
        before = lq_total(blocks, (0, 0), (0, 1), q, mu, s2)
        after = lq_total(blocks, (0, 0), (0, 1), q, *plain_step(blocks, (0, 0), (0, 1), q, mu, s2))
        assert after[0] < before[0] - 0.2 * abs(before[0])

    def test_the_reach_keeps_a_trial_in_its_basin(self):
        # a resample whose plain path climbs for 707 steps to a wide fixed point beside a narrow one of
        # higher Lq-likelihood (sigma2 0.0062): trials judged by likelihood alone land on the narrow
        # one unless each stays within mlqe.REACH of its plain iterate
        x = contaminated(np.random.default_rng(2))
        row = x[np.random.default_rng(9).integers(0, 50, (200, 50))[94]]
        fit = lqrt.fit_normal(row, 0.5)
        mu, s2, _, converged = plain_fit([row[None]], (0,), (0,), 0.5)
        assert fit.converged and not fit.clipped and converged[0]
        assert abs(fit.mu - mu[0, 0]) <= 1e-6 * np.sqrt(s2[0, 0]) and abs(fit.sigma2 - s2[0, 0]) <= 1e-6 * s2[0, 0]

    # the largest map evaluations per row and the rows at max_iter on the contaminated batch at q = 0.5
    TAIL = {"normal": (142, 0), "known_mean": (51, 0), "shared_variance": (155, 0), "shared_mean": (320, 0),
            "pooled": (106, 0)}

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_the_slowest_rows_stay_short(self, fit):
        # map evaluations depend on the arithmetic only, not on the machine's speed
        xs, ys, mu0, _ = self._contaminated_batch()
        iterations = self.FITS[fit][0](xs, ys, mu0, 0.5, DEFAULT_CONFIG)[-3]
        slowest, at_cap = self.TAIL[fit]
        assert iterations.max() <= slowest
        assert np.count_nonzero(iterations >= DEFAULT_CONFIG.max_iter) <= at_cap


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("batch", [*TestWindow.Q_KINDS, "contaminated", "far_cluster"])
def test_pooled_null_is_the_normal_fit_of_the_joined_rows(batch):
    # two blocks in one mean group and one variance group fit as one block of their joined rows does, up to
    # rounding and with the same flags.  A row is stuck only when a group's weights do not sum to a positive
    # number: in the far cluster every weight of y underflows after a few steps, and x's keep the fit going
    if batch == "far_cluster":
        rng = np.random.default_rng(3)
        xs, ys, q = rng.normal(0.0, 1.0, (1, 50)), rng.normal(100.0, 1.0, (1, 4)), 0.5
    elif batch == "contaminated":
        xs, ys, _, q = TestAcceleration._contaminated_batch()
    else:
        xs, ys, _, q = TestWindow._batch(batch)
    mu, s2, _, converged, clipped = pooled_null(xs, ys, q, DEFAULT_CONFIG)
    ref_mu, ref_s2, _, ref_converged, ref_clipped = mlqe.batch_fit_normal(np.concatenate([xs, ys], axis=1), q)
    assert converged.tolist() == ref_converged.tolist() and clipped.tolist() == ref_clipped.tolist()
    finite = np.isfinite(ref_s2)
    assert np.isfinite(s2).tolist() == finite.tolist()
    assert np.all(np.abs(mu - ref_mu)[finite] <= 1e-6 * np.sqrt(ref_s2[finite]))
    assert np.all(np.abs(s2 - ref_s2)[finite] <= 1e-6 * ref_s2[finite])
