import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import lqrt
from lqrt import gemsim


def mixture_variance(spec):
    return (1.0 - spec.eps) * spec.sigma2 + spec.eps * spec.tau2


class TestGrossErrorSpec:
    def test_valid(self):
        gemsim.GrossErrorSpec(0.0, 1.0, 50.0, 0.2)

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            gemsim.GrossErrorSpec(0.0, 1.0, 50.0, 1.0)
        with pytest.raises(ValueError):
            gemsim.GrossErrorSpec(0.0, 1.0, 50.0, 0.5)
        with pytest.raises(ValueError):
            gemsim.GrossErrorSpec(0.0, 1.0, 50.0, -0.1)

    def test_rejects_variance_ordering(self):
        with pytest.raises(ValueError):
            gemsim.GrossErrorSpec(0.0, 50.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            gemsim.GrossErrorSpec(0.0, 2.0, 2.0, 0.1)


class TestSampleGem:
    def test_pure_normal_when_eps_zero(self):
        spec = gemsim.GrossErrorSpec(1.5, 2.0, 50.0, 0.0)
        x = gemsim.sample_gem(spec, 100_000, np.random.default_rng(70))
        assert abs(x.var() - 2.0) / 2.0 < 0.03
        assert abs(x.mean() - 1.5) < 4 * math.sqrt(2.0 / 100_000)

    def test_heavy_contamination_variance(self):
        spec = gemsim.GrossErrorSpec(0.0, 1.0, 50.0, 0.49)
        x = gemsim.sample_gem(spec, 100_000, np.random.default_rng(71))
        target = mixture_variance(spec)
        assert abs(x.var() - target) / target < 0.03

    def test_contamination_fraction(self):
        # components separated by 8 orders of magnitude: indicators can be
        # read off the sample with negligible classification error
        spec = gemsim.GrossErrorSpec(0.0, 1e-8, 1e8, 0.2)
        x = gemsim.sample_gem(spec, 100_000, np.random.default_rng(72))
        frac = np.mean(np.abs(x) > 0.01)
        se = math.sqrt(0.2 * 0.8 / 100_000)
        assert abs(frac - 0.2) < 3 * se

    def test_mixture_moments_over_table_grid(self):
        rng = np.random.default_rng(73)
        n = 100_000
        for eps in gemsim.DEFAULT_EPS_GRID:
            spec = gemsim.GrossErrorSpec(0.7, 1.0, 50.0, eps)
            x = gemsim.sample_gem(spec, n, rng)
            var = mixture_variance(spec)
            se_mean = math.sqrt(var / n)
            assert abs(x.mean() - 0.7) < 4 * se_mean
            fourth = 3.0 * ((1 - eps) * spec.sigma2**2 + eps * spec.tau2**2)
            se_var = math.sqrt((fourth - var**2) / n)
            assert abs(x.var() - var) < 4 * se_var

    def test_stream_determinism(self):
        spec = gemsim.GrossErrorSpec(0.0, 1.0, 50.0, 0.3)
        a = gemsim.sample_gem(spec, 1000, np.random.default_rng(99))
        b = gemsim.sample_gem(spec, 1000, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_stream_order(self):
        # n indicators, then n standard normals, and nothing more
        spec = gemsim.GrossErrorSpec(0.5, 2.0, 50.0, 0.3)
        rng = np.random.default_rng(17)
        sd = np.where(rng.random(200) < 0.3, math.sqrt(50.0), math.sqrt(2.0))
        want = 0.5 + sd * rng.standard_normal(200)
        got_rng = np.random.default_rng(17)
        assert gemsim.sample_gem(spec, 200, got_rng).tobytes() == want.tobytes()
        assert got_rng.random() == rng.random()


class TestSampleGemPaired:
    def test_stream_order(self):
        # n shared indicators, then n standard normals for x, then n for y
        spec = gemsim.GrossErrorSpec(0.5, 2.0, 50.0, 0.3)
        rng = np.random.default_rng(18)
        sd = np.where(rng.random(200) < 0.3, math.sqrt(50.0), math.sqrt(2.0))
        want_x = 0.5 + sd * rng.standard_normal(200)
        want_y = 0.5 + sd * rng.standard_normal(200)
        got_rng = np.random.default_rng(18)
        x, y = gemsim.sample_gem_paired(spec, 200, got_rng)
        assert (x.tobytes(), y.tobytes()) == (want_x.tobytes(), want_y.tobytes())
        assert got_rng.random() == rng.random()

    def test_eps_zero_is_clean(self):
        spec = gemsim.GrossErrorSpec(0.0, 1.0, 50.0, 0.0)
        x, y = gemsim.sample_gem_paired(spec, 50_000, np.random.default_rng(74))
        assert abs(x.var() - 1.0) < 0.03
        assert abs(y.var() - 1.0) < 0.03

    def test_indicators_shared_within_pairs(self):
        spec = gemsim.GrossErrorSpec(0.0, 1e-8, 1e8, 0.25)
        x, y = gemsim.sample_gem_paired(spec, 20_000, np.random.default_rng(75))
        out_x = np.abs(x) > 0.01
        out_y = np.abs(y) > 0.01
        assert np.array_equal(out_x, out_y)
        se = math.sqrt(0.25 * 0.75 / 20_000)
        assert abs(out_x.mean() - 0.25) < 4 * se


class TestBuiltinScenarios:
    def test_table_values(self):
        scenarios = {s.setup: s for s in gemsim.builtin_scenarios()}
        assert set(scenarios) == set(gemsim.SETUPS)
        one = scenarios["one_sample"]
        assert one.means_alt == (0.34,)
        assert one.means_null == (0.0,)
        assert one.variances == (1.0, None, 50.0)
        unpaired = scenarios["unpaired_unequal_var"]
        assert unpaired.variances[1] == 0.01
        assert all(s.n == 50 for s in scenarios.values())
        assert scenarios["paired"].means_alt == (0.0, 0.50)


class TestRunScenario:
    def test_single_repetition_degenerate(self):
        sc = gemsim.builtin_scenarios()[0]
        (est,) = gemsim.run_scenario(sc, "t", eps_grid=[0.1], reps=1, seed=5)
        assert est.rejection_rate in (0.0, 1.0)
        assert est.ci_low == est.rejection_rate == est.ci_high

    def test_reproducible_with_seed(self):
        sc = gemsim.builtin_scenarios()[2]
        a = gemsim.run_scenario(sc, "ranksum", eps_grid=[0.0, 0.2], reps=40, seed=123)
        b = gemsim.run_scenario(sc, "ranksum", eps_grid=[0.0, 0.2], reps=40, seed=123)
        assert a == b

    def test_interval_orders_rate(self):
        sc = gemsim.builtin_scenarios()[0]
        for est in gemsim.run_scenario(sc, "sign", eps_grid=[0.0, 0.3], reps=60, seed=6):
            assert est.ci_low <= est.rejection_rate <= est.ci_high

    def test_unknown_test_rejected(self):
        sc = gemsim.builtin_scenarios()[0]
        with pytest.raises(ValueError):
            gemsim.run_scenario(sc, "anova", eps_grid=[0.0], reps=1, seed=0)
        with pytest.raises(ValueError):
            gemsim.run_scenario(sc, "ranksum", eps_grid=[0.0], reps=1, seed=0)  # not in set-up

    def test_invalid_parameters_rejected(self):
        sc = gemsim.builtin_scenarios()[0]
        with pytest.raises(ValueError):
            gemsim.run_scenario(sc, "t", reps=0, seed=0)
        with pytest.raises(ValueError):
            gemsim.run_scenario(sc, "t", reps=1, alpha=1.5, seed=0)
        with pytest.raises(ValueError):
            gemsim.run_scenario(sc, "t", eps_grid=[0.7], reps=1, seed=0)

    def test_eps_grid_checked_before_any_replicate(self, monkeypatch):
        def generate(*args):
            raise AssertionError("data generated before the grid was checked")

        monkeypatch.setattr(gemsim, "_generate", generate)
        sc = gemsim.builtin_scenarios()[0]
        with pytest.raises(ValueError, match="eps"):
            gemsim.run_scenario(sc, "t", eps_grid=[0.0, 0.7], reps=3, seed=0)

    def test_t_test_size_calibrated_clean(self):
        # classical calibration anchor: exact binomial 99% band around alpha
        sc = gemsim.builtin_scenarios()[0]
        reps = 2000
        (est,) = gemsim.run_scenario(sc, "t", eps_grid=[0.0], reps=reps, seed=2024, under_null=True)
        lo = stats.binom.ppf(0.005, reps, 0.05) / reps
        hi = stats.binom.ppf(0.995, reps, 0.05) / reps
        assert lo <= est.rejection_rate <= hi

    def test_classical_sizes_controlled_all_setups(self):
        reps = 2000
        lo = stats.binom.ppf(0.005, reps, 0.05) / reps
        hi = stats.binom.ppf(0.995, reps, 0.05) / reps
        for sc in gemsim.builtin_scenarios():
            for test in gemsim.TESTS_BY_SETUP[sc.setup]:
                if test == "lqrt":
                    continue  # covered by the acceptance suite
                if test == "ranksum" and sc.setup == "unpaired_unequal_var":
                    continue  # miscalibrated there by nature, checked below
                (est,) = gemsim.run_scenario(
                    sc, test, eps_grid=[0.0], reps=reps, seed=2025, under_null=True
                )
                # sign test is conservative by construction; allow undershoot
                if test == "sign":
                    assert est.rejection_rate <= hi
                else:
                    assert lo <= est.rejection_rate <= hi

    def test_ranksum_anticonservative_under_variance_imbalance(self):
        # rank-sum assumes exchangeability under H0; a 100:1 variance ratio
        # breaks it and inflates the size -- a property of the test itself
        sc = [s for s in gemsim.builtin_scenarios() if s.setup == "unpaired_unequal_var"][0]
        (est,) = gemsim.run_scenario(
            sc, "ranksum", eps_grid=[0.0], reps=2000, seed=2025, under_null=True
        )
        assert est.rejection_rate > 0.05

    def test_power_decays_for_t_under_contamination(self):
        sc = gemsim.builtin_scenarios()[0]
        est = gemsim.run_scenario(sc, "t", eps_grid=[0.0, 0.25], reps=400, seed=31)
        assert est[0].rejection_rate > est[1].rejection_rate + 0.2


class TestStackedLqrt:
    """run_scenario's lqrt replicates run in stacked chunks, bit for bit as one call each."""

    @staticmethod
    def _scenarios():
        return [gemsim.ScenarioSpec(sc.setup, sc.means_null, sc.means_alt, sc.variances, n=20)
                for sc in gemsim.builtin_scenarios()]

    @staticmethod
    def _single_pvalues(sc, eps_grid, reps, bootstrap, seed):
        # each replicate through lqrtest_* on its own, from the same substreams
        out = []
        for e, eps in enumerate(eps_grid):
            for r in range(reps):
                data_ss, boot_ss = np.random.SeedSequence(seed, spawn_key=(e, r)).spawn(2)
                data = gemsim._generate(sc, eps, sc.means_alt, np.random.default_rng(data_ss))
                if sc.setup == "paired":
                    out.append(lqrt.lqrtest_rel(*data, bootstrap=bootstrap, seed=boot_ss).pvalue)
                elif sc.setup == "one_sample":
                    out.append(lqrt.lqrtest_1samp(data[0], 0.0, bootstrap=bootstrap, seed=boot_ss).pvalue)
                else:
                    equal_var = sc.setup == "unpaired_equal_var"
                    out.append(lqrt.lqrtest_ind(*data, equal_var=equal_var, bootstrap=bootstrap,
                                                seed=boot_ss).pvalue)
        return out

    def test_chunks_split_mid_grid_and_match_single_calls(self, monkeypatch):
        eps_grid, reps, bootstrap, seed = [0.0, 0.2], 5, 30, 17
        calls, pvalues = [], []
        original = gemsim._pvalues

        def recorded(test, setup, datasets, seeds, b):
            calls.append(len(datasets))
            got = original(test, setup, datasets, seeds, b)
            pvalues.extend(got)
            return got

        monkeypatch.setattr(gemsim, "_pvalues", recorded)
        for sc in self._scenarios():
            width = sc.n * (1 if sc.setup in ("one_sample", "paired") else 2)
            per_replicate = len(lqrt.Q_GRID) * width  # the q grid outgrows 30 resamples
            calls.clear()
            pvalues.clear()
            # three replicates per call: the eps boundary after replicate 5 falls inside a call
            monkeypatch.setattr(gemsim, "STACK_ELEMENTS", 3 * per_replicate + per_replicate // 2)
            run = lambda: gemsim.run_scenario(sc, "lqrt", eps_grid=eps_grid, reps=reps, bootstrap=bootstrap, seed=seed)
            small = run()
            assert calls == [3, 3, 3, 1]
            assert pvalues == self._single_pvalues(sc, eps_grid, reps, bootstrap, seed)
            monkeypatch.setattr(gemsim, "STACK_ELEMENTS", 1)  # below one replicate: one per call
            calls.clear()
            assert run() == small and calls == [1] * 10
            monkeypatch.setattr(gemsim, "STACK_ELEMENTS", 2**30)  # everything in one call
            calls.clear()
            assert run() == small and calls == [10]

    @pytest.mark.parametrize("test", ["lqrt", "t", "wilcoxon", "sign"])
    def test_every_test_takes_the_same_chunks(self, monkeypatch, test):
        sc = gemsim.ScenarioSpec("paired", (0.0, 0.0), (0.0, 0.5), (1.0, 1.0, 50.0), n=20)
        calls = []
        original = gemsim._pvalues

        def recorded(*args):
            calls.append(len(args[2]))
            return original(*args)

        monkeypatch.setattr(gemsim, "_pvalues", recorded)
        monkeypatch.setattr(gemsim, "STACK_ELEMENTS", 2 * len(lqrt.Q_GRID) * sc.n)
        small = gemsim.run_scenario(sc, test, eps_grid=[0.0, 0.2], reps=3, bootstrap=30, seed=8)
        assert calls == [2, 2, 2]
        monkeypatch.setattr(gemsim, "STACK_ELEMENTS", 2**30)
        assert gemsim.run_scenario(sc, test, eps_grid=[0.0, 0.2], reps=3, bootstrap=30, seed=8) == small

    def test_lqrt_needs_three_observations(self):
        sc = gemsim.ScenarioSpec("one_sample", (0.0,), (0.3,), (1.0, None, 50.0), n=2)
        with pytest.raises(ValueError, match="^n must be a whole number of at least 3"):
            gemsim.run_scenario(sc, "lqrt", eps_grid=[0.0], reps=1, seed=0)
        gemsim.run_scenario(sc, "t", eps_grid=[0.0], reps=1, seed=0)

    @pytest.mark.slow
    def test_peak_memory_set_by_the_cap_not_by_reps(self):
        # one call holds a small index per resampled element, at most STACK_ELEMENTS of them,
        # and builds its float rows a window at a time; four calls' worth of replicates peak
        # where one call's do
        sc = gemsim.builtin_scenarios()[0]
        per_call = gemsim.STACK_ELEMENTS // (200 * sc.n)
        gemsim.run_scenario(sc, "lqrt", eps_grid=[0.1], reps=1, bootstrap=200, seed=1)

        def peak(reps):
            tracemalloc.start()
            try:
                gemsim.run_scenario(sc, "lqrt", eps_grid=[0.1], reps=reps, bootstrap=200, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(per_call), peak(4 * per_call)
        assert many < 1.25 * few
        assert many < 96 * 2**16  # below twelve float64 blocks of 2**16 values, about 6.3 MB
