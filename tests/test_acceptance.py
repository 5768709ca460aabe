"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria run at fixed seeds so the whole gate is
deterministic; statistical thresholds follow the stated replication
counts and tolerances.
"""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import stats as sps

import lqrt
from lqrt import gemsim, lqmath
from lqrt.mlqe import FitConfig

from _oracles import (
    fit_known_mean_oracle,
    fit_normal_oracle,
    fit_shared_mean_oracle,
    fit_shared_variance_oracle,
    select_q_oracle,
    signed_rank_enum_pvalue,
    sign_test_exact_pvalue,
)

mp.mp.dps = 30

TIGHT = FitConfig(tol=1e-12, max_iter=10_000)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _contaminated(rng, n, n_out, mu=0.0, sigma=1.0, tau=math.sqrt(50.0)):
    return np.concatenate([rng.normal(mu, sigma, n - n_out), rng.normal(mu, tau, n_out)])


def _binom99(reps: int, alpha: float):
    lo = sps.binom.ppf(0.005, reps, alpha) / reps
    hi = sps.binom.ppf(0.995, reps, alpha) / reps
    return lo, hi


def test_criterion_01_lrt_reduction():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.3, 3.0), n)
        mu0 = rng.uniform(-3, 3)
        s2_alt = np.mean((x - x.mean()) ** 2)
        s2_nul = np.mean((x - mu0) ** 2)
        gap = abs(lqrt.statistic_1samp(x, mu0, 1.0) - n * math.log(s2_nul / s2_alt))
        worst = max(worst, gap)
    _report("criterion 1 (LRT reduction at q=1)", worst <= 1e-6, f"max |gap| = {worst:.3g}")


def test_criterion_02_mlqe_reduction():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), n)
        fit = lqrt.fit_normal(x, 1.0)
        mean, var = x.mean(), np.mean((x - x.mean()) ** 2)
        worst = max(
            worst,
            abs(fit.mu - mean) / max(abs(mean), 1e-300),
            abs(fit.sigma2 - var) / var,
        )
    _report("criterion 2 (MLqE q=1 reduction)", worst <= 1e-12, f"max rel err = {worst:.3g}")


def test_criterion_03_fixed_point_oracles():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        q = float(rng.uniform(0.5, 0.95))
        x = _contaminated(rng, 40, 4)
        y = _contaminated(rng, 30, 3, mu=rng.uniform(-1, 1))

        fit = lqrt.fit_normal(x, q, TIGHT)
        mu, s2 = fit_normal_oracle(x, q)
        worst = max(worst, abs(fit.mu - mu), abs(fit.sigma2 - s2))

        fitk = lqrt.fit_variance_known_mean(x, 0.2, q, TIGHT)
        _, s2k = fit_known_mean_oracle(x, 0.2, q)
        worst = max(worst, abs(fitk.sigma2 - s2k))

        fsv = lqrt.fit_shared_variance(x, y, q, TIGHT)
        mx, my, s2p = fit_shared_variance_oracle(x, y, q)
        worst = max(worst, abs(fsv.mu_x - mx), abs(fsv.mu_y - my), abs(fsv.sigma2 - s2p))

        fsm = lqrt.fit_shared_mean(x, y, q, TIGHT)
        mu0, s2x, s2y = fit_shared_mean_oracle(x, y, q)
        worst = max(worst, abs(fsm.mu - mu0), abs(fsm.sigma2_x - s2x), abs(fsm.sigma2_y - s2y))
    _report("criterion 3 (fixed-point oracles, 4 fitters)", worst <= 1e-8, f"max |gap| = {worst:.3g}")


def _lq_of_pdf_mp(x, m, s2, q):
    u = mp.exp(-((mp.mpf(x) - m) ** 2) / (2 * s2)) / mp.sqrt(2 * mp.pi * s2)
    if q == 1.0:
        return mp.log(u)
    return (u ** (1 - mp.mpf(q)) - 1) / (1 - mp.mpf(q))


def test_criterion_04_derivative_checks():
    # finite differences evaluated in 40-digit arithmetic, so the oracle's
    # own roundoff stays far below the stated tolerances
    rng = np.random.default_rng(1004)
    worst_score = 0.0
    worst_curv = 0.0
    with mp.workdps(40):
        for _ in range(1000):
            mu = rng.uniform(-3, 3)
            s2 = rng.uniform(0.2, 8.0)
            x = mu + rng.uniform(-5, 5) * math.sqrt(s2)
            q = rng.uniform(0.5, 1.0)
            h = mp.mpf("1e-8") * mp.sqrt(s2)

            up = _lq_of_pdf_mp(x, mp.mpf(mu) + h, s2, q)
            mid = _lq_of_pdf_mp(x, mp.mpf(mu), s2, q)
            dn = _lq_of_pdf_mp(x, mp.mpf(mu) - h, s2, q)

            fd_score = float((up - dn) / (2 * h))
            exact_score, exact_curv = lqmath._mu_derivatives(x, mu, s2, q)
            worst_score = max(
                worst_score, abs(fd_score - exact_score) / max(abs(exact_score), 1e-3)
            )

            fd_curv = float((up - 2 * mid + dn) / (h * h))
            worst_curv = max(
                worst_curv, abs(fd_curv - exact_curv) / max(abs(exact_curv), 1e-3)
            )
    ok = worst_score <= 1e-6 and worst_curv <= 1e-5
    _report(
        "criterion 4 (derivative finite-difference checks)",
        ok,
        f"score rel {worst_score:.3g}, curvature rel {worst_curv:.3g}",
    )


@pytest.mark.slow
def test_criterion_05_size_control():
    reps, bootstrap, alpha = 1000, 200, 0.05
    lo, hi = _binom99(reps, alpha)
    rows = []
    ok = True
    for i, scenario in enumerate(gemsim.builtin_scenarios()):
        estimates = gemsim.run_scenario(
            scenario,
            "lqrt",
            eps_grid=[0.0, 0.2],
            reps=reps,
            alpha=alpha,
            bootstrap=bootstrap,
            seed=52_000 + i,
            under_null=True,
        )
        for est in estimates:
            inside = lo <= est.rejection_rate <= hi
            ok &= inside
            rows.append(f"{scenario.setup}@eps={est.epsilon:g}: {est.rejection_rate:.3f}")
    _report(
        "criterion 5 (size control, 4 set-ups x eps in {0, 0.2})",
        ok,
        f"band [{lo:.3f}, {hi:.3f}]; " + "; ".join(rows),
    )


@pytest.mark.slow
def test_criterion_06_power_dominance_under_contamination():
    reps, bootstrap = 500, 200
    ok = True
    rows = []
    for i, setup in enumerate(("one_sample", "unpaired_equal_var")):
        scenario = [s for s in gemsim.builtin_scenarios() if s.setup == setup][0]
        seed = 61_000 + i
        (lq,) = gemsim.run_scenario(
            scenario, "lqrt", eps_grid=[0.25], reps=reps, bootstrap=bootstrap, seed=seed
        )
        (tt,) = gemsim.run_scenario(scenario, "t", eps_grid=[0.25], reps=reps, seed=seed)
        dominated = lq.rejection_rate >= tt.rejection_rate + 0.05 and lq.ci_low > tt.ci_high
        ok &= dominated
        rows.append(f"{setup}: lqrt {lq.rejection_rate:.3f} vs t {tt.rejection_rate:.3f}")
    _report("criterion 6 (power dominance at eps=0.25)", ok, "; ".join(rows))


@pytest.mark.slow
def test_criterion_07_clean_data_parity():
    reps, bootstrap = 500, 200
    ok = True
    rows = []
    for i, setup in enumerate(("one_sample", "unpaired_equal_var")):
        scenario = [s for s in gemsim.builtin_scenarios() if s.setup == setup][0]
        seed = 71_000 + i
        (lq,) = gemsim.run_scenario(
            scenario, "lqrt", eps_grid=[0.0], reps=reps, bootstrap=bootstrap, seed=seed
        )
        (tt,) = gemsim.run_scenario(scenario, "t", eps_grid=[0.0], reps=reps, seed=seed)
        close = abs(lq.rejection_rate - tt.rejection_rate) <= 0.05
        ok &= close
        rows.append(f"{setup}: lqrt {lq.rejection_rate:.3f} vs t {tt.rejection_rate:.3f}")
    _report("criterion 7 (clean-data power parity)", ok, "; ".join(rows))


def test_criterion_08_baseline_oracles():
    rng = np.random.default_rng(1008)
    # t-test p-values against a high-precision incomplete-beta reference
    worst_t = 0.0
    for df in range(1, 101):
        t = float(rng.uniform(-10, 10))
        mine = lqrt.baselines._t_two_sided(t, df)
        ref = float(mp.betainc(df / 2, mp.mpf("0.5"), 0, df / (df + t * t), regularized=True))
        worst_t = max(worst_t, abs(mine - ref))
    ok_t = worst_t <= 1e-8

    # signed-rank exact p-values vs full enumeration for n <= 12
    ok_w = True
    for n in range(1, 13):
        for _ in range(3):
            d = rng.integers(-5, 6, size=n).astype(float)
            got = lqrt.wilcoxon_signed_rank(d).pvalue
            ok_w &= abs(got - signed_rank_enum_pvalue(d)) <= 1e-12

    # sign test vs exact binomial sums
    ok_s = True
    for n in (1, 4, 9, 17, 30):
        x = rng.normal(0.3, 1, n)
        ok_s &= lqrt.sign_test(x, 0.0).pvalue == sign_test_exact_pvalue(x, 0.0)

    # rank-sum worked example
    p_rs = lqrt.rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]).pvalue
    ok_r = abs(p_rs - 0.0495) <= 1e-4

    ok = ok_t and ok_w and ok_s and ok_r
    _report(
        "criterion 8 (baseline oracles)",
        ok,
        f"t gap {worst_t:.2g}; signed-rank {ok_w}; sign {ok_s}; rank-sum p {p_rs:.6f}",
    )


@pytest.mark.slow
def test_criterion_09_q_selection():
    rng = np.random.default_rng(1009)
    # grid membership + brute-force equality on 50 seeded contaminated inputs
    ok_grid = True
    ok_oracle = True
    for _ in range(50):
        x = _contaminated(rng, 30, 3)
        report = lqrt.select_q_1samp(x, TIGHT)
        ok_grid &= report.q_hat in lqrt.Q_GRID
        q_hat, _, objectives = select_q_oracle(x)
        ok_oracle &= report.q_hat == q_hat
        ok_oracle &= np.allclose([v for _, v in report.grid], objectives, rtol=1e-6)

    # contamination drives the selected q down (median over 100 runs each)
    rng = np.random.default_rng(1010)
    clean = [lqrt.select_q_1samp(rng.normal(0, 1, 200)).q_hat for _ in range(100)]
    dirty = [lqrt.select_q_1samp(_contaminated(rng, 200, 40)).q_hat for _ in range(100)]
    ok_shift = np.median(dirty) < np.median(clean)
    _report(
        "criterion 9 (q selection)",
        ok_grid and ok_oracle and ok_shift,
        f"grid {ok_grid}; oracle {ok_oracle}; medians dirty {np.median(dirty):.2f} "
        f"< clean {np.median(clean):.2f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1011)
    data = tmp_path / "d.csv"
    data.write_text("\n".join(repr(float(v)) for v in rng.normal(0, 1, 50)) + "\n")

    def invoke(threads: str):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "lqrt", "onesample", str(data), "--mu0", "0.1",
             "--seed", "7", "--bootstrap", "150"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = invoke("1")
    second = invoke("1")
    fourth = invoke("4")

    proc = subprocess.run(
        [sys.executable, "-m", "lqrt", "simulate", "--scenario", "one_sample",
         "--tests", "lqrt,t", "--eps", "0,0.1", "--reps", "3", "--bootstrap", "25",
         "--seed", "9"],
        capture_output=True,
    )
    sim_a = proc.stdout
    sim_b = subprocess.run(
        [sys.executable, "-m", "lqrt", "simulate", "--scenario", "one_sample",
         "--tests", "lqrt,t", "--eps", "0,0.1", "--reps", "3", "--bootstrap", "25",
         "--seed", "9"],
        capture_output=True,
    ).stdout
    ok = (
        first.startswith(b'{"statistic": ')
        and first == second == fourth
        and sim_a.startswith(b"scenario,")
        and sim_a == sim_b
        and proc.returncode == 0
    )
    _report("criterion 10 (CLI determinism)", ok, f"{len(first)}-byte reports identical")
