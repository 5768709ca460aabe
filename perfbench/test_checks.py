"""Each correctness check accepts a right output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The right outputs are built from reference.py, so these tests need no
program; they test the checks, not lqrt.
"""

from __future__ import annotations

import json
import math

import pytest

import checks
import reference as ref

X = [0.41, -0.73, 1.12, 0.05, 0.88, -0.21, 0.67, 1.45, -1.02, 0.33,
     0.19, 9.7, 0.52, -0.48, 0.94, -8.1, 0.27, 0.71, -0.15, 1.08]
Y = [-0.35, 0.62, -1.18, 0.14, -0.57, 0.91, -0.09, 7.9, 0.45, -0.81,
     0.23, -0.66, 1.01, -0.28, 0.38, -0.94, 0.06, 0.57]
CAP = 500


def q_hat(*samples):
    grids = [ref.objective_grid(s) for s in samples]
    total = [sum(g[i][0] for g in grids) for i in range(len(ref.Q_GRID))]
    return ref.Q_GRID[total.index(min(total))]


def good_outcome(kind, b=100):
    if kind == "onesample":
        q = q_hat(X)
        stat, _ = ref.statistic_1samp(X, 0.0, q)
    else:
        q = q_hat(X, Y)
        stat, _ = (ref.statistic_pooled if kind == "pooled" else ref.statistic_welch)(X, Y, q)
    return [stat, 37 / b, q, b, 0.0]


def problems_for(kind, out):
    chk = checks.Checker(CAP)
    chk.test_outcome(kind, kind, X, None if kind == "onesample" else Y, 0.0, out[3], out)
    return chk.problems


@pytest.mark.parametrize("kind", ["onesample", "pooled", "welch"])
def test_right_outcome_passes(kind):
    assert problems_for(kind, good_outcome(kind)) == []


@pytest.mark.parametrize("field, value", [(1, 0.3705), (1, 1.01), (4, 0.005)])
def test_off_lattice_pvalue_or_fraction_rejected(field, value):
    out = good_outcome("onesample")
    out[field] = value
    assert problems_for("onesample", out)


@pytest.mark.parametrize("kind", ["onesample", "pooled", "welch"])
def test_perturbed_statistic_rejected(kind):
    out = good_outcome(kind)
    out[0] *= 1.0 + 1e-4
    assert any("statistic" in p for p in problems_for(kind, out))


def test_wrong_q_rejected():
    out = good_outcome("onesample")
    wrong = 1.0 if out[2] < 0.75 else 0.5
    out[0], _ = ref.statistic_1samp(X, 0.0, wrong)  # a consistent statistic at the wrong q
    out[2] = wrong
    assert any("objective" in p for p in problems_for("onesample", out))


def test_q_off_grid_rejected():
    out = good_outcome("onesample")
    out[2] += 0.005
    assert any("grid" in p for p in problems_for("onesample", out))


def test_fit_beyond_cap_is_unverifiable_not_failed():
    chk = checks.Checker(cap=1)
    out = good_outcome("onesample")
    out[0] += 1.0
    chk.test_outcome("onesample", "onesample", X, None, 0.0, 100, out)
    assert chk.problems == [] and chk.unverifiable == 1


def _fmt(v):
    return f"{float(v):.17g}"


def cli_record():
    lib = {kind: good_outcome(kind) for kind in ("onesample", "pooled", "welch")}
    grid = [[q, o] for q, (o, _) in zip(ref.Q_GRID, ref.objective_grid(Y))]
    best = min(grid, key=lambda row: row[1])
    lib["selectq"] = {"q": best[0], "objective": best[1], "grid": grid}
    seeds = {"onesample": 11, "pooled": 12, "welch": 13}
    stdout = {}
    for kind in seeds:
        s, p, q, b, d = lib[kind]
        stdout[kind] = (f'{{"statistic": {_fmt(s)}, "pvalue": {_fmt(p)}, "q": {_fmt(q)}, "bootstrap": {b}, '
                        f'"degenerate_fraction": {_fmt(d)}, "seed": {seeds[kind]}}}\n')
    rows = ", ".join(f"[{_fmt(q)}, {_fmt(o)}]" for q, o in grid)
    stdout["selectq"] = f'{{"q": {_fmt(best[0])}, "objective": {_fmt(best[1])}, "grid": [{rows}]}}\n'
    return {"x": X, "y": Y, "seeds": seeds, "stdout": stdout, "mismatches": [], "library": lib}


def cli_problems(rec):
    chk = checks.Checker(CAP)
    chk.cli(rec)
    return chk.problems


def test_right_cli_record_passes():
    assert cli_problems(cli_record()) == []


def test_cli_bytes_differing_between_invocations_rejected():
    rec = cli_record()
    rec["mismatches"] = ["welch"]
    assert any("between invocations" in p for p in cli_problems(rec))


@pytest.mark.parametrize("kind, key", [("onesample", "statistic"), ("pooled", "pvalue"), ("selectq", "q")])
def test_cli_stdout_unlike_library_rejected(kind, key):
    rec = cli_record()
    got = json.loads(rec["stdout"][kind])
    got[key] = got[key] * (1.0 + 1e-15) + 0.01
    rec["stdout"][kind] = json.dumps(got) + "\n"
    assert any("library" in p for p in cli_problems(rec))


def test_cli_stdout_not_json_rejected():
    rec = cli_record()
    rec["stdout"]["welch"] = "lqrt: error\n"
    assert any("JSON" in p for p in cli_problems(rec))


def test_selectq_objective_off_reference_rejected():
    rec = cli_record()
    rec["library"]["selectq"]["grid"][7][1] *= 1.001
    assert any("objective at q" in p for p in cli_problems(rec))


def mc_op(rate_at_zero, test="t", reps=100):
    rows = []
    for eps, rate in ((0.0, rate_at_zero), (0.3, 0.12)):
        half = 1.96 * math.sqrt(rate * (1.0 - rate) / reps)
        rows.append([rate, rate - half, rate + half, reps, 0.05, eps, test, 99])
    return {"setup": "one_sample", "means_alt": [0.34], "variances": [1.0, None, 50.0], "n": 50,
            "test": test, "eps_grid": [0.0, 0.3], "alpha": 0.05, "reps": reps, "seed": 99, "rows": rows}


def mc_problems(op):
    chk = checks.Checker(CAP)
    chk.mc_op(op, checks.band_tail([op]))
    return chk.problems


def test_mc_rate_near_exact_power_passes():
    power = checks.exact_t_power(mc_op(0.5))
    assert 0.6 < power < 0.7
    assert mc_problems(mc_op(round(power * 100) / 100)) == []


def test_mc_rate_off_lattice_rejected():
    assert any("multiple" in p for p in mc_problems(mc_op(0.655)))


def test_mc_rate_outside_power_band_rejected():
    assert any("power" in p for p in mc_problems(mc_op(0.35)))


def test_mc_interval_formula_checked():
    op = mc_op(0.66)
    op["rows"][1][2] += 0.01
    assert any("interval" in p for p in mc_problems(op))
