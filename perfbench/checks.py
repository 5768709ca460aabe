"""Checks of the program's outputs against reference.py and stated properties.

Each `check_*` function appends a line to `Checker.problems` for every
output it rejects.  A call whose reference fit needs more map evaluations
than the program's iteration cap is counted in `Checker.unverifiable`
instead: the program had to stop early there, so its value is not a fixed
point the reference can be held to.
"""

from __future__ import annotations

import json
import math

import reference as ref

STAT_RTOL = 1e-6  # statistic against the reference, relative to max(1, |reference|)
OBJ_RTOL = 1e-6  # grid objective against the reference
LATTICE_TOL = 1e-6  # distance of count = value * B from a whole number
CI_TOL = 1e-12
FALSE_ALARM = 1e-3  # chance per run that a correct program fails the power bands
Z95 = 1.96


class Checker:
    def __init__(self, cap: int):
        self.cap = cap
        self.problems = []
        self.unverifiable = 0
        self.checked = 0
        self._grids = {}

    def fail(self, label, message):
        self.problems.append(f"{label}: {message}")

    def grid(self, xs):
        key = tuple(xs)
        if key not in self._grids:
            self._grids[key] = ref.objective_grid(list(key))
        return self._grids[key]

    def lattice(self, label, name, value, b):
        count = value * b
        if not (0.0 <= value <= 1.0 and abs(count - round(count)) <= LATTICE_TOL):
            self.fail(label, f"{name} {value!r} is not a multiple of 1/{b} in [0, 1]")

    def selection(self, label, q, grids):
        """q must be on the grid and its summed objective the grid minimum within rounding."""
        if q not in ref.Q_GRID:
            self.fail(label, f"q {q!r} is not on the 0.50..1.00 grid")
            return True
        if max(k for g in grids for _, k in g) > self.cap:
            return False
        total = [sum(g[i][0] for g in grids) for i in range(len(ref.Q_GRID))]
        best = min(total)
        chosen = total[ref.Q_GRID.index(q)]
        if chosen > best * (1.0 + OBJ_RTOL):
            self.fail(label, f"q {q} has objective {chosen!r}; the grid minimum is {best!r} "
                             f"at q {ref.Q_GRID[total.index(best)]}")
        return True

    def test_outcome(self, label, kind, x, y, mu0, bootstrap, out):
        """One lqrtest_* result [statistic, pvalue, q, bootstrap, degenerate_fraction]."""
        stat, p, q, b, degen = out
        self.checked += 1
        if b != bootstrap:
            self.fail(label, f"bootstrap {b!r}, asked for {bootstrap}")
        self.lattice(label, "pvalue", p, bootstrap)
        self.lattice(label, "degenerate_fraction", degen, bootstrap)
        grids = [self.grid(x)] if kind == "onesample" else [self.grid(x), self.grid(y)]
        verified = self.selection(label, q, grids)
        if q not in ref.Q_GRID:
            return
        if kind == "onesample":
            want, needed = ref.statistic_1samp(x, mu0, q)
        elif kind == "pooled":
            want, needed = ref.statistic_pooled(x, y, q)
        else:
            want, needed = ref.statistic_welch(x, y, q)
        if needed > self.cap:
            verified = False
        elif not abs(stat - want) <= STAT_RTOL * max(1.0, abs(want)):
            self.fail(label, f"statistic {stat!r} at q {q}, reference {want!r}")
        self.unverifiable += not verified

    def selectq(self, label, report, xs):
        """A select_q_1samp report {"q", "objective", "grid": [[q, objective], ...]}."""
        self.checked += 1
        g = self.grid(xs)
        qs = [row[0] for row in report["grid"]]
        if qs != list(ref.Q_GRID):
            self.fail(label, "grid q values differ from 0.50, 0.51, ..., 1.00")
            return
        values = dict((row[0], row[1]) for row in report["grid"])
        if report["q"] in values and report["objective"] != values[report["q"]]:
            self.fail(label, "reported objective is not the grid value at the reported q")
        for (want, needed), q in zip(g, ref.Q_GRID):
            if needed <= self.cap and not abs(values[q] - want) <= OBJ_RTOL * abs(want):
                self.fail(label, f"objective at q {q} is {values[q]!r}, reference {want!r}")
                break
        self.unverifiable += not self.selection(label, report["q"], [g])

    def cli(self, rec):
        """CLI stdout equals the library result for the same file and seed, and repeats bytewise."""
        for label in rec["mismatches"]:
            self.fail(f"cli/{label}", "stdout differs between invocations")
        lib, seeds = rec["library"], rec["seeds"]
        for kind, text in rec["stdout"].items():
            label = f"cli/{kind}"
            try:
                got = json.loads(text)
            except ValueError:
                self.fail(label, f"stdout is not one JSON object: {text!r}")
                continue
            if kind == "selectq":
                want = lib["selectq"]
            else:
                keys = ("statistic", "pvalue", "q", "bootstrap", "degenerate_fraction")
                want = dict(zip(keys, lib[kind]), seed=seeds[kind])
            if got != want:
                self.fail(label, f"stdout {text.strip()!r} differs from the library result {want!r}")
        x, y = rec["x"], rec["y"]
        for kind in ("onesample", "pooled", "welch"):
            self.test_outcome(f"library/{kind}", kind, x, None if kind == "onesample" else y, 0.0, 100, lib[kind])
        self.selectq("library/selectq", lib["selectq"], y)

    def mc_op(self, op, band_tail):
        """One run_scenario result: echoed settings, k/reps rates, stated intervals, t power bands."""
        label = f"{op['setup']}/{op['test']}"
        reps = op["reps"]
        self.checked += 1
        if len(op["rows"]) != len(op["eps_grid"]):
            self.fail(label, f"{len(op['rows'])} rows for {len(op['eps_grid'])} contamination levels")
            return
        for row, eps in zip(op["rows"], op["eps_grid"]):
            rate, lo, hi, r, alpha, epsilon, name, seed = row
            where = f"{label}/eps={eps}"
            if (r, alpha, epsilon, name, seed) != (reps, op["alpha"], eps, op["test"], op["seed"]):
                self.fail(where, f"settings {row[3:]} do not echo the request")
            self.lattice(where, "rejection rate", rate, reps)
            half = Z95 * math.sqrt(max(rate * (1.0 - rate), 0.0) / reps)
            if not (abs(lo - (rate - half)) <= CI_TOL and abs(hi - (rate + half)) <= CI_TOL):
                self.fail(where, f"interval [{lo!r}, {hi!r}] is not rate -/+ 1.96 sqrt(rate(1-rate)/reps)")
            power = exact_t_power(op) if name == "t" and eps == 0.0 else None
            if power is not None:
                from scipy.stats import binom

                k = round(rate * reps)
                if binom.cdf(k, reps, power) < band_tail or binom.sf(k - 1, reps, power) < band_tail:
                    self.fail(where, f"{k}/{reps} rejections; exact t-test power is {power:.4f}")


def exact_t_power(op):
    """Power of the two-sided t-test at eps = 0 from the noncentral t, where it is exact.

    One-sample and paired tests, and the pooled test when both variances
    are equal; Welch's test has no exact noncentral-t law, so None.
    """
    from scipy import stats

    n, (m0, *rest), (s1, s2, _) = op["n"], op["means_alt"], op["variances"]
    if op["setup"] == "one_sample":
        df, nc = n - 1, m0 / math.sqrt(s1 / n)
    elif op["setup"] == "paired":
        # both members of a pair share the inlier variance s1
        df, nc = n - 1, (m0 - rest[0]) / math.sqrt(2.0 * s1 / n)
    elif op["setup"] == "unpaired_equal_var" and s1 == s2:
        df, nc = 2 * n - 2, (m0 - rest[0]) / math.sqrt(2.0 * s1 / n)
    else:
        return None
    c = stats.t.ppf(1.0 - op["alpha"] / 2.0, df)
    return float(stats.nct.sf(c, df, nc) + stats.nct.cdf(-c, df, nc))


def band_tail(ops):
    """Per-side tail for each power band so that all bands of a run together fail a
    correct program with probability at most FALSE_ALARM."""
    bands = sum(1 for op in ops if op["test"] == "t" and exact_t_power(op) is not None
                for eps in op["eps_grid"] if eps == 0.0)
    return FALSE_ALARM / (2 * max(bands, 1))


def check_record(workload, rec):
    """Run every check that applies to a worker record; returns the Checker."""
    chk = Checker(rec["cap"])
    for label in rec["mismatches"] if workload != "cli_cold" else ():
        chk.fail(label, "output differs between rounds")
    if workload == "bootstrap_tests":
        for c in rec["calls"]:
            chk.test_outcome(c["label"], c["kind"], c["x"], c["y"], c["mu0"], c["bootstrap"], c["out"])
    elif workload == "mc_study":
        tail = band_tail(rec["ops"])
        for op in rec["ops"]:
            chk.mc_op(op, tail)
    else:
        chk.cli(rec)
    return chk
