"""Run one benchmark workload in a fresh process and print its record as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at T [--setup-only]

`run.py` starts this script with `src/` of the checkout on PYTHONPATH and
passes the CLOCK_MONOTONIC reading taken just before the spawn, so set-up
time runs from process start to the first timed call.  The workload then
runs as a closed loop with one caller: whole rounds of the same
operations, each call issued after the previous one returned, until
`--seconds` have passed.  With `--trace 1` every other round runs with the
span recorder installed, so the record also carries per-layer figures and
the recorder's own cost.  The program's outputs from the first round go
into the record for `run.py` to check; later rounds must repeat them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"

# Outliers: share and variance of the wide component, as in the README example.
EPS = 0.1
TAU2 = 50.0


def stratified_normal(rng, m):
    """m standard-normal draws, one from each of m equal-probability slabs."""
    u = np.clip((np.arange(m) + rng.random(m)) / m, 1e-12, 1.0 - 1e-12)
    inv = NormalDist().inv_cdf
    return np.array([inv(float(v)) for v in u])


def contaminated(rng, n, mu):
    """n values of (1 - EPS) N(mu, 1) + EPS N(mu, TAU2), in random order.

    Exactly round(EPS n) values come from the wide component and both parts
    are stratified, so every seed yields a sample of the same make-up and
    the cost of a call varies little with the seed.
    """
    k = round(EPS * n)
    parts = [mu + stratified_normal(rng, n - k), mu + math.sqrt(TAU2) * stratified_normal(rng, k)]
    return rng.permutation(np.concatenate(parts))


def seeds(seed, stream, count):
    """`count` 32-bit seeds for the program, drawn from (workload seed, stream)."""
    return [int(v) for v in np.random.SeedSequence([seed, stream]).generate_state(count)]


class Workload:
    """Closed-loop driver shared by the three workloads.

    A subclass defines `setup` (inputs and warm-up); `ops`, the list of
    (kind, units, callable, label) making up one round; `encode`, which turns
    an output into JSON data; and `record`, the outputs and inputs the checks
    need.  `units` is how many operations of that kind the call performs, so
    per-kind latency is time / units.  `latency_kinds` names the kinds
    behind `latency_s`.
    """

    latency_kinds: tuple = ()

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = {}
        self.mismatches = []

    def run_round(self):
        samples = []
        for kind, units, call, label in self.ops():
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failing operation is counted, the loop goes on
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            samples.append((label, kind, units, time.perf_counter() - t0))
            out = self.encode(out)
            if label not in self.outputs:
                self.outputs[label] = out
            elif self.outputs[label] != out and len(self.mismatches) < 5:
                self.mismatches.append(label)
        return samples

    def encode(self, out):
        return out

    def latencies(self, rounds):
        """Per kind, and over `latency_kinds` as `latency_s`: the sum over the
        operations of each one's median time across rounds, over their units.

        The median across rounds discards bursts of machine noise; summing over
        many distinct operations averages out how their cost varies with data.
        """
        times, units, kinds = {}, {}, {}
        for samples in rounds:
            for label, kind, n, dt in samples:
                times.setdefault(label, []).append(dt)
                units[label], kinds[label] = n, kind
        metrics = {}
        for name, wanted in (("onesample_latency_s", ("onesample",)), ("pooled_latency_s", ("pooled",)),
                             ("welch_latency_s", ("welch",)), ("latency_s", self.latency_kinds)):
            labels = [lb for lb in times if kinds[lb] in wanted]
            u = sum(units[lb] for lb in labels)
            metrics[name] = sum(statistics.median(times[lb]) for lb in labels) / u if u else 0.0
        return metrics

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cleanup(self):
        """Remove what set-up wrote into the checkout."""


def _outcome(res):
    return [res.statistic, res.pvalue, res.q, res.bootstrap, res.degenerate_fraction]


class BootstrapTests(Workload):
    """lqrtest_1samp and lqrtest_ind (pooled and Welch), adaptive q, B = 1000."""

    B = 1000
    SMALL = (6, 50, 60)  # pairs, n_x, n_y
    LARGE = (1, 300, 250)
    latency_kinds = ("onesample", "pooled", "welch")

    def setup(self):
        import lqrt

        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        self.pairs = []
        for count, n, m in (self.SMALL, self.LARGE):
            shift = 0.3 * math.sqrt(50.0 / n)  # the README example's effect, scaled to n
            for _ in range(count):
                self.pairs.append((contaminated(rng, n, shift), contaminated(rng, m, 0.0)))
        self.seeds = seeds(self.seed, 2, 3 * len(self.pairs))
        x, y = self.pairs[0]
        lqrt.lqrtest_1samp(x, 0.0, bootstrap=self.B, seed=0)
        lqrt.lqrtest_ind(x, y, equal_var=True, bootstrap=self.B, seed=0)
        lqrt.lqrtest_ind(x, y, equal_var=False, bootstrap=self.B, seed=0)

    def ops(self):
        import lqrt

        B, ops = self.B, []
        for i, (x, y) in enumerate(self.pairs):
            s1, s2, s3 = self.seeds[3 * i : 3 * i + 3]
            ops += [
                ("onesample", 1, lambda x=x, s=s1: lqrt.lqrtest_1samp(x, 0.0, bootstrap=B, seed=s), f"onesample/{i}"),
                ("pooled", 1, lambda x=x, y=y, s=s2: lqrt.lqrtest_ind(x, y, equal_var=True, bootstrap=B, seed=s), f"pooled/{i}"),
                ("welch", 1, lambda x=x, y=y, s=s3: lqrt.lqrtest_ind(x, y, equal_var=False, bootstrap=B, seed=s), f"welch/{i}"),
            ]
        return ops

    encode = staticmethod(_outcome)

    def record(self):
        calls = []
        for i, (x, y) in enumerate(self.pairs):
            for j, kind in enumerate(("onesample", "pooled", "welch")):
                out = self.outputs.get(f"{kind}/{i}")
                if out is not None:
                    calls.append({"label": f"{kind}/{i}", "kind": kind, "x": x.tolist(), "y": None if kind == "onesample" else y.tolist(),
                                  "mu0": 0.0, "bootstrap": self.B, "seed": self.seeds[3 * i + j], "out": out})
        return {"calls": calls}


class MCStudy(Workload):
    """gemsim.run_scenario over the built-in set-ups, under the alternative, B = 200."""

    B = 200
    EPS_GRID = (0.0, 0.1, 0.3)
    REPS_LQRT = 8
    REPS_CLASSICAL = 100
    KIND = {"one_sample": "onesample", "paired": "onesample",
            "unpaired_equal_var": "pooled", "unpaired_unequal_var": "welch"}
    latency_kinds = ("onesample", "pooled", "welch")

    def setup(self):
        from lqrt import gemsim

        scenarios = gemsim.builtin_scenarios()
        self.cells = [(sc, test) for sc in scenarios for test in gemsim.TESTS_BY_SETUP[sc.setup]]
        self.seeds = seeds(self.seed, 3, len(self.cells))
        for sc in scenarios:
            gemsim.run_scenario(sc, "lqrt", eps_grid=(0.1,), reps=1, bootstrap=self.B, seed=0)

    def reps(self, test):
        return self.REPS_LQRT if test == "lqrt" else self.REPS_CLASSICAL

    def ops(self):
        from lqrt import gemsim

        return [
            (self.KIND[sc.setup] if test == "lqrt" else "classical", self.reps(test) * len(self.EPS_GRID),
             lambda sc=sc, test=test, s=s: gemsim.run_scenario(
                 sc, test, eps_grid=self.EPS_GRID, reps=self.reps(test), alpha=0.05, bootstrap=self.B, seed=s),
             f"{sc.setup}/{test}")
            for (sc, test), s in zip(self.cells, self.seeds)
        ]

    @staticmethod
    def encode(estimates):
        return [[e.rejection_rate, e.ci_low, e.ci_high, e.repetitions, e.alpha, e.epsilon,
                 e.test_name, e.seed] for e in estimates]

    def record(self):
        return {"ops": [
            {"setup": sc.setup, "means_alt": list(sc.means_alt), "variances": list(sc.variances), "n": sc.n,
             "test": test, "eps_grid": list(self.EPS_GRID), "alpha": 0.05, "reps": self.reps(test), "seed": s,
             "rows": self.outputs[f"{sc.setup}/{test}"]}
            for (sc, test), s in zip(self.cells, self.seeds) if f"{sc.setup}/{test}" in self.outputs
        ]}


class CLICold(Workload):
    """Cold `python -m lqrt` invocations on small files at the default B = 100."""

    latency_kinds = ("onesample", "pooled", "welch", "selectq")

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 4]))
        self.x = contaminated(rng, 50, 0.3)
        self.y = contaminated(rng, 60, 0.0)
        TMP.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=TMP))
        files = []
        for name, values in (("x.csv", self.x), ("y.csv", self.y)):
            path = self.dir / name
            path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values))
            files.append(str(path))
        s1, s2, s3 = seeds(self.seed, 5, 3)
        fx, fy = files
        self.commands = [
            ("onesample", ["onesample", fx, "--mu0", "0", "--seed", str(s1)]),
            ("pooled", ["unpaired", fx, fy, "--seed", str(s2)]),
            ("welch", ["unpaired", fx, fy, "--no-equal-var", "--seed", str(s3)]),
            ("selectq", ["selectq", fy]),
        ]
        self.cli_seeds = (s1, s2, s3)
        self.invoke(self.commands[0][1])

    @staticmethod
    def invoke(argv):
        proc = subprocess.run([sys.executable, "-m", "lqrt", *argv], capture_output=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
        return proc.stdout.decode("utf-8")

    def ops(self):
        return [(kind, 1, lambda a=argv: self.invoke(a), kind) for kind, argv in self.commands]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def library(self):
        """The same four requests made through the library, for comparison with stdout."""
        import lqrt

        s1, s2, s3 = self.cli_seeds
        report = lqrt.select_q_1samp(self.y)
        return {
            "onesample": _outcome(lqrt.lqrtest_1samp(self.x, 0.0, bootstrap=100, seed=s1)),
            "pooled": _outcome(lqrt.lqrtest_ind(self.x, self.y, equal_var=True, bootstrap=100, seed=s2)),
            "welch": _outcome(lqrt.lqrtest_ind(self.x, self.y, equal_var=False, bootstrap=100, seed=s3)),
            "selectq": {"q": report.q_hat, "objective": report.objective, "grid": [list(g) for g in report.grid]},
        }

    def record(self):
        seeds_by_kind = dict(zip(("onesample", "pooled", "welch"), self.cli_seeds))
        return {"x": self.x.tolist(), "y": self.y.tolist(), "seeds": seeds_by_kind,
                "stdout": self.outputs, "mismatches": self.mismatches, "library": self.library()}

    def replay(self, tracer, pairs=3):
        """Time the same four commands in-process via lqrt.cli.main, alternately traced."""
        import lqrt.cli

        calls, plain, traced = [], [], []
        for i in range(2 * pairs):
            on = i % 2 == 1
            if on:
                tracer.install()
            t0 = time.perf_counter()
            try:
                for _, argv in self.commands:
                    t1 = time.perf_counter()
                    with contextlib.redirect_stdout(io.StringIO()):
                        lqrt.cli.main(argv)
                    if not on:
                        calls.append(time.perf_counter() - t1)
            finally:
                tracer.uninstall()
            (traced if on else plain).append(time.perf_counter() - t0)
        return calls, plain, traced

    def cleanup(self):
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)
            with contextlib.suppress(OSError):  # left in place while another run uses it
                TMP.rmdir()


WORKLOADS = {"cli_cold": CLICold, "bootstrap_tests": BootstrapTests, "mc_study": MCStudy}


def import_profile(repeats=3):
    """Median cumulative import times of numpy, lqrt and lqrt.baselines in `python -c "import lqrt"`."""
    modules = {"cli.import_numpy_s": "numpy", "cli.import_lqrt_s": "lqrt", "cli.import_baselines_s": "lqrt.baselines"}
    got = {metric: [] for metric in modules}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lqrt"],
                              capture_output=True, text=True, cwd=ROOT, timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for metric, module in modules.items():
            got[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(v) for metric, v in got.items()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    try:
        wl.setup()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = run(wl, args)
        record["setup_s"] = setup_s
    finally:
        wl.cleanup()
    print(json.dumps(record))
    return 0


def run(wl, args):
    """The closed loop; with tracing, every other in-process round runs traced."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    traced_rounds = args.trace and not isinstance(wl, CLICold)
    plain_rounds, plain_walls, traced_walls = [], [], []
    start = time.perf_counter()
    n = 0
    while n < 1 + traced_rounds or time.perf_counter() - start < args.seconds:
        on = traced_rounds and n % 2 == 1
        if on:
            tracer.install()
        t0 = time.perf_counter()
        try:
            samples = wl.run_round()
        finally:
            tracer.uninstall()
        (traced_walls if on else plain_walls).append(time.perf_counter() - t0)
        if not on:
            plain_rounds.append(samples)
        n += 1
    record = {
        "attempted": wl.attempted,
        "failed": wl.failed,
        "errors": wl.errors,
        "mismatches": wl.mismatches,
        "rounds": n,
        "peak_rss_mb": wl.peak_rss_mb(),
        "metrics": wl.latencies(plain_rounds),
    }
    record.update(wl.record())
    import lqrt

    if not Path(lqrt.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"lqrt was imported from {lqrt.__file__}, not from this checkout")
    record["cap"] = int(getattr(getattr(lqrt, "DEFAULT_CONFIG", None), "max_iter", 0))
    if args.trace:
        layers = import_profile()
        layers["cli.compute_s"] = 0.0
        if isinstance(wl, CLICold):
            calls, plain_walls, traced_walls = wl.replay(tracer)
            layers["cli.compute_s"] = statistics.median(calls)
        layers.update((k, v) for k, v in record["metrics"].items() if k != "latency_s")
        layers.update(layer_metrics(tracer.spans, len(traced_walls)))
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
        record["layers"] = layers
    return record


if __name__ == "__main__":
    sys.exit(main())
