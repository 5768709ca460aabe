"""Command-line front end: test execution, q selection, and simulation runs.

Numeric output is rendered with 17 significant digits so every value
round-trips, and seeded invocations are byte-reproducible.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from . import gemsim, ratio_test
from .lqmath import check_alpha, check_count, check_eps, check_finite, check_q

__all__ = ["parse_args", "read_sample", "read_paired_columns", "run", "main"]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _arg(check, *args):
    # an argparse type from a library check, whose ValueError message becomes the usage error
    def parse(text: str):
        try:
            return check(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


def _eps_arg(text: str) -> list[float]:
    values = [_arg(check_eps)(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty contamination grid")
    return values


def _seed(text: str) -> int:
    # read as an integer, not through float(), so that a seed above 2**53 keeps every digit
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"seed must be a whole number of at least 0, got {text!r}")
    return seed


def _tests_arg(text: str) -> Optional[list[str]]:
    return [t.strip() for t in text.split(",")] if text else None


def _add_report(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    sub.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")


def _add_test(sub):
    sub.add_argument("--q", type=_arg(lambda text: None if text == "auto" else check_q(text)), default=None,
                     help="distortion parameter in (0, 1], or 'auto' (default)")
    sub.add_argument("--bootstrap", type=_arg(check_count, "bootstrap"), default=100,
                     help="number of bootstrap resamples (default 100)")
    sub.add_argument("--seed", type=_arg(_seed), default=None, help="seed for reproducible resampling")
    _add_report(sub)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="lqrt",
        description="Robust location tests with bootstrap p-values, plus a contamination study runner.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    one = subs.add_parser("onesample", help="test the mean of one sample")
    one.add_argument("inputs", nargs=1, metavar="data", help="input file, one value per line ('-' for stdin)")
    one.add_argument("--mu0", type=_arg(check_finite, "mu0"), default=0.0, help="null-hypothesis mean (default 0)")
    _add_test(one)

    rel = subs.add_parser("paired", help="test equality of means of paired samples")
    rel.add_argument("inputs", nargs="+", metavar="data",
                     help="two files (one value per line), or one file of comma-separated pairs")
    _add_test(rel)

    ind = subs.add_parser("unpaired", help="test equality of means of independent samples")
    ind.add_argument("inputs", nargs=2, metavar="data", help="two input files")
    _add_test(ind)
    ind.add_argument("--no-equal-var", dest="equal_var", action="store_false",
                     help="drop the shared-variance assumption")

    sel = subs.add_parser("selectq", help="report the adaptive q grid search")
    sel.add_argument("inputs", nargs="+", metavar="data",
                     help="one file (one-sample) or two files (two-sample)")
    _add_report(sel)

    sim = subs.add_parser("simulate", help="run the contamination size/power study (CSV output)")
    sim.add_argument("--scenario", default="all", choices=gemsim.SETUPS + ("all",))
    sim.add_argument("--tests", type=_tests_arg, default=None,
                     help="comma-separated test identifiers (default: all for the scenario)")
    sim.add_argument("--eps", type=_eps_arg, default=list(gemsim.DEFAULT_EPS_GRID), dest="eps_grid",
                     help="comma-separated contamination levels in [0, 0.5)")
    sim.add_argument("--reps", type=_arg(check_count, "reps"), default=500)
    sim.add_argument("--bootstrap", type=_arg(check_count, "bootstrap"), default=200)
    sim.add_argument("--alpha", type=_arg(check_alpha), default=0.05)
    sim.add_argument("--seed", type=_arg(_seed), default=None)
    sim.add_argument("--size", action="store_true", dest="under_null",
                     help="generate under the null means (size) instead of the alternative (power)")
    sim.add_argument("-o", "--output", default=None)

    args = parser.parse_args(argv)
    if args.subcommand in ("selectq", "paired") and len(args.inputs) > 2:
        parser.error(f"{args.subcommand} takes one or two input files")
    if getattr(args, "inputs", []).count("-") > 1:
        parser.error("stdin ('-') can be read only once")
    if args.subcommand == "simulate" and args.tests is not None:
        for setup in (gemsim.SETUPS if args.scenario == "all" else (args.scenario,)):
            for test in args.tests:
                if test not in gemsim.TESTS_BY_SETUP[setup]:
                    parser.error(f"test {test!r} is not available for scenario {setup!r}")
    return args


def _lines_from(path: str) -> list[str]:
    """Lines of a file or of stdin ('-') as strict UTF-8 whatever the locale, without a leading byte-order mark."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_column(lines, path: str, ncols: int):
    columns = [[] for _ in range(ncols)]
    header_allowed = True
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = [f.strip() for f in stripped.split(",")] if ncols > 1 else [stripped]
        try:
            values = [float(f) for f in fields]
        except ValueError:
            values = None
        # only a first line with a non-numeric field is a header; numbers in the wrong count are an error
        if values is None and header_allowed:
            header_allowed = False
            continue
        header_allowed = False
        if values is None or len(values) != ncols:
            raise ValueError(f"{path}: could not parse line {lineno}: {raw!r}")
        for col, value in zip(columns, values):
            col.append(value)
    if not columns[0]:
        raise ValueError(f"{path}: no numeric data found")
    return [np.array(col) for col in columns]


def read_sample(path: str) -> np.ndarray:
    """One value per line of UTF-8 ('-' for stdin); a first line with a non-numeric field is a header and skipped."""
    (col,) = _parse_column(_lines_from(path), path, 1)
    return col


def read_paired_columns(path: str):
    """Two comma-separated columns per line, read and with a header skipped as in read_sample."""
    return tuple(_parse_column(_lines_from(path), path, 2))


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


# read off TestOutcome by name, not by dataclasses.fields, so a field added there changes no report by itself
_TEST_FIELDS = ("statistic", "pvalue", "q", "bootstrap", "degenerate_fraction")
_SIMULATE_HEADER = ("scenario", "test", "epsilon", "rate", "ci_low", "ci_high", "reps", "alpha", "seed")


def _json_value(value) -> str:
    # JSON has no token for inf or nan, so a non-finite number is written as null, like a missing one
    if value is None or not (isinstance(value, (int, np.integer)) or math.isfinite(value)):
        return "null"
    return _fmt(value)


def _json(pairs) -> str:
    return "{" + ", ".join(f'"{key}": {value}' for key, value in pairs) + "}\n"


def _csv(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in (header, *rows))


def _test_report(outcome: ratio_test.TestOutcome, seed, fmt: str) -> str:
    header = _TEST_FIELDS + ("seed",)
    values = [getattr(outcome, name) for name in _TEST_FIELDS] + [seed]
    if fmt == "csv":
        return _csv(header, [["" if v is None else _fmt(v) for v in values]])
    return _json(zip(header, map(_json_value, values)))


def _selectq_report(report: ratio_test.QSelectionReport, fmt: str) -> str:
    if fmt == "csv":
        return _csv(("q", "objective"), [(_fmt(q), _fmt(v)) for q, v in report.grid])
    pairs = ", ".join(f"[{_json_value(q)}, {_json_value(v)}]" for q, v in report.grid)
    return _json([("q", _json_value(report.q_hat)), ("objective", _json_value(report.objective)),
                  ("grid", f"[{pairs}]")])


def _simulate_report(cfg: argparse.Namespace) -> str:
    scenarios = gemsim.builtin_scenarios()
    if cfg.scenario != "all":
        scenarios = [s for s in scenarios if s.setup == cfg.scenario]
    seed = cfg.seed if cfg.seed is not None else int(np.random.SeedSequence().entropy)
    rows = []
    for scenario in scenarios:
        tests = cfg.tests if cfg.tests is not None else list(gemsim.TESTS_BY_SETUP[scenario.setup])
        for test in tests:
            for est in gemsim.run_scenario(scenario, test, eps_grid=cfg.eps_grid, reps=cfg.reps, alpha=cfg.alpha,
                                           bootstrap=cfg.bootstrap, seed=seed, under_null=cfg.under_null):
                values = map(_fmt, (est.epsilon, est.rejection_rate, est.ci_low, est.ci_high, est.repetitions,
                                    est.alpha, est.seed))
                rows.append([scenario.setup, test, *values])
    return _csv(_SIMULATE_HEADER, rows)


def _report(cfg: argparse.Namespace) -> str:
    if cfg.subcommand == "simulate":
        return _simulate_report(cfg)
    if cfg.subcommand == "paired" and len(cfg.inputs) == 1:
        samples = read_paired_columns(cfg.inputs[0])
    else:
        samples = [read_sample(path) for path in cfg.inputs]
    if cfg.subcommand == "selectq":
        select = ratio_test.select_q_1samp if len(samples) == 1 else ratio_test.select_q_ind
        return _selectq_report(select(*samples), cfg.fmt)
    options = dict(q=cfg.q, bootstrap=cfg.bootstrap, seed=cfg.seed)
    if cfg.subcommand == "onesample":
        outcome = ratio_test.lqrtest_1samp(*samples, cfg.mu0, **options)
    elif cfg.subcommand == "paired":
        outcome = ratio_test.lqrtest_rel(*samples, **options)
    else:
        outcome = ratio_test.lqrtest_ind(*samples, equal_var=cfg.equal_var, **options)
    return _test_report(outcome, cfg.seed, cfg.fmt)


def run(cfg: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    try:
        _emit(_report(cfg), cfg.output)
    except (ValueError, OSError) as exc:
        print(f"lqrt: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))

