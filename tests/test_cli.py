import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lqrt import cli


def write_sample(path, values, header=None):
    lines = ([header] if header else []) + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def sample_files(tmp_path):
    rng = np.random.default_rng(314)
    a = write_sample(tmp_path / "a.csv", rng.normal(0, 1, 50))
    b = write_sample(tmp_path / "b.csv", rng.normal(0, 1, 50))
    return a, b


class TestParseArgs:
    def test_onesample_defaults(self, sample_files):
        cfg = cli.parse_args(["onesample", sample_files[0], "--mu0", "0"])
        assert cfg.subcommand == "onesample"
        assert cfg.q is None
        assert cfg.bootstrap == 100
        assert cfg.fmt == "json"
        assert cfg.mu0 == 0.0
        assert cfg.seed is None

    def test_unpaired_flags(self, sample_files):
        a, b = sample_files
        cfg = cli.parse_args(
            ["unpaired", a, b, "--no-equal-var", "--q", "0.7", "--bootstrap", "1000", "--seed", "314"]
        )
        assert cfg.equal_var is False
        assert cfg.q == 0.7
        assert cfg.bootstrap == 1000
        assert cfg.seed == 314

    def test_q_out_of_range_exits_2(self, sample_files):
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["onesample", sample_files[0], "--q", "1.5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("q", ["0", "nan", "-0.5", "inf", "abc"])
    def test_bad_q_exits_2(self, sample_files, q, capsys):
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["onesample", sample_files[0], "--q", q])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "argument --q" in stderr
        assert "q must satisfy 0 < q <= 1" in stderr

    def test_q_auto_is_adaptive(self, sample_files):
        assert cli.parse_args(["onesample", sample_files[0], "--q", "auto"]).q is None
        assert cli.parse_args(["onesample", sample_files[0], "--q", "1"]).q == 1.0

    def test_unknown_flag_exits_2(self, sample_files):
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["onesample", sample_files[0], "--frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [["--q", "0.7"], ["--bootstrap", "50"], ["--seed", "1"], ["--no-equal-var"]])
    def test_selectq_rejects_test_options(self, sample_files, flags):
        # q selection runs no test, so it takes no test options
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["selectq", sample_files[0], *flags])
        assert err.value.code == 2

    def test_bad_bootstrap_exits_2(self, sample_files, capsys):
        # counts are checked as the library checks them, and the usage error is the library's message
        for argv, flag, value in [
            (["onesample", sample_files[0]], "--bootstrap", "0"),
            (["onesample", sample_files[0]], "--bootstrap", "2.5"),
            (["onesample", sample_files[0]], "--bootstrap", "abc"),
            (["simulate"], "--bootstrap", "0"),
            (["simulate"], "--reps", "nan"),
        ]:
            with pytest.raises(SystemExit) as err:
                cli.parse_args([*argv, flag, value])
            assert err.value.code == 2
            name = flag.lstrip("-")
            message = f"argument {flag}: {name} must be a whole number of at least 1, got '{value}'"
            assert message in capsys.readouterr().err
            assert getattr(cli.parse_args([*argv, flag, "1e3"]), name) == 1000

    @pytest.mark.parametrize("argv, flag, value, message", [
        (["simulate"], "--alpha", "abc", "alpha must lie in (0, 1), got 'abc'"),
        (["simulate"], "--alpha", "1", "alpha must lie in (0, 1), got '1'"),
        (["simulate"], "--eps", "abc", "eps must lie in [0, 0.5), got 'abc'"),
        (["simulate"], "--eps", "0,0.6", "eps must lie in [0, 0.5), got '0.6'"),
        (["onesample", "DATA"], "--mu0", "nan", "mu0 must be finite, got 'nan'"),
        (["onesample", "DATA"], "--mu0", "abc", "mu0 must be finite, got 'abc'"),
        (["onesample", "DATA"], "--seed", "-1", "seed must be a whole number of at least 0, got '-1'"),
        (["onesample", "DATA"], "--seed", "2.5", "seed must be a whole number of at least 0, got '2.5'"),
        (["simulate"], "--seed", "-3", "seed must be a whole number of at least 0, got '-3'"),
        (["simulate"], "--eps", ",", "empty contamination grid"),
    ])
    def test_other_arguments_get_the_library_checks(self, sample_files, capsys, argv, flag, value, message):
        # each is a usage error (status 2) naming the argument, before any data is read
        argv = [sample_files[0] if a == "DATA" else a for a in argv]
        with pytest.raises(SystemExit) as err:
            cli.parse_args([*argv, flag, value])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert f"argument {flag}: {message}" in stderr
        assert "_arg" not in stderr

    def test_other_arguments_parse_as_the_library_reads_them(self, sample_files):
        sim = cli.parse_args(["simulate", "--alpha", "0.1", "--eps", "0, 0.25,", "--seed", "0"])
        assert (sim.alpha, sim.eps_grid, sim.seed) == (0.1, [0.0, 0.25], 0)
        # a seed is read as an integer, so one above 2**53 keeps every digit
        big = 2**64 + 1
        assert cli.parse_args(["onesample", sample_files[0], "--seed", str(big)]).seed == big
        assert cli.parse_args(["onesample", sample_files[0], "--mu0", "1e-3"]).mu0 == 0.001

    def test_simulate_config(self):
        cfg = cli.parse_args(
            ["simulate", "--scenario", "one_sample", "--tests", "t,sign",
             "--eps", "0,0.1", "--reps", "5", "--bootstrap", "20", "--seed", "7", "--size"]
        )
        assert cfg.scenario == "one_sample"
        assert cfg.tests == ["t", "sign"]
        assert cfg.eps_grid == [0.0, 0.1]
        assert cfg.under_null is True

    @pytest.mark.parametrize("argv, message", [
        (["selectq", "DATA", "DATA", "DATA"], "selectq takes one or two input files"),
        (["paired", "DATA", "DATA", "DATA"], "paired takes one or two input files"),
        (["paired", "DATA", "--paired-columns"], "unrecognized arguments: --paired-columns"),
        (["paired", "-", "-"], "stdin ('-') can be read only once"),
        (["unpaired", "-", "-"], "stdin ('-') can be read only once"),
    ])
    def test_wrong_number_of_inputs_exits_2(self, sample_files, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.parse_args([sample_files[0] if a == "DATA" else a for a in argv])
        assert err.value.code == 2
        assert f"lqrt: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, setup", [
        (["--tests", "sign"], "unpaired_equal_var"),  # fine for the first two set-ups only
        (["--tests", "foo"], "one_sample"),
        (["--scenario", "paired", "--tests", "t,ranksum"], "paired"),
    ])
    def test_simulate_unknown_test_exits_2(self, argv, setup, capsys):
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["simulate", *argv])
        assert err.value.code == 2
        assert repr(setup) in capsys.readouterr().err


class TestReadSample:
    def test_plain_values(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        assert cli.read_sample(str(path)).tolist() == [1.0, 2.0, 3.0]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("value\n1\n2\n")
        assert cli.read_sample(str(path)).tolist() == [1.0, 2.0]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1\n\n2\n\n")
        assert cli.read_sample(str(path)).tolist() == [1.0, 2.0]

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1\nabc\n")
        with pytest.raises(ValueError, match="line 2"):
            cli.read_sample(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("header\n")
        with pytest.raises(ValueError, match="no numeric data"):
            cli.read_sample(str(path))

    def test_paired_columns(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("before,after\n1,2\n3,4\n")
        x, y = cli.read_paired_columns(str(path))
        assert x.tolist() == [1.0, 3.0]
        assert y.tolist() == [2.0, 4.0]

    def test_byte_order_mark_is_not_data(self, tmp_path):
        # "\ufeff1.5" does not parse: a mark left in place would drop the first value as a header
        path = tmp_path / "v.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.0\n3.0\n4.0\n")
        assert cli.read_sample(str(path)).tolist() == [1.5, 2.0, 3.0, 4.0]
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert [c.tolist() for c in cli.read_paired_columns(str(path))] == [[1.0, 3.0], [2.0, 4.0]]
        path.write_bytes(b"\xef\xbb\xbfbefore,after\n1,2\n3,4\n")
        assert [c.tolist() for c in cli.read_paired_columns(str(path))] == [[1.0, 3.0], [2.0, 4.0]]

    @pytest.mark.parametrize("text, lineno", [("1,2,3\n4,5\n6,7\n", 1), ("1\n4,5\n6,7\n", 1), ("4,5\n6,7,8\n", 2)])
    def test_numbers_in_the_wrong_count_are_not_a_header(self, tmp_path, text, lineno):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"could not parse line {lineno}:"):
            cli.read_paired_columns(str(path))


class TestRun:
    def test_onesample_json_schema(self, sample_files, capsys):
        code = cli.main(["onesample", sample_files[0], "--mu0", "0", "--seed", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"statistic", "pvalue", "q", "bootstrap", "degenerate_fraction", "seed"}
        assert 0.0 <= report["pvalue"] <= 1.0
        assert report["seed"] == 3
        assert report["bootstrap"] == 100

    def test_unseeded_report_has_no_seed(self, sample_files, capsys):
        argv = ["onesample", sample_files[0], "--bootstrap", "10"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] is None
        assert cli.main([*argv, "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "statistic,pvalue,q,bootstrap,degenerate_fraction,seed"
        fields = row.split(",")
        assert len(fields) == 6 and fields[3] == "10" and fields[5] == ""

    def test_paired_two_files(self, sample_files, capsys):
        a, b = sample_files
        assert cli.main(["paired", a, b, "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pvalue"] > 0.05

    def test_paired_one_file(self, tmp_path, capsys):
        # one file is read as two comma-separated columns, and reports as the two files of its columns
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0, 1, 30)
        path = tmp_path / "p.csv"
        path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n")
        assert cli.main(["paired", str(path), "--seed", "4"]) == 0
        one = capsys.readouterr().out
        json.loads(one)
        files = [write_sample(tmp_path / "x.csv", x), write_sample(tmp_path / "y.csv", y)]
        assert cli.main(["paired", *files, "--seed", "4"]) == 0
        assert capsys.readouterr().out == one

    def test_unpaired(self, sample_files, capsys):
        a, b = sample_files
        assert cli.main(["unpaired", a, b, "--seed", "5", "--q", "0.8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["q"] == 0.8

    def test_selectq_json(self, sample_files, capsys):
        assert cli.main(["selectq", sample_files[0]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["grid"]) == 51
        assert report["q"] in [q for q, _ in report["grid"]]

    def test_selectq_csv(self, sample_files, capsys):
        assert cli.main(["selectq", sample_files[0], "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,objective"
        assert len(lines) == 52

    def test_simulate_schema_and_rates(self, capsys):
        code = cli.main(
            ["simulate", "--scenario", "one_sample", "--tests", "t", "--eps", "0,0.2",
             "--reps", "1", "--seed", "11"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scenario,test,epsilon,rate,ci_low,ci_high,reps,alpha,seed"
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "one_sample" and fields[1] == "t"
            assert float(fields[3]) in (0.0, 1.0)

    def test_missing_file_exits_1(self, capsys):
        assert cli.main(["onesample", "/nonexistent/file.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_domain_error_exits_1(self, tmp_path, capsys):
        path = write_sample(tmp_path / "short.csv", [1.0, 2.0])
        assert cli.main(["onesample", path]) == 1  # q selection needs >= 3 values
        assert "error" in capsys.readouterr().err

    def test_output_file(self, sample_files, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["onesample", sample_files[0], "--seed", "9", "-o", str(out)]) == 0
        json.loads(out.read_text())


class TestDeterminism:
    def _invoke(self, args, extra_env=None):
        env = dict(os.environ)
        env.update(extra_env or {})
        proc = subprocess.run(
            [sys.executable, "-m", "lqrt", *args],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout, "the CLI printed nothing"
        return proc.stdout

    def test_repeat_runs_byte_identical(self, sample_files):
        args = ["onesample", sample_files[0], "--mu0", "0.1", "--seed", "7"]
        assert self._invoke(args) == self._invoke(args)

    def test_thread_count_does_not_matter(self, sample_files):
        a, b = sample_files
        args = ["unpaired", a, b, "--seed", "7", "--bootstrap", "50"]
        one = self._invoke(args, {"OMP_NUM_THREADS": "1"})
        four = self._invoke(args, {"OMP_NUM_THREADS": "4"})
        assert one == four

    def test_simulate_byte_identical(self):
        args = ["simulate", "--scenario", "paired", "--tests", "sign", "--eps", "0,0.1",
                "--reps", "10", "--seed", "21"]
        assert self._invoke(args) == self._invoke(args)

    def test_seventeen_significant_digits(self, sample_files, capsys):
        assert cli.main(["onesample", sample_files[0], "--seed", "2", "--q", "0.77"]) == 0
        raw = capsys.readouterr().out
        report = json.loads(raw)
        # parsing the rendered text recovers the exact double
        assert report["q"] == 0.77
        assert f'{report["statistic"]:.17g}' in raw


DATA = Path(__file__).resolve().parent / "data"
GOLDEN_SIMULATE = ["simulate", "--reps", "5", "--eps", "0,0.1", "--bootstrap", "50", "--seed", "7"]
# test subcommands on one fixed contaminated pair: pair_x.csv and pair_y.csv, side by side in pair.csv
GOLDEN_TESTS = [
    (["onesample", "pair_x.csv", "--seed", "7"], "cli_onesample.json"),
    (["paired", "pair.csv", "--seed", "5"], "cli_paired.json"),
    (["unpaired", "pair_x.csv", "pair_y.csv", "--seed", "11"], "cli_unpaired.json"),
    (["unpaired", "pair_x.csv", "pair_y.csv", "--seed", "11", "--no-equal-var"], "cli_unpaired_welch.json"),
    (["selectq", "pair_x.csv", "pair_y.csv", "--format", "csv"], "cli_selectq.csv"),
    (["onesample", "pair_x.csv", "--seed", "7", "--format", "csv"], "cli_onesample.csv"),
    (["unpaired", "pair_x.csv", "pair_y.csv", "--seed", "11", "--no-equal-var", "--format", "csv"],
     "cli_unpaired_welch.csv"),
    (["selectq", "pair_x.csv", "pair_y.csv"], "cli_selectq.json"),
    (["onesample", "-", "--seed", "7"], "cli_onesample.json"),  # pair_x.csv on stdin
    (["paired", "-", "--seed", "5"], "cli_paired.json"),  # pair.csv on stdin
]
GOLDEN_IDS = [golden + ("-stdin" if "-" in argv else "") for argv, golden in GOLDEN_TESTS]


class TestGoldenOutput:
    @pytest.mark.parametrize("flags, golden", [([], "simulate_power.csv"), (["--size"], "simulate_size.csv")])
    def test_simulate_matches_golden_bytes(self, flags, golden):
        # captured before run_scenario stacked its lqrt replicates; every byte must stay
        proc = subprocess.run([sys.executable, "-m", "lqrt", *GOLDEN_SIMULATE, *flags], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("argv, golden", GOLDEN_TESTS, ids=GOLDEN_IDS)
    def test_test_subcommands_match_golden_bytes(self, argv, golden):
        # p, q and degenerate_fraction were captured before `_test` chose its own statistic, the
        # statistic when it became one sum of weight differences, and the pooled one when its null
        # fit became two blocks of one group; every byte must stay
        argv = [str(DATA / a) if a.endswith(".csv") else a for a in argv]
        stdin = (DATA / ("pair.csv" if argv[0] == "paired" else "pair_x.csv")).read_bytes()
        proc = subprocess.run([sys.executable, "-m", "lqrt", *argv], input=stdin, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (DATA / golden).read_bytes()

    def test_byte_order_mark_on_stdin_is_not_data(self, monkeypatch, capsys):
        # pair_x.csv's values without their header, behind a UTF-8 BOM: the golden report, no value dropped,
        # whatever encoding stdin's text layer has
        values = (DATA / "pair_x.csv").read_bytes().split(b"\n", 1)[1]
        for encoding in ("utf-8", "latin-1"):
            stdin = io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf" + values), encoding=encoding)
            monkeypatch.setattr(sys, "stdin", stdin)
            assert cli.main(["onesample", "-", "--seed", "7"]) == 0
            assert capsys.readouterr().out == (DATA / "cli_onesample.json").read_text()

    def test_undecodable_byte_is_an_error_from_stdin_and_file(self, monkeypatch, capsys, tmp_path):
        # under a C locale Python reads stdin as UTF-8 with surrogateescape, which would turn the byte
        # into a header line; both inputs are strict UTF-8 and exit 1 with the codec's message behind
        # the input's name
        data = b"\xff1.5\n2.0\n3.0\n4.0\n"
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli.main(["onesample", "-"]) == 1
        from_stdin = capsys.readouterr().err
        path = tmp_path / "v.csv"
        path.write_bytes(data)
        assert cli.main(["onesample", str(path)]) == 1
        assert capsys.readouterr().err == from_stdin.replace("lqrt: error: -: ", f"lqrt: error: {path}: ")
        assert from_stdin.startswith("lqrt: error: -: 'utf-8' codec can't decode")

    def test_undecodable_file_is_named(self, capsys, tmp_path):
        # with two inputs the message says which one holds the byte
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff1\n2\n3\n")
        assert cli.main(["unpaired", str(DATA / "pair_x.csv"), str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"lqrt: error: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_golden_pair_files_hold_one_pair(self):
        x, y = cli.read_sample(str(DATA / "pair_x.csv")), cli.read_sample(str(DATA / "pair_y.csv"))
        px, py = cli.read_paired_columns(str(DATA / "pair.csv"))
        assert x.tolist() == px.tolist() and y.tolist() == py.tolist()

    def test_cli_test_run_does_not_load_scipy(self, sample_files):
        # the runtime needs numpy only: no test subcommand, t-test simulation or baseline loads scipy
        code = (
            "import sys, contextlib, io, lqrt\n"
            "import numpy as np\n"
            "from lqrt import baselines, cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['onesample', {sample_files[0]!r}, '--seed', '1']) == 0\n"
            "    assert cli.main(['simulate', '--scenario', 'unpaired_unequal_var', '--tests', 't', '--reps', '3',\n"
            "                     '--eps', '0', '--seed', '1']) == 0\n"
            "x, y = np.random.default_rng(5).normal(0.4, 1.0, (2, 1500))\n"
            "baselines.ttest_1samp(x, 0.0); baselines.ttest_rel(x, y)\n"
            "baselines.ttest_ind(x, y); baselines.ttest_ind(x, y, equal_var=False)\n"
            "baselines.wilcoxon_signed_rank(x[:20]); baselines.wilcoxon_signed_rank(x, y); baselines.rank_sum(x, y)\n"
            "baselines.sign_test(x[:30], 0.0); baselines.sign_test(x, 0.0)\n"
            "baselines.regularized_incomplete_beta(2.5, 0.5, 0.3); baselines.normal_cdf(1.0)\n"
            "baselines.binomial_tail(10, 3)\n"
            "lqrt.ttest_1samp(x, 0.0); lqrt.ttest_rel(x, y); lqrt.ttest_ind(x, y, equal_var=False)\n"
            "print('scipy' in sys.modules, 'scipy.special' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]
