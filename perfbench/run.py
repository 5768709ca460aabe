"""Benchmark entry point for lqrt: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {cli_cold,bootstrap_tests,mc_study}
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is taken from the
checkout's `src/`.  Every workload runs in fresh worker processes
(worker.py).  Without tracing, the worker's set-up is repeated in extra
processes and the median reported as `setup_s`; the end-to-end metrics of
BENCHMARK.json are printed.  With `--trace 1` the per-layer metrics are
printed instead.  Every output the worker recorded is then checked against
reference.py (checks.py) before the result line is printed:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exits 2, printing no result, when the checkout has no `src/lqrt`, and 1
when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "bootstrap_tests", "mc_study")
EXTRA_SETUPS = 2  # set-up-only processes besides the measuring one


def spawn_worker(args, env, setup_only=False):
    """Run worker.py to completion in its own process group; return its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = 90 if setup_only else 120 + args.seconds
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: worker exceeded {timeout} s")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lqrt" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'lqrt'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads

    setups = [] if args.trace else [spawn_worker(args, env, True)["setup_s"] for _ in range(EXTRA_SETUPS)]
    rec = spawn_worker(args, env)
    setups.append(rec["setup_s"])

    if args.trace:
        values = rec["layers"]
    else:
        values = dict(rec["metrics"], setup_s=statistics.median(setups), peak_rss_mb=rec["peak_rss_mb"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    chk = check_record(args.workload, rec)
    for line in rec["errors"] + chk.problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {rec['rounds']} rounds, {rec['attempted']} operations, "
          f"{rec['failed']} failed; {chk.checked} outputs checked, {len(chk.problems)} rejected, "
          f"{chk.unverifiable} unverifiable")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not chk.problems, "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
