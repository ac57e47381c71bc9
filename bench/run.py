"""Benchmark of toroharm: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a plain checkout; the package is taken from ``src`` (it need not
be installed).  Each workload runs in fresh Python processes (``worker.py``).
An untraced run (``--trace 0``) starts ``SETUP_RUNS - 1`` processes that only
set up, then one that sets up, measures for ``--seconds`` and checks its
outputs; it reports the end-to-end metrics, with ``setup_s`` the median over
all of them.  A traced run (``--trace 1``) starts the measuring process alone
with the span tracer on and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package's sources next to this directory, the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: every workload this script runs; ``BENCHMARK.json`` lists the first three
#: (``near_axis`` is run by hand, see README.md)
WORKLOADS = ("tabulate", "grid_project", "completion", "near_axis")
#: set-up samples per untraced run; ``setup_s`` is their median
SETUP_RUNS = 3
#: wall-clock budget of one run, all processes included
DEADLINE_S = 170.0
#: numerical library threads per process (at most ``nproc``)
THREADS = "1"

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("calls_per_op"):
        return "count/op"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


class RunFailed(Exception):
    """A workload process failed or ran out of time; no result is printed."""


def _child(args, env, deadline: float, setup_only: bool) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed(f"out of time after {DEADLINE_S:g} s")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    cmd += ["--launched-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"workload process exceeded the {DEADLINE_S:g} s budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of toroharm (see bench/README.md).")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "toroharm" / "__init__.py").is_file():
        print(f"error: no toroharm sources under {src}", file=sys.stderr)
        return 2

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
               PYTHONHASHSEED="0", OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            _child(args, env, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_RUNS - 1)]
        run = _child(args, env, deadline, setup_only=False)
    except RunFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = run["per_layer"]
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = {"ops_per_s": run["ops_per_s"], "op_p50_ms": run["op_p50_ms"],
                  "setup_s": statistics.median(setups + [run["setup_s"]]),
                  "peak_rss_mb": run["peak_rss_mb"]}
        units = END_TO_END_UNITS
    print(f"{args.workload} seed {args.seed}: {run['attempted']} operations in "
          f"{run['passes']} passes, {run['failed']} failed; "
          + ", ".join(f"{k} {v:.6g} {units[k]}" for k, v in values.items()))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
