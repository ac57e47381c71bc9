"""One workload process of the benchmark; started by ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --launched-at T [--setup-only]

``--launched-at`` is the ``time.monotonic()`` reading (a system-wide clock
on Linux) taken by the launcher just before it started this process, so
that set-up time counts interpreter start-up as well.  Set-up ends after
the imports, the input generation and one untimed warm-up pass; the
warm-up fills the library's caches (star matrices, ``T`` term tables,
``T0`` cohomology constants, the grid's radial table).

With ``--setup-only`` the process stops there and prints its set-up
times.  Otherwise it runs whole passes until ``--seconds`` have gone by,
checks the outputs of the last pass, and prints one JSON object as its
last line of output.  With ``--trace 1`` the timed passes run under the
span tracer and the object holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _timed_passes(wl, seconds: float, tracer=None):
    """Run whole passes until ``seconds`` have gone by; returns per-op
    durations, the last outputs and whether every pass gave the same bytes."""
    durations, outputs, prints = [], [None] * len(wl.ops), None
    deterministic, clock = True, time.perf_counter
    began = clock()
    while True:
        for i, op in enumerate(wl.ops):
            t0 = clock()
            try:
                out = op.run() if tracer is None else tracer.run(f"bench.{wl.name}", op.run)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            durations.append(clock() - t0)
            outputs[i] = out
        now = [b"" if isinstance(o, Exception) else wl.fingerprint(i, o)
               for i, o in enumerate(outputs)]
        deterministic &= prints is None or now == prints
        prints = now
        if clock() - began >= seconds:
            return durations, outputs, deterministic


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports toroharm, numpy and scipy: the timed part
    t1 = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        return _measure(args, wl, t0, t1)


def _measure(args, wl, t0: float, t1: float) -> int:
    """Warm up, then (unless only setting up) measure and check ``wl``."""
    t2 = time.perf_counter()
    for op in wl.ops:
        try:
            op.run()
        except Exception:  # counted as failed in the timed passes
            pass
    t3 = time.perf_counter()
    setup = {"setup_s": time.monotonic() - args.launched_at,
             "import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    durations, outputs, deterministic = _timed_passes(wl, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_ops = []
    for i, out in enumerate(outputs):
        reason = (f"raised {type(out).__name__}: {out}" if isinstance(out, Exception)
                  else wl.check(i, out))
        if reason is not None:
            failed_ops.append(i)
            print(f"FAILED {wl.name} op {i} ({wl.ops[i].label}): {reason}", file=sys.stderr)
    passes = len(durations) // len(wl.ops)
    result = {
        "correct": bool(deterministic),
        "attempted": len(durations),
        "failed": passes * len(failed_ops),
        "passes": passes,
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "peak_rss_mb": peak_rss_mb,
        **setup,
    }
    if not deterministic:
        print(f"FAILED {wl.name}: outputs differ between passes", file=sys.stderr)
    if tracer is not None:
        result["per_layer"] = _per_layer(tracer, wl, passes, setup, result["ops_per_s"])
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        print(f"spans written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _per_layer(tracer, wl, passes: int, setup: dict, ops_per_s: float) -> dict:
    """Per-layer metrics; counts and self times are per pass."""
    import tracing

    calls, self_s = tracer.layer_totals()
    names = tracer.name_calls()
    counters = tracer.counters
    out = {}
    for layer in tracing.LAYERS + ("bench",):
        out[f"{layer}.calls"] = calls.get(layer, 0) / passes
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / passes
    q = "special_functions.q_half_grid"
    out[f"{q}.calls_per_op"] = names.get(q, 0) / (passes * len(wl.ops))
    out[f"{q}.points"] = counters.get(f"{q}.points", 0) / passes
    for name in ("expansion.evaluate_element_grid", "quadrature.integrate_annulus",
                 "monogenics.teodorescu", "special_functions.legendre_q_quadrature"):
        out[f"{name}.calls"] = names.get(name, 0) / passes
    ev = "quadrature.integrate_annulus.evaluations"
    out[ev] = counters.get(ev, 0) / passes
    for part in ("import_s", "inputs_s", "warmup_s"):
        out[f"setup.{part}"] = setup[part]
    out["trace.ops_per_s"] = ops_per_s
    return out


if __name__ == "__main__":
    sys.exit(main())
