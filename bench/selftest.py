"""Tests of the benchmark itself.

    python3 bench/selftest.py           # tracing, metric names, launcher refusal
    python3 bench/selftest.py --smoke   # ... and each workload on a handful of inputs

The ``test_*`` functions also run under pytest
(``python3 -m pytest bench/selftest.py``); the file name keeps them out of
the package's own test collection.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(HERE), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import tracing  # noqa: E402

#: operations per workload in the smoke run
SMOKE_OPS = 2


def _fake_package():
    """A package ``tracefake`` whose module ``a`` calls into module ``b``,
    with ``b.g`` also re-exported from the package namespace."""
    pkg = types.ModuleType("tracefake")
    a = types.ModuleType("tracefake.a")
    b = types.ModuleType("tracefake.b")
    sys.modules.update({"tracefake": pkg, "tracefake.a": a, "tracefake.b": b})
    exec("import time\n"
         "def g(x):\n    time.sleep(0.02)\n    return x\n"
         "def _private(x):\n    return x\n", b.__dict__)
    exec("import time\nfrom tracefake.b import g\n"
         "def f(x):\n    time.sleep(0.01)\n    return g(x) + 1\n", a.__dict__)
    pkg.g = b.g
    return pkg, a, b


def _drop_fake_package():
    for name in ("tracefake", "tracefake.a", "tracefake.b"):
        sys.modules.pop(name, None)


def test_self_times_sum_to_traced_duration_and_callee_gets_its_time():
    pkg, a, b = _fake_package()
    original_g = b.g
    tracer = tracing.Tracer()
    try:
        assert tracer.install("tracefake", layers=("a", "b")) == 2
        assert pkg.g is a.g is b.g is not original_g  # every binding is rebound
        assert b._private.__name__ == "_private" and not hasattr(b._private, "__wrapped__")
        assert tracer.run("bench.op", a.f, 41) == 42
    finally:
        tracer.uninstall()
        _drop_fake_package()
    assert pkg.g is b.g is original_g

    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["bench.op", "a.f", "b.g"]
    assert tracer.parent == [-1, 0, 1]
    calls, self_s = tracer.layer_totals()
    assert dict(calls) == {"bench": 1, "a": 1, "b": 1}
    duration = tracer.end[0] - tracer.start[0]
    assert math.isclose(sum(self_s.values()), duration, rel_tol=1e-12)
    # the 20 ms sleep in b.g belongs to b, not to its caller a
    assert 0.015 < self_s["b"] < 0.015 + duration
    assert 0.008 < self_s["a"] < 0.015
    assert self_s["bench"] < 0.005


def test_toroharm_calls_are_attributed_to_the_callee_module():
    from toroharm import harmonics, quadrature
    from toroharm.geometry import ToroidalPoint

    original = harmonics.eval_I
    tracer = tracing.Tracer()
    tracer.install()
    try:
        value = tracer.run("bench.op", harmonics.eval_I,
                           harmonics.HarmonicIndex(2, 1, 1, -1), ToroidalPoint(1.4, 0.8, 0.5))
        res = tracer.run("bench.op", quadrature.integrate_annulus,
                         lambda z: z * 0 + 1, 0.5, 2.0)
    finally:
        tracer.uninstall()
    assert harmonics.eval_I is original
    assert math.isfinite(value)

    names = [tracer.names[i] for i in tracer.name_id]
    chain = ["harmonics.eval_I", "harmonics.eval_I_batch", "special_functions.q_half_grid"]
    positions = [names.index(n) for n in chain]
    assert tracer.parent[positions[1]] == positions[0]
    assert tracer.parent[positions[2]] == positions[1]
    assert tracer.counters["special_functions.q_half_grid.points"] == 1
    assert tracer.counters["quadrature.integrate_annulus.evaluations"] == res.evaluations

    calls, self_s = tracer.layer_totals()
    duration = sum(tracer.end[i] - tracer.start[i]
                   for i, p in enumerate(tracer.parent) if p < 0)
    assert math.isclose(sum(self_s.values()), duration, rel_tol=1e-12)
    assert calls["bench"] == 2 and calls["quadrature"] == 1
    assert self_s["special_functions"] > 0


def test_reported_metrics_match_benchmark_json():
    import json

    import run
    import worker

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = types.SimpleNamespace(ops=[None])
    setup = {"import_s": 1.0, "inputs_s": 1.0, "warmup_s": 1.0}
    per_layer = worker._per_layer(tracing.Tracer(), ops, 1, setup, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.per_layer_unit(name) for name in per_layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == list(run.WORKLOADS[:len(listed)])


def test_launcher_without_sources_exits_nonzero_without_a_result():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(tmp) / HERE.name / "run.py"), "--workload", "tabulate",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def smoke(seed: int = 0) -> list:
    """Run the first ``SMOKE_OPS`` operations of each workload and check them;
    returns the failures."""
    import workloads

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in workloads.WORKLOADS.items():
            t0 = time.perf_counter()
            wl = cls(seed, Path(tmp))
            for i, op in enumerate(wl.ops[:SMOKE_OPS]):
                reason = wl.check(i, op.run())
                if reason is not None:
                    failures.append(f"{name} op {i} ({op.label}): {reason}")
            print(f"smoke {name}: {min(SMOKE_OPS, len(wl.ops))} operations checked "
                  f"in {time.perf_counter() - t0:.1f} s")
    return failures


def main(argv) -> int:
    failures = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                print(f"FAIL {name}")
    if "--smoke" in argv:
        failures += smoke()
    for f in failures:
        print("FAILED " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
