"""Run one ltwist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {scan,points,taylor,checks}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one thread, one client in a closed loop.  Set-up
(import, fixture parse, cache warm-up) is timed once; then ops run in whole
input cycles until `--seconds` have passed.  Every op is checked; a failed
op gives no latency and counts against `pass_ratio`.  Op costs are reported
in reference units (see refclock.py) so that they hold still while the
machine's speed drifts; the wall seconds are in the record.

The last line of stdout is the result object.  With `--trace 0` it holds
the end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
run.  The line before it (`# perfbench {...}`) carries the environment
stamp, the failures and the tail percentile; the same record, and with
tracing the spans, are written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it,
    and that percentile; a run of ten ops or fewer reports its maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100 * (n - 10) / n
    return ordered[-1], 100.0


def environment(seed):
    import mpmath
    import numpy

    from workloads import TOL, WORK_BITS

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "work_bits": WORK_BITS,
        "tol": TOL,
        "seed": seed,
    }


def run(workload, seed, seconds, trace, max_ops=None):
    """One benchmark run in this process; returns (result, record, tracer).
    `max_ops` cuts the run short for the self-test."""
    from refclock import RefClock
    from tracing import Tracer
    from workloads import WORKLOADS, Env, probe_layers

    spec = WORKLOADS[workload](seed)
    inputs = spec.inputs()
    tracer = Tracer() if trace else None

    start = time.perf_counter()
    env = Env()
    import_s = time.perf_counter() - start
    if tracer:
        tracer.install()
    env.parse_fixtures()
    spec.setup(env)
    setup_end = time.perf_counter()

    clock = RefClock()
    clock.start()
    try:
        ops, failures = [], []   # ops: (input, start, end, passed)
        deadline = setup_end + seconds
        while True:
            for _ in range(spec.cycle):
                if len(ops) == max_ops:
                    break
                inp = next(inputs)
                op_start = time.perf_counter()
                try:
                    spec.op(env, inp)
                    passed = True
                except Exception as exc:  # every failure counts, none aborts
                    failures.append(f"{inp!r}: {type(exc).__name__}: {exc}")
                    passed = False
                ops.append((repr(inp), op_start, time.perf_counter(), passed))
            if time.perf_counter() >= deadline or len(ops) == max_ops:
                break
        end = time.perf_counter()
    finally:
        clock.stop()

    attempted = len(ops)
    setup_s = setup_end - start
    seconds_ok = [t1 - t0 for _, t0, t1, ok in ops if ok]
    refs_all = [clock.refs(t0, t1) for _, t0, t1, _ in ops]
    refs_ok = [r for r, (_, _, _, ok) in zip(refs_all, ops) if ok]
    passed = len(refs_ok)
    ops_per_kref = 1000 * passed / sum(refs_all)
    tail_ref, tail_pct = _tail(refs_ok) if refs_ok else (0.0, 100.0)
    if tracer:
        metrics = tracer.metrics(end - start)
        metrics.update(probe_layers(env))
        metrics.update({
            "zeros.kernel_builds": (len(env.kernel_build_s), "count"),
            "cli.import_s": (import_s, "s"),
            "trace.setup_s": (setup_s, "s"),
            "trace.ops_per_kref": (ops_per_kref, "1/kref"),
            "trace.ops": (attempted, "count"),
        })
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_kref": (ops_per_kref, "1/kref"),
            "op_p50_ref": (statistics.median(refs_ok)
                           if refs_ok else 0.0, "ref"),
            "op_tail_ref": (tail_ref, "ref"),
            "pass_ratio": (passed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "op_tail_percentile": tail_pct,
        "op_samples": passed,
        # the op figures in wall seconds, and the reference unit itself
        "ops_per_s": passed / (end - setup_end),
        "op_p50_s": statistics.median(seconds_ok) if seconds_ok else 0.0,
        "op_tail_s": _tail(seconds_ok)[0] if seconds_ok else 0.0,
        "ref_unit_s": statistics.median(s for _, s in clock.samples),
        "ref_samples": len(clock.samples),
        "import_s": import_s,
        "kernel_build_s": env.kernel_build_s,
        "ops": [(inp, t1 - t0, r, ok)
                for (inp, t0, t1, ok), r in zip(ops, refs_all)],
    }
    return result, record, tracer


def validate(result, names_units):
    """Schema of a result object against the metric list it must carry."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(names_units):
        problems.append(f"metrics differ: missing "
                        f"{sorted(set(names_units) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(names_units))}")
    for name, unit in names_units.items():
        entry = metrics.get(name, {})
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append(f"{name}: {entry}")
        elif not isinstance(entry["value"], (int, float)) \
                or entry["value"] != entry["value"]:
            problems.append(f"{name} value {entry['value']!r}")
    return problems


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ltwist" / "__init__.py").is_file():
        print(f"perfbench: no ltwist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, record, tracer = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        spans = OUT / f"{stem}.spans.jsonl.gz"
        tracer.write(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, **record}, indent=1))
    print("# perfbench " + json.dumps({k: v for k, v in record.items()
                                       if k != "ops"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
