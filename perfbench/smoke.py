"""Self-test of the benchmark.

    python3 perfbench/smoke.py

From the root of a source checkout: runs one op of every workload, checks
each result object against the metric lists of BENCHMARK.json (end-to-end
metrics untraced, per-layer metrics in one traced run), then scans a zero
window against a frozen zero ordinate moved by 1e-3 and requires that op to
be counted as failed, which shows the correctness gate is live.  Prints one
line per step and exits 0 when every step holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if not (run.SRC / "ltwist" / "__init__.py").is_file():
        print(f"smoke: no ltwist sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))

    problems = []
    listed = sorted(w["name"] for w in bench["workloads"])
    if listed != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json lists workloads {listed}")

    def step(label, result, record, names):
        found = run.validate(result, names)
        if not result["correct"]:
            found.append(f"op failed: {record['failures']}")
        problems.extend(f"{label}: {p}" for p in found)
        print(f"smoke {label}: {'ok' if not found else found}", flush=True)

    for name in workloads.WORKLOADS:
        result, record, _ = run.run(name, seed=1, seconds=0, trace=False,
                                    max_ops=1)
        step(name, result, record, end_to_end)

    # The scan cycle is (odd zero-free window, even zero window); with the
    # even ordinates moved, the second op must miss its check.
    frozen = workloads.REFERENCE["zeros"]["even"]
    workloads.REFERENCE["zeros"]["even"] = [t + 1e-3 for t in frozen]
    try:
        result, record, _ = run.run("scan", seed=1, seconds=0, trace=False,
                                    max_ops=2)
    finally:
        workloads.REFERENCE["zeros"]["even"] = frozen
    live = result["failed"] == 1 and record["fail_ratio"] == 0.5 \
        and not result["correct"]
    if not live:
        problems.append(f"gate: wrong reference not caught: {result}")
    print(f"smoke gate: {'ok' if live else 'NOT LIVE'} "
          f"(fail_ratio {record['fail_ratio']})", flush=True)

    # Tracing wraps the package for the rest of the process, so it is last.
    result, record, _ = run.run("checks", seed=1, seconds=0, trace=True,
                                max_ops=1)
    step("checks traced", result, record, per_layer)

    print("smoke: PASS" if not problems else f"smoke: FAIL {problems}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
