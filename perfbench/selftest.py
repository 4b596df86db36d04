"""Small-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size and checks that:

* every metric in BENCHMARK.json is emitted, with its unit (end-to-end
  metrics untraced, per-layer metrics traced);
* in each traced run, the per-layer self times plus the residual equal
  the traced wall time;
* a deliberately corrupted estimate in ``serve-stream`` is counted as a
  failed operation.

It also checks the span-split rules on hand-made spans.  Exits 1 on the
first failed check.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

sys.path.insert(0, harness.SRC)

import run  # noqa: E402
from tracing import split  # noqa: E402

SECONDS = 2.0


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_split_rules() -> None:
    def span(name, start, end, pid=1, tid=1):
        return (f"{pid}:{name}{start}", None, name, start, end, pid, tid, None)

    spans = [
        span("bench.unit", 0, 100),
        span("exec.sweep", 10, 90),
        # Two workers busy 20..60 share those instants; one alone 60..80.
        span("exec.worker", 20, 60, pid=2),
        span("simulator.run_ticks", 30, 50, pid=2),
        span("exec.worker", 20, 80, pid=3),
    ]
    parts = split(spans)
    by = parts["by_span"]
    check(parts["wall_s"] == 100e-9, "split: wall time is the root span")
    check(math.isclose(by["simulator.run_ticks"], 10e-9), "split: concurrent work shares each instant")
    check(math.isclose(by["exec.worker"], 20e-9 + 20e-9 + 10e-9), "split: worker self time excludes its child")
    check(math.isclose(by["exec.sweep"], 20e-9), "split: a waiting parent counts only while no worker is busy")
    check(math.isclose(by["bench.unit"], 20e-9), "split: uncovered root time is the residual")
    check(math.isclose(sum(by.values()), parts["wall_s"]), "split: credits sum to the wall time")


def check_run(workload: str, trace: bool, spec: dict, **state_overrides) -> dict:
    if state_overrides:
        module = __import__(run.WORKLOADS[workload])
        setup = module.setup

        def patched(seed, size, memory):
            state = setup(seed, size, memory)
            for key, value in state_overrides.items():
                setattr(state, key, value)
            return state

        module.setup = patched
    try:
        report = run.run(workload, 5, SECONDS, trace, size="small")
    finally:
        if state_overrides:
            module.setup = setup
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    emitted = {name: metric["unit"] for name, metric in report["metrics"].items()}
    check(emitted == declared, f"{workload} trace={int(trace)}: every {kind} metric emitted with its unit")
    check(
        all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in report["metrics"].values()),
        f"{workload} trace={int(trace)}: every value is a finite number",
    )
    if trace:
        parts = report["split"]
        total = sum(parts["by_category"].values())
        check(
            math.isclose(total, parts["wall_s"], rel_tol=1e-9),
            f"{workload}: layer self times + residual = traced wall ({total:.6f} s vs {parts['wall_s']:.6f} s)",
        )
    return report


def main() -> int:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check(
        sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
        "BENCHMARK.json lists exactly the benchmark's workloads",
    )
    check_split_rules()
    for workload in run.WORKLOADS:
        check_run(workload, False, spec)
        check_run(workload, True, spec)
    report = check_run("serve-stream", False, spec)
    check(report["failed"] == 0 and report["correct"], "serve-stream: clean run has no failures")
    report = check_run("serve-stream", False, spec, corrupt=True)
    mismatches = report["extra"]["bit_identity_mismatches"]
    check(
        mismatches > 0 and report["failed"] >= mismatches,
        f"serve-stream: corrupted estimates counted as failures ({mismatches} mismatches)",
    )
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
