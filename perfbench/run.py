"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``paper-tables``,
``dc-regions``, ``serve-stream`` (see perfbench/README.md).  The set-up
runs several times and ``setup_s`` is its median; the measured part
then runs for about ``--seconds`` (whole units of work, at least one).

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced unit and
reports the per-layer metrics, the layer split of the traced wall time
and the tracing overhead.  Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A full report, stamped with the host fingerprint, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = {
    "paper-tables": "paper_tables",
    "dc-regions": "dc_regions",
    "serve-stream": "serve_stream",
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "node_s_per_s": "node-s/s",
    "model_error_pct": "%",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Layers the traced split reports self time for (``repro`` modules,
#: plus the benchmark's own work and its scheduled idle time).
CATEGORIES = (
    "simulator", "fleet", "cluster", "exec", "core", "analysis",
    "dc", "serve", "obs", "bench", "idle",
)

PER_LAYER = {
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.missing_probes": "count",
    **{f"self.{category}_s": "s" for category in CATEGORIES},
    # paper-tables
    "simulator.run_ticks_s": "s/sim-s",
    "exec.sweep_wall_s": "s",
    "exec.worker_busy_s": "s",
    "exec.parallel_efficiency": "ratio",
    "exec.cache_hits": "count",
    "exec.retries": "count",
    "core.train_s": "s",
    "core.validate_s": "s",
    "analysis.tables_s": "s",
    # dc-regions
    "fleet.run_ticks_s": "s",
    "fleet.calls": "count",
    "fleet.lane_ticks": "count",
    "fleet.fixed_ms_per_tick": "ms",
    "fleet.us_per_lane_tick": "us",
    "fleet.read_and_clear_s": "s",
    "core.dvfs_predict_s": "s",
    "core.dvfs_rows_per_call": "rows/call",
    "dc.place_s": "s",
    "dc.request_allocate_s": "s",
    "dc.traffic_s": "s",
    "obs.fleet_drift_s": "s",
    "dc.persist_s": "s",
    # serve-stream
    "serve.decode_s": "s",
    "serve.ingest_s": "s",
    "serve.queue_high_water": "count",
    "serve.queue_wait_ms": "ms",
    "core.evaluate_s": "s",
    "core.rows_per_evaluate": "rows/call",
    "obs.drift_observe_s": "s",
    "obs.drift_calls": "count",
    "serve.tick_s": "s",
    "obs.tsdb_append_samples": "count",
    "obs.tsdb_flush_s": "s",
    "obs.tsdb_query_range_s": "s",
    "obs.read_p95_ms": "ms",
}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the full report (see ``main``)."""
    import importlib

    from tracing import Recorder

    module = importlib.import_module(WORKLOADS[workload])
    os.makedirs(harness.OUT, exist_ok=True)
    run_id = f"{workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    with harness.MemoryPeak() as memory:
        setup_s, state = harness.timed_setup(
            lambda mem: module.setup(seed, size, mem), memory
        )
        if trace:
            spill = os.path.join(harness.OUT, run_id)
            os.makedirs(spill, exist_ok=True)
            recorder = Recorder(run_id, spill_dir=spill)
            outcome = module.trace(state, seconds, recorder)
            os.rmdir(spill)
        else:
            outcome = module.measure(state, seconds)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "run_id": run_id,
        "fingerprint": harness.fingerprint(),
        "problems": list(outcome["problems"]),
    }
    if trace:
        parts = outcome["split"]
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(outcome["metrics"])
        metrics.update(
            {
                "trace.wall_s": parts["wall_s"],
                "trace.residual_s": parts["by_category"].get("residual", 0.0),
                "trace.overhead_s": outcome["overhead_s"],
                "trace.spans": len(recorder.spans),
                "trace.missing_probes": len(recorder.missing),
            }
        )
        for category in CATEGORIES:
            metrics[f"self.{category}_s"] = parts["by_category"].get(category, 0.0)
        unknown = set(parts["by_category"]) - set(CATEGORIES) - {"residual"}
        if unknown:
            report["problems"].append(f"spans outside the reported layers: {sorted(unknown)}")
        report["split"] = parts
        report["missing_probes"] = recorder.missing
        spans_path = os.path.join(harness.OUT, f"{run_id}.spans.jsonl")
        recorder.dump(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, harness.ROOT)
        units = PER_LAYER
    else:
        metrics = dict(outcome["metrics"])
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = memory.peak_mb
        report["extra"] = outcome["extra"]
        units = END_TO_END
    report["attempted"] = outcome["attempted"]
    report["failed"] = outcome["failed"]
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = memory.peak_mb
    report["metrics"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    report["correct"] = not report["problems"]
    return report


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program source at {os.path.relpath(harness.SRC)}/repro; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, harness.SRC)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(harness.OUT, f"{report['run_id']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=str)
    fp = report["fingerprint"]
    print(
        f"host: {fp['cpu_model']} x{fp['nproc']}, python {fp['python']}, "
        f"numpy {fp['numpy']}, git {fp['git_sha']}, src {fp['src_sha256']}"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:28} {metric['value']:>14.6g} {metric['unit']}")
    if "split" in report:
        parts = report["split"]
        print(f"split of {parts['wall_s']:.3f} s traced wall time:")
        for category, seconds in sorted(parts["by_category"].items(), key=lambda kv: -kv[1]):
            print(f"  {category:12} {seconds:10.4f} s  {100 * seconds / parts['wall_s']:6.2f} %")
    for key, value in sorted(report.get("extra", {}).items()):
        print(f"  {key}: {value}")
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"report: {os.path.relpath(path, harness.ROOT)}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
