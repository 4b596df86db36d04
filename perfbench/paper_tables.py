"""``paper-tables``: the paper's own loop at its committed configuration.

Simulates the twelve paper workloads (seed 7, 300 s each, 10 ms tick)
through ``ExperimentContext`` with a cold, disabled run cache and at
most ``nproc`` sweep workers, trains the paper suite and builds Tables
3 and 4.  The workload seed orders the sweep's specs, which decides
which long runs end up as stragglers; the tables themselves are the
committed configuration's, so they repeat exactly.  The scalar
simulator and the sweep engine do almost all the work; the fleet, dc
and serve layers are not used.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass

import harness
from tracing import Recorder, inclusive, split

IMPORTS = ("repro.analysis.experiments",)

#: The committed configuration's simulation seed.
PAPER_SEED = 7

SIZES = {
    "full": {"duration_s": 300.0},
    "small": {"duration_s": 12.0},
}


#: Every ``SweepResult`` of the current unit (retries, cache hits).
_SWEEPS: list = []


@dataclass
class State:
    seed: int
    duration_s: float
    workers: int


def setup(seed: int, size: str, memory) -> State:
    harness.import_probe(IMPORTS, memory)
    from repro.analysis import experiments

    # Cold-start guard: whatever REPRO_CACHE_DIR says, this workload
    # never reads or writes the run cache.
    os.environ.pop("REPRO_CACHE_DIR", None)
    state = State(
        seed=seed,
        duration_s=SIZES[size]["duration_s"],
        workers=min(os.cpu_count() or 1, len(experiments.PAPER_WORKLOADS)),
    )
    _capture_sweeps(experiments)
    return state


def _capture_sweeps(experiments) -> None:
    original = experiments.sweep_specs
    if getattr(original, "_perfbench_capture", False):
        return

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        _SWEEPS.append(result)
        return result

    capturing._perfbench_capture = True
    experiments.sweep_specs = capturing


def _unit(state: State, index: int) -> dict:
    from repro.analysis import experiments
    from repro.core.events import SUBSYSTEMS, Subsystem
    from repro.core.validation import average_error
    from repro.simulator.config import SystemConfig

    # A fresh context per unit: nothing may be served from memory.
    context = experiments.ExperimentContext(
        config=SystemConfig(tick_s=0.01),
        seed=PAPER_SEED,
        duration_s=state.duration_s,
        cache_dir=None,
        n_workers=state.workers,
    )
    del _SWEEPS[:]
    started = time.perf_counter()
    order = random.Random(state.seed * 1000 + index).sample(
        experiments.PAPER_WORKLOADS, len(experiments.PAPER_WORKLOADS)
    )
    context.runs(tuple(order))
    table3 = experiments.table3_integer_errors(context)
    table4 = experiments.table4_fp_errors(context)
    wall = time.perf_counter() - started

    problems = []
    if context.cache.enabled or context.cache.stats.hits:
        problems.append("run cache was enabled or hit: the run is not cold")
    attempted = failed = 0
    for result in _SWEEPS:
        attempted += len(result.runs)
        failed += len(result.failed) + result.retries
        if result.cache_stats_hits:
            problems.append(f"{result.cache_stats_hits} run-cache hit(s)")
    measured, gaps = [], []
    for table in (table3, table4):
        for row, paper in zip(table.rows[:-1], table.paper_rows[:-1]):
            measured.extend(row[1:])
            gaps.extend(abs(m - p) for m, p in zip(row[1:], paper[1:]))
    if len(measured) != 60:
        problems.append(f"expected 60 Table 3/4 cells, got {len(measured)}")
    cpu = 1 + SUBSYSTEMS.index(Subsystem.CPU)
    worst = max(table3.rows[:-1], key=lambda row: row[cpu])[0]
    if worst != "mcf":
        problems.append(f"Table 3 worst CPU case is {worst}, not mcf")
    mcf = context.run("mcf")
    truth = mcf.power.power(Subsystem.MEMORY)
    bus = average_error(context.paper_suite().predict(Subsystem.MEMORY, mcf.counters), truth)
    l3 = average_error(context.l3_suite().predict(Subsystem.MEMORY, mcf.counters), truth)
    if not bus < l3:
        problems.append(f"bus memory model ({bus:.2f}%) does not beat L3 ({l3:.2f}%) on mcf")
    return {
        "wall_s": wall,
        "sim_s": state.duration_s * len(experiments.PAPER_WORKLOADS),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "model_error_pct": statistics.fmean(measured),
        "paper_error_gap_pp": statistics.fmean(gaps),
        "workers": max((r.n_workers for r in _SWEEPS), default=1),
        "cache_hits": sum(r.cache_stats_hits for r in _SWEEPS),
        "retries": sum(r.retries for r in _SWEEPS),
    }


def measure(state: State, seconds: float) -> dict:
    units = harness.units_until(seconds, lambda i: _unit(state, i))
    walls = [u["wall_s"] for u in units]
    first = units[0]
    return {
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "problems": [p for u in units for p in u["problems"]],
        "metrics": {
            "node_s_per_s": sum(u["sim_s"] for u in units) / sum(walls),
            "model_error_pct": first["model_error_pct"],
            "latency_p50_ms": 1000.0 * statistics.median(walls),
            "latency_tail_ms": 1000.0 * max(walls),
        },
        "extra": {
            "unit": "one paper pass: 12 x 300 s simulated, Tables 3 and 4",
            "latency_tail": "max over passes",
            "passes": len(units),
            "paper_error_gap_pp": first["paper_error_gap_pp"],
            "sweep_workers": first["workers"],
        },
    }


def trace(state: State, seconds: float, recorder: Recorder) -> dict:
    import importlib

    from repro.analysis import experiments
    from repro.core.training import ModelTrainer
    from repro.simulator.system import Server

    # ``repro.exec.sweep`` the attribute is the function; the module:
    sweep_module = importlib.import_module("repro.exec.sweep")

    reference = _unit(state, 0)
    _wrap_sweep(experiments, recorder)
    recorder.wrap_pool_task(sweep_module, "_pool_run")
    recorder.wrap(Server, "run_ticks", "simulator.run_ticks")
    recorder.wrap(ModelTrainer, "train", "core.train")
    recorder.wrap(experiments, "validate_suite", "core.validate")
    recorder.wrap(experiments, "table3_integer_errors", "analysis.tables")
    recorder.wrap(experiments, "table4_fp_errors", "analysis.tables")
    recorder.active = True
    try:
        with recorder.span("bench.unit"):
            unit = _unit(state, 0)
    finally:
        recorder.active = False
        recorder.unwrap_all()
    spans = recorder.spans
    parts = split(spans)
    sweep_wall, _ = inclusive(spans, "exec.sweep")
    busy, _ = inclusive(spans, "exec.worker")
    ticks, _ = inclusive(spans, "simulator.run_ticks")
    return {
        "split": parts,
        "overhead_s": parts["wall_s"] - reference["wall_s"],
        "problems": unit["problems"],
        "attempted": unit["attempted"],
        "failed": unit["failed"],
        "metrics": {
            "simulator.run_ticks_s": ticks / unit["sim_s"],
            "exec.sweep_wall_s": sweep_wall,
            "exec.worker_busy_s": busy,
            "exec.parallel_efficiency": busy / (sweep_wall * unit["workers"])
            if sweep_wall
            else 0.0,
            "exec.cache_hits": unit["cache_hits"],
            "exec.retries": unit["retries"],
            "core.train_s": inclusive(spans, "core.train")[0],
            "core.validate_s": inclusive(spans, "core.validate")[0],
            "analysis.tables_s": inclusive(spans, "analysis.tables")[0],
        },
    }


def _wrap_sweep(experiments, recorder: Recorder) -> None:
    """``exec.sweep`` span whose id forked workers adopt as parent."""
    original = experiments.sweep_specs

    def traced(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        token = recorder.open("exec.sweep")
        recorder.fork_parent = token[0]
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(token)
            recorder.collect_spills()

    recorder.patch(experiments, "sweep_specs", traced)
