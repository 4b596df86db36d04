"""``dc-regions``: a ``repro.dc.run_scenario`` comparison.

Runs the estimated-sensor, true-sensor and static scenarios the way
``repro-power datacenter`` does (diurnal zones, a flash crowd, a zone
outage, a telemetry store), over unequal zones: one wide zone stresses
the fleet kernel's per-lane cost, the narrow ones its fixed per-zone
dispatch cost.  ``simulator.fleet`` does almost all the work; the
scalar simulator and the serve layer are not used.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import harness
from tracing import Recorder, inclusive, split

IMPORTS = ("repro.dc", "repro.obs.tsdb")

SIZES = {
    # 44 nodes in three unequal zones, 34 simulated seconds per run:
    # 102 controller seconds per scenario, enough for a p90.
    "full": {"zones": (32, 8, 4), "duration_s": 34, "calibration_s": 6.0},
    "small": {"zones": (4, 2), "duration_s": 8, "calibration_s": 4.0},
}

#: ``repro-power datacenter`` defaults.
CAP_FRAC = 0.6
USERS_PER_THREAD = 25_000.0

#: The sensor bank is the deployed model, calibrated once; the traffic
#: is the scenario.  Both use the committed seed, so the workload seed
#: varies the simulated nodes (the clusters' seeds) and leaves the
#: scenario, and with it ``dc_objective_mj``, comparable across seeds.
CALIBRATION_SEED = 7
TRAFFIC_SEED = 7

#: Percentile reported as ``latency_tail_ms`` (102 controller seconds
#: leave 10 beyond it).
TAIL_PERCENTILE = 90.0


#: The current unit's scenario reports, and its controller-second
#: stamps (``None`` precedes each scenario run's start stamp).
_REPORTS: list = []
_SECONDS: list = []
#: Per-node |estimate - true| / true (%) of every node-second the
#: estimated-sensor run senses, and the zone-seconds whose bank
#: predictions could not be matched to their nodes.
_NODE_ERRORS: list = []
_UNMATCHED: list = []
#: (p-state, per-node totals) of each bank prediction made while one
#: zone is sensed.
_PREDICTIONS: list = []


@dataclass
class State:
    seed: int
    size: dict
    config: object
    calibration: object
    store_root: str


def setup(seed: int, size: str, memory) -> State:
    harness.import_probe(IMPORTS, memory)
    from repro.dc import train_zone_bank
    from repro.simulator.config import SystemConfig

    config = SystemConfig(tick_s=0.01)
    spec = SIZES[size]
    calibration = train_zone_bank(
        config, seed=CALIBRATION_SEED, duration_s=spec["calibration_s"]
    )
    state = State(
        seed=seed,
        size=spec,
        config=config,
        calibration=calibration,
        store_root=os.path.join(harness.OUT, f"dc-store-{os.getpid()}"),
    )
    _install_probes()
    return state


def _install_probes() -> None:
    """Keep each run's report and stamp each controller second.

    ``Datacenter.run`` feeds the drift monitor exactly once per
    simulated second, after every zone has stepped and been sensed, so
    the gap between consecutive ``observe`` calls is one controller
    second's latency.
    """
    from repro.core.dvfs import DvfsSuiteBank
    from repro.dc import datacenter
    from repro.obs.fleet import FleetDriftMonitor

    if getattr(datacenter.Datacenter.run, "_perfbench_probe", False):
        return
    run, observe = datacenter.Datacenter.run, FleetDriftMonitor.observe
    estimate_zone = datacenter.Datacenter._estimate_zone_w
    predict_total = DvfsSuiteBank.predict_total

    def probed_run(self, duration_s):
        _SECONDS.append(None)
        _SECONDS.append(time.perf_counter())
        report = run(self, duration_s)
        _REPORTS.append(report)
        return report

    def probed_observe(self, *args, **kwargs):
        result = observe(self, *args, **kwargs)
        _SECONDS.append(time.perf_counter())
        return result

    def probed_predict_total(self, pstate, trace):
        totals = predict_total(self, pstate, trace)
        _PREDICTIONS.append((int(pstate), totals))
        return totals

    def probed_estimate_zone(self, cluster, node_powers, stepped):
        del _PREDICTIONS[:]
        estimated_w = estimate_zone(self, cluster, node_powers, stepped)
        errors = _node_errors(cluster, node_powers, stepped, estimated_w)
        if errors is None:
            _UNMATCHED.append(1)
        else:
            _NODE_ERRORS.extend(errors)
        return estimated_w

    probed_run._perfbench_probe = True
    datacenter.Datacenter.run = probed_run
    FleetDriftMonitor.observe = probed_observe
    datacenter.Datacenter._estimate_zone_w = probed_estimate_zone
    DvfsSuiteBank.predict_total = probed_predict_total


def _node_errors(cluster, node_powers, stepped, estimated_w) -> "list[float] | None":
    """Each sensed node's error in one zone-second.

    The zone estimate predicts the nodes that stepped one p-state at a
    time, in ascending p-state order and node order within one, and adds
    the parked nodes' known watts.  Returns ``None`` when the bank
    predictions do not add up to the zone estimate that way.
    """
    by_pstate: "dict[int, list[int]]" = {}
    parked_w = 0.0
    for i, node in enumerate(cluster.nodes):
        if stepped[i]:
            by_pstate.setdefault(int(node.pstate), []).append(i)
        else:
            parked_w += node_powers[i]
    if [pstate for pstate, _ in _PREDICTIONS] != sorted(by_pstate):
        return None
    errors, total_w = [], parked_w
    for pstate, totals in _PREDICTIONS:
        nodes = by_pstate[pstate]
        if len(nodes) != len(totals):
            return None
        for i, estimate in zip(nodes, totals):
            if node_powers[i] > 0:
                errors.append(abs(float(estimate) - node_powers[i]) / node_powers[i] * 100.0)
        total_w += float(sum(totals))
    if not math.isclose(total_w, estimated_w, rel_tol=1e-9):
        return None
    return errors


def _traffic(state: State, seed: int):
    from repro.dc import FlashCrowd, TrafficModel, ZoneOutage, ZoneSpec
    from repro.workloads.registry import get_workload

    duration = state.size["duration_s"]
    sizes = state.size["zones"]
    capacity = len(get_workload("SPECjbb").threads)
    zones = tuple(
        ZoneSpec(
            f"zone{i}",
            n,
            0.75 * n * capacity * USERS_PER_THREAD,
            phase_s=i * duration / (2.0 * len(sizes)),
        )
        for i, n in enumerate(sizes)
    )
    crowds = (
        FlashCrowd(
            start_s=0.2 * duration,
            duration_s=0.15 * duration,
            magnitude=1.7,
            zone=zones[0].name,
            ramp_s=max(3.0, 0.03 * duration),
        ),
    )
    outages = (ZoneOutage(zones[-1].name, 0.55 * duration, 0.12 * duration),)
    return TrafficModel(
        zones,
        users_per_thread=USERS_PER_THREAD,
        period_s=float(duration),
        flash_crowds=crowds,
        outages=outages,
        seed=seed,
    )


def _unit(state: State, index: int) -> dict:
    from repro.dc import datacenter
    from repro.obs.tsdb import TSDB

    seed = state.seed + 1000 * index
    duration = state.size["duration_s"]
    n_nodes = sum(state.size["zones"])
    traffic = _traffic(state, TRAFFIC_SEED + index)
    cap_w = CAP_FRAC * state.calibration.reference_peak_w * n_nodes
    shutil.rmtree(state.store_root, ignore_errors=True)
    store = TSDB(state.store_root)
    del _REPORTS[:], _SECONDS[:], _NODE_ERRORS[:], _UNMATCHED[:]
    try:
        started = time.perf_counter()
        doc = datacenter.run_scenario(
            traffic,
            cap_w,
            duration,
            config=state.config,
            seed=seed,
            calibration=state.calibration,
            store=store,
        )
        wall = time.perf_counter() - started
        persisted = store.query_range(
            "dc_power_watts", {"policy": "subsystem", "sensor": "estimated"}
        )
    finally:
        store.close()
        shutil.rmtree(state.store_root, ignore_errors=True)

    latencies, mark = [], None
    for stamp in _SECONDS:
        if stamp is None:
            mark = None
            continue
        if mark is not None:
            latencies.append(stamp - mark)
        mark = stamp
    problems = []
    if len(_REPORTS) != 3:
        problems.append(f"expected 3 scenario runs, saw {len(_REPORTS)}")
    estimated = _REPORTS[0]
    if (estimated.policy, estimated.sensor) != ("subsystem", "estimated"):
        problems.append("first scenario run is not the estimated-sensor run")
    points = sum(len(series.get("points", ())) for series in persisted)
    if points != duration:
        problems.append(f"store holds {points} estimated-run seconds, expected {duration}")
    if _UNMATCHED or not _NODE_ERRORS:
        problems.append(
            f"per-node estimates of {len(_UNMATCHED)} zone-seconds not matched to their nodes"
        )
    # The error the paper's Eq. 6 scores: per node and second.  The fleet
    # total's error is far smaller, as the nodes' errors partly cancel,
    # and swings with the seed; it is reported as an extra.
    total_errors = [
        abs(est - true) / true * 100.0
        for est, true in zip(estimated.estimated_power_w, estimated.power_w)
        if true > 0
    ]
    return {
        "wall_s": wall,
        "node_s": 3 * n_nodes * duration,
        "attempted": duration,
        "failed": int(doc["subsystem_estimated"]["cap_violations"]),
        "problems": problems,
        "latencies": latencies,
        "model_error_pct": statistics.fmean(_NODE_ERRORS) if _NODE_ERRORS else math.nan,
        "total_error_pct": statistics.fmean(total_errors),
        "node_seconds_scored": len(_NODE_ERRORS),
        "objective_mj": doc["subsystem_estimated"]["objective_j"] / 1e6,
        "regret": doc.get("regret"),
    }


def measure(state: State, seconds: float) -> dict:
    units = harness.units_until(seconds, lambda i: _unit(state, i))
    latencies = [lat for u in units for lat in u["latencies"]]
    first = units[0]
    return {
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "problems": [p for u in units for p in u["problems"]],
        "metrics": {
            "node_s_per_s": sum(u["node_s"] for u in units) / sum(u["wall_s"] for u in units),
            "model_error_pct": first["model_error_pct"],
            "latency_p50_ms": 1000.0 * harness.percentile(latencies, 50),
            "latency_tail_ms": 1000.0 * harness.percentile(latencies, TAIL_PERCENTILE),
        },
        "extra": {
            "unit": "one scenario: estimated, true and static runs",
            "latency_tail": f"p{TAIL_PERCENTILE:g} over {len(latencies)} controller seconds",
            "scenarios": len(units),
            "dc_objective_mj": first["objective_mj"],
            "fleet_total_error_pct": first["total_error_pct"],
            "node_seconds_scored": first["node_seconds_scored"],
            "regret": first["regret"],
        },
    }


def _fit(calls: "list[tuple[float, int, int]]") -> "tuple[float, float]":
    """Least-squares ``seconds / tick = fixed + per_lane * lanes``."""
    xs = [lanes for _, _, lanes in calls]
    ys = [seconds / ticks for seconds, ticks, _ in calls]
    if len(set(xs)) < 2:
        return (statistics.fmean(ys) if ys else 0.0), 0.0
    slope, intercept = statistics.linear_regression(xs, ys)
    return intercept, slope


def trace(state: State, seconds: float, recorder: Recorder) -> dict:
    from repro.cluster import Cluster, StaticManager
    from repro.core.dvfs import DvfsSuiteBank
    from repro.dc import datacenter, policies, traffic
    from repro.obs.fleet import FleetDriftMonitor
    from repro.obs.tsdb import TSDB
    from repro.simulator.fleet import FleetServer

    reference = _unit(state, 0)

    def fleet_attrs(args, kwargs, result):
        active = args[2] if len(args) > 2 else kwargs.get("active")
        lanes = int(active.sum()) if active is not None else args[0].width
        return {"ticks": int(args[1]), "lanes": lanes}

    def rows(args, kwargs, result):
        return {"rows": int(len(result)) if result is not None else 0}

    recorder.wrap(datacenter, "run_scenario", "dc.scenario")
    recorder.wrap(datacenter.Datacenter, "__init__", "dc.build")
    recorder.wrap(datacenter.Datacenter, "run", "dc.run")
    recorder.wrap(traffic.TrafficModel, "demand", "dc.traffic")
    recorder.wrap(policies.SubsystemManager, "request_w", "dc.request_allocate")
    recorder.wrap(policies.BudgetAllocator, "allocate", "dc.request_allocate")
    recorder.wrap(policies.SubsystemManager, "place", "dc.place")
    recorder.wrap(StaticManager, "place", "dc.place")
    recorder.wrap(Cluster, "_step_second", "cluster.step_second")
    recorder.wrap(FleetServer, "run_ticks", "fleet.run_ticks", fleet_attrs)
    recorder.wrap(FleetServer, "read_and_clear_lanes", "fleet.read_and_clear")
    recorder.wrap(DvfsSuiteBank, "predict_total", "core.dvfs_predict", rows)
    recorder.wrap(FleetDriftMonitor, "observe", "obs.fleet_drift")
    recorder.wrap(datacenter.DatacenterReport, "persist", "dc.persist")
    recorder.wrap(TSDB, "flush", "obs.tsdb_flush")
    recorder.active = True
    try:
        with recorder.span("bench.unit"):
            unit = _unit(state, 0)
    finally:
        recorder.active = False
        recorder.unwrap_all()
    spans = recorder.spans
    parts = split(spans)
    fleet_calls = [
        ((s[4] - s[3]) / 1e9, s[7]["ticks"], s[7]["lanes"])
        for s in spans
        if s[2] == "fleet.run_ticks" and s[7]["ticks"]
    ]
    fixed, per_lane = _fit(fleet_calls)
    predict_s, predict_calls = inclusive(spans, "core.dvfs_predict")
    predict_rows = sum(s[7]["rows"] for s in spans if s[2] == "core.dvfs_predict")
    return {
        "split": parts,
        "overhead_s": parts["wall_s"] - reference["wall_s"],
        "problems": unit["problems"],
        "attempted": unit["attempted"],
        "failed": unit["failed"],
        "metrics": {
            "fleet.run_ticks_s": inclusive(spans, "fleet.run_ticks")[0],
            "fleet.calls": len(fleet_calls),
            "fleet.lane_ticks": sum(t * lanes for _, t, lanes in fleet_calls),
            "fleet.fixed_ms_per_tick": 1000.0 * fixed,
            "fleet.us_per_lane_tick": 1e6 * per_lane,
            "fleet.read_and_clear_s": inclusive(spans, "fleet.read_and_clear")[0],
            "core.dvfs_predict_s": predict_s,
            "core.dvfs_rows_per_call": predict_rows / predict_calls if predict_calls else 0.0,
            "dc.place_s": inclusive(spans, "dc.place")[0],
            "dc.request_allocate_s": inclusive(spans, "dc.request_allocate")[0],
            "dc.traffic_s": inclusive(spans, "dc.traffic")[0],
            "obs.fleet_drift_s": inclusive(spans, "obs.fleet_drift")[0],
            "dc.persist_s": inclusive(spans, "dc.persist")[0]
            + inclusive(spans, "obs.tsdb_flush")[0],
        },
    }
