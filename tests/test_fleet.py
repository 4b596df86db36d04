"""Fleet/scalar equivalence: the SoA core against the reference Server.

The vectorized :class:`FleetServer` claims lane ``i`` reproduces
``Server(config, workload, seeds[i])`` exactly for counters and energy
(elementwise ufuncs are element-independent; order-sensitive reductions
stay sequential per lane), with one tolerance-bounded exception: the
DAQ's sinusoidal gain drift uses ``np.sin`` where the scalar path uses
``math.sin``.  These tests pin both halves of that contract, plus the
integrations that ride on it (cluster, sweep lane-grouping).  The
scalar reference is :class:`tests.fleet_oracle.ScalarFleet`, one real
``Server`` per lane behind the fleet API.
"""

import numpy as np
import pytest

import repro.cluster
import repro.simulator.fleet
from repro.cluster import Cluster, PowerAwareManager, StaticManager, diurnal_demand
from repro.core.events import Subsystem
from repro.exec import SweepSpec, sweep_specs
from repro.simulator.config import fast_config
from repro.simulator.fleet import FleetServer, _ThreadTerms, simulate_fleet
from repro.simulator.system import Server, simulate_workload
from repro.workloads.base import Phase, PhaseBehavior, ThreadPlan, WorkloadSpec
from repro.workloads.registry import get_workload
from tests.conftest import TEST_SEED
from tests.fleet_oracle import ScalarFleet

SEED = 11
N_TICKS = 300

#: Documented epsilon for the one reordered measurement path (DAQ
#: drift via np.sin); everything else is asserted bit-exact.
DAQ_RTOL = 1e-9
DAQ_ATOL = 1e-12


def _scalar_rows(server):
    return server.counters._rows


def _assert_lane_matches_server(view, server, exact_power=True):
    """Counters, energy account and process stats of one lane vs Server."""
    assert view.now_s == server.now_s
    assert _scalar_rows(view) == _scalar_rows(server)
    for subsystem in Subsystem:
        assert view.energy._energy_j[subsystem] == server.energy._energy_j[subsystem]
    assert set(view.process_stats) == set(server.process_stats)
    for k, stats in server.process_stats.items():
        lane_stats = view.process_stats[k]
        assert lane_stats.runtime_s == stats.runtime_s
        assert lane_stats.executed_uops == stats.executed_uops
        assert lane_stats.fetched_uops == stats.fetched_uops
        assert lane_stats.bus_transactions == stats.bus_transactions
    assert view.sampler.n_samples == server.sampler.n_samples


class TestCompatScalarMode:
    """The scalar oracle the equivalence tests compare against."""

    def test_every_lane_bit_identical(self):
        """ScalarFleet runs real Servers: exact on every surface."""
        config = fast_config()
        workload = get_workload("gcc")
        seeds = [SEED + i for i in range(3)]
        fleet = ScalarFleet(config, workload, seeds)
        servers = [Server(config, workload, seed=s) for s in seeds]
        fleet_energy = fleet.run_ticks(N_TICKS)
        for lane, server in enumerate(servers):
            assert fleet_energy[lane] == server.run_ticks(N_TICKS)
            _assert_lane_matches_server(fleet.lane(lane), server)

    def test_compat_run_power_bit_identical(self, monkeypatch):
        """simulate_fleet over the oracle reproduces simulate_workload
        exactly, DAQ included."""
        monkeypatch.setattr(repro.simulator.fleet, "FleetServer", ScalarFleet)
        runs = simulate_fleet(
            get_workload("gcc"), 40.0, seeds=(5,), config=fast_config()
        )
        reference = simulate_workload(
            get_workload("gcc"), 40.0, seed=5, config=fast_config()
        )
        run = runs[0]
        for subsystem in run.power.subsystems:
            assert np.array_equal(
                run.power.power(subsystem), reference.power.power(subsystem)
            )


class TestVectorLaneEquivalence:
    def test_every_lane_matches_its_scalar_server(self):
        """Default (vector) mode: counters/energy exact per lane."""
        config = fast_config()
        workload = get_workload("SPECjbb")
        seeds = [SEED + i for i in range(4)]
        fleet = FleetServer(config, workload, seeds)
        fleet_energy = fleet.run_ticks(N_TICKS)
        for lane, seed in enumerate(seeds):
            server = Server(config, workload, seed=seed)
            assert fleet_energy[lane] == server.run_ticks(N_TICKS)
            _assert_lane_matches_server(fleet.lane(lane), server)

    @pytest.mark.parametrize("workload", ["gcc", "mcf", "DiskLoad", "idle"])
    def test_lane0_bit_identity_across_workloads(self, workload):
        """The acceptance gate: lane 0 reproduces Server.run_ticks."""
        config = fast_config()
        spec = get_workload(workload)
        fleet = FleetServer(config, spec, [SEED, SEED + 1])
        server = Server(config, spec, seed=SEED)
        assert fleet.run_ticks(N_TICKS)[0] == server.run_ticks(N_TICKS)
        _assert_lane_matches_server(fleet.lane(0), server)

    def test_measured_run_tolerance_bounded(self):
        """simulate_fleet vs simulate_workload: counters exact, DAQ
        power within the documented np.sin/math.sin epsilon."""
        seeds = (5, 9)
        runs = simulate_fleet(
            get_workload("gcc"), 40.0, seeds=seeds, config=fast_config()
        )
        for run, seed in zip(runs, seeds):
            reference = simulate_workload(
                get_workload("gcc"), 40.0, seed=seed, config=fast_config()
            )
            assert run.seed == reference.seed
            assert run.metadata["base_seed"] == seed
            for event in reference.counters.events:
                assert np.array_equal(
                    run.counters.per_cpu(event),
                    reference.counters.per_cpu(event),
                )
            for subsystem in reference.power.subsystems:
                assert np.allclose(
                    run.power.power(subsystem),
                    reference.power.power(subsystem),
                    rtol=DAQ_RTOL,
                    atol=DAQ_ATOL,
                )

    def test_lane_out_of_range(self):
        fleet = FleetServer(fast_config(), get_workload("gcc"), [1, 2])
        with pytest.raises(IndexError):
            fleet.lane(2)

    def test_set_lane_threads_checks_lane(self):
        """A negative lane must not wrap around to the last lane."""
        fleet = FleetServer(fast_config(), get_workload("SPECjbb"), [1, 2, 3])
        for lane in (-1, 3):
            with pytest.raises(IndexError, match="out of range"):
                fleet.set_lane_threads(lane, 0)
        assert fleet._enabled.all()


class TestRngStreamIndependence:
    def test_lane_trace_unchanged_by_fleet_width(self):
        """Lane i's results depend on seeds[i] only, not on the width."""
        config = fast_config()
        workload = get_workload("SPECjbb")
        narrow = FleetServer(config, workload, [SEED, SEED + 7])
        wide = FleetServer(
            config, workload, [SEED + 3, SEED + 7, SEED + 1, SEED + 4, SEED + 9]
        )
        narrow_energy = narrow.run_ticks(N_TICKS)
        wide_energy = wide.run_ticks(N_TICKS)
        # seeds[1] of the narrow fleet == seeds[1] of the wide fleet
        assert narrow_energy[1] == wide_energy[1]
        assert _scalar_rows(narrow.lane(1)) == _scalar_rows(wide.lane(1))
        for subsystem in Subsystem:
            assert (
                narrow.lane(1).energy._energy_j[subsystem]
                == wide.lane(1).energy._energy_j[subsystem]
            )


class TestFoldOrder:
    """The kernel's thread and package folds are ``np.add.reduce`` over
    a leading axis.  They are bit-exact with the scalar accumulators
    only because numpy adds a leading axis's rows one at a time, in
    index order, when the other axes hold more than one element
    (pairwise summation applies only along the innermost axis).  A
    numpy release that changes this fails here first."""

    @staticmethod
    def _terms(rng, shape):
        # Magnitudes spread over 16 decades, so any reordering of the
        # adds changes the rounding; a third of the terms are +-0.0.
        terms = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        zeros = rng.random(shape) < 0.33
        terms[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        return terms

    @staticmethod
    def _sequential(terms):
        total = np.zeros(terms.shape[1:])
        for row in terms:
            total += row
        return total

    @pytest.mark.parametrize("width", [1, 44, 1024])
    @pytest.mark.parametrize(
        "shape",
        [(1, 17, 4), (8, 17, 4), (16, 17, 4), (4, 8)],
        ids=["thr1", "thr8", "thr16", "pkg"],
    )
    def test_leading_axis_reduce_is_a_sequential_fold(self, shape, width):
        rng = np.random.default_rng(width + sum(shape))
        for terms in (
            self._terms(rng, shape + (width,)),
            np.full(shape + (width,), -0.0),
        ):
            expected = self._sequential(terms).view(np.uint64).tolist()
            out = np.empty(terms.shape[1:])
            np.add.reduce(terms, axis=0, out=out)
            assert out.view(np.uint64).tolist() == expected
            folded = np.add.reduce(terms, axis=0)
            assert folded.view(np.uint64).tolist() == expected

    @pytest.mark.parametrize("width", [1, 44, 1024])
    @pytest.mark.parametrize("n_threads", [1, 6, 8, 16])
    def test_slot_fold_is_the_thread_order_fold(self, n_threads, width):
        """The kernel folds each package's occupied SMT slots, padded
        with a zero row, instead of every thread: bit-equal to adding
        the package's running threads in thread order into +0.0."""
        rng = np.random.default_rng(31 * width + n_threads)
        plan = ThreadPlan(phases=(Phase(1.0, PhaseBehavior()),))
        workload = WorkloadSpec("fold", (plan,) * n_threads)
        fleet = FleetServer(fast_config(), workload, list(range(width)))
        n_pkg = fleet._n_pkg
        terms = _ThreadTerms(fleet, fleet._cycles)
        position = np.zeros((n_threads, width))
        runm = rng.random((n_threads, width)) < 0.7
        for _ in range(2):
            # The first refresh places the running threads and builds
            # every lane; the second rebuilds only the lanes whose
            # mask changed.  (Empty packages divide by zero, as in
            # the kernel, whose errstate this replicates.)
            with np.errstate(divide="ignore"):
                terms.refresh(runm, position)
            affinity = fleet._affinity
            for contrib in (
                self._terms(rng, (n_threads, 17, width)),
                np.full((n_threads, 17, width), -0.0),
            ):
                expected = np.zeros((17, n_pkg, width))
                for k in range(n_threads):
                    lanes = np.nonzero(runm[k])[0]
                    expected[:, affinity[k, lanes], lanes] += contrib[k][:, lanes]
                terms.contrib[:n_threads] = contrib
                acc = np.empty((17, n_pkg, width))
                terms.fold(acc)
                assert (
                    acc.view(np.uint64).tolist()
                    == expected.view(np.uint64).tolist()
                )
            runm = runm.copy()
            runm[:, rng.random(width) < 0.3] = rng.random(n_threads)[:, None] < 0.5


def _short_phase_workload(loop: "bool | None") -> WorkloadSpec:
    """Six threads whose sub-second phases and staggered starts make
    runs, phase changes and file syncs land on many different ticks.

    ``loop=None`` mixes looping (odd) and non-looping (even) threads.
    """
    busy = PhaseBehavior(
        uops_per_cycle=1.6,
        l3_load_misses_per_kuop=3.0,
        cache_pressure=0.8,
        disk_write_bps=4.0e6,
        net_rx_bps=2.0e6,
    )
    syncing = PhaseBehavior(
        uops_per_cycle=0.7,
        disk_write_bps=8.0e6,
        sync_file=True,
        blocking_fraction=0.4,
    )
    waiting = PhaseBehavior(
        uops_per_cycle=0.3, blocking_fraction=0.7, net_tx_bps=1.0e6
    )
    threads = tuple(
        ThreadPlan(
            phases=(
                Phase(0.13 + 0.02 * k, busy, "busy"),
                Phase(0.07, syncing, "sync"),
                Phase(0.05 + 0.01 * k, waiting, "wait"),
            ),
            start_time_s=0.04 * k,
            loop=bool(k % 2) if loop is None else loop,
        )
        for k in range(6)
    )
    return WorkloadSpec("short-phases", threads, variability=0.3)


class TestThreadTermRebuilds:
    """The kernel caches each lane's placement- and phase-derived
    thread terms and rebuilds them only for lanes whose run mask or
    phase changed; lanes that change on different ticks must still
    match their scalar servers exactly."""

    @pytest.mark.parametrize("loop", [False, None], ids=["nonloop", "mixed"])
    def test_nonlooping_plans_finish_mid_batch(self, loop):
        config = fast_config()
        workload = _short_phase_workload(loop)
        seeds = [SEED + i for i in range(3)]
        fleet = FleetServer(config, workload, seeds)
        oracle = ScalarFleet(config, workload, seeds)
        for n_ticks in (20, 45, 15):
            assert np.array_equal(
                fleet.run_ticks(n_ticks), oracle.run_ticks(n_ticks)
            )
        nonloop = ~fleet._loop_col[:, 0]
        # Every non-looping thread finished, the first ones well
        # inside the 45-tick batch.
        assert fleet._finished[nonloop].all()
        assert not fleet._finished[~nonloop].any()
        for lane in range(len(seeds)):
            _assert_lane_matches_server(fleet.lane(lane), oracle.lane(lane))

    def test_desynchronised_lanes_match_oracle(self):
        """Frozen batches, per-lane thread counts and pstates leave the
        lanes' clocks, runs and phases apart, so one long batch starts
        threads and crosses phase bounds on different ticks per lane."""
        config = fast_config()
        workload = _short_phase_workload(True)
        seeds = [SEED + i for i in range(4)]
        fleet = FleetServer(config, workload, seeds)
        oracle = ScalarFleet(config, workload, seeds)

        def drive(f):
            energies = [f.run_ticks(7, active=[True, False, True, True])]
            f.set_lane_threads(2, 3)
            f.set_lane_pstates([0, 2, 1, 3])
            energies.append(f.run_ticks(11, active=[True, True, True, False]))
            f.set_lane_threads(2, 6)
            f.set_lane_threads(0, 4)
            energies.append(f.run_ticks(150))
            return energies

        for got, want in zip(drive(fleet), drive(oracle)):
            assert np.array_equal(got, want)
        assert len({fleet.lane(i).now_s for i in range(len(seeds))}) == 3
        assert fleet.now_s == oracle.now_s
        for lane in range(len(seeds)):
            _assert_lane_matches_server(fleet.lane(lane), oracle.lane(lane))

    def test_mid_batch_enable_flip_is_honoured(self):
        """A monitor that disables threads mid-batch acts from the next
        tick on, exactly as if the batch had been split there."""
        config = fast_config()
        workload = _short_phase_workload(True)
        seeds = [SEED + i for i in range(3)]

        class _Flip:
            tick = None

            def on_window(self, view, now_s):
                if self.tick is None:
                    self.tick = round(now_s / config.tick_s)
                    flipped.set_lane_threads(1, 2)

        flipped = FleetServer(config, workload, seeds)
        flip = _Flip()
        flipped.attach_monitor(flip, lane=1)
        flipped.run_ticks(250)
        assert flip.tick is not None and 0 < flip.tick < 250

        split = FleetServer(config, workload, seeds)
        split.run_ticks(flip.tick)
        split.set_lane_threads(1, 2)
        split.run_ticks(250 - flip.tick)
        for name in FleetServer._STATE_NAMES:
            assert np.array_equal(getattr(flipped, name), getattr(split, name))
        for lane in range(len(seeds)):
            assert _scalar_rows(flipped.lane(lane)) == _scalar_rows(split.lane(lane))


class _RecordingMonitor:
    """Minimal live monitor: records every window pulse it sees."""

    def __init__(self):
        self.attached = None
        self.pulses = []

    def on_attach(self, server):
        self.attached = server

    def on_window(self, server, pulse_s):
        self.pulses.append(
            (pulse_s, server.sampler.n_samples, sum(server.energy._energy_j.values()))
        )


class TestMonitoredRunIdentity:
    def test_fleet_monitor_sees_scalar_pulses(self):
        """attach_monitor on lane 0 fires the same windows, same state,
        as the same monitor attached to the scalar Server."""
        config = fast_config()
        workload = get_workload("gcc")

        server = Server(config, workload, seed=SEED)
        scalar_monitor = _RecordingMonitor()
        server.attach_monitor(scalar_monitor)
        server.run_ticks(N_TICKS)

        fleet = FleetServer(config, workload, [SEED, SEED + 1])
        fleet_monitor = _RecordingMonitor()
        fleet.attach_monitor(fleet_monitor, lane=0)
        fleet.run_ticks(N_TICKS)

        assert fleet_monitor.attached is not None
        assert fleet_monitor.pulses  # windows actually closed
        assert fleet_monitor.pulses == scalar_monitor.pulses

    def test_monitored_run_bit_identical_to_unmonitored(self):
        """The monitor only reads: attaching one changes nothing."""
        config = fast_config()
        workload = get_workload("gcc")
        plain = FleetServer(config, workload, [SEED, SEED + 1])
        monitored = FleetServer(config, workload, [SEED, SEED + 1])
        monitored.attach_monitor(_RecordingMonitor(), lane=0)
        plain_energy = plain.run_ticks(N_TICKS)
        monitored_energy = monitored.run_ticks(N_TICKS)
        assert np.array_equal(plain_energy, monitored_energy)
        assert _scalar_rows(plain.lane(0)) == _scalar_rows(monitored.lane(0))


class _ScriptedManager:
    """Deterministic DVFS + nap + load schedule for fleet/scalar equality."""

    def __init__(self):
        self.t = 0

    def place(self, cluster, demand):
        t = self.t
        self.t += 1
        n0, n1, n2 = cluster.nodes
        for node in cluster.nodes:
            node.power_up()
        if t == 3:
            n2.set_load(0)
            n2.nap()
        if t == 6:
            n2.wake()
        for node in cluster.nodes:
            if node.available:
                node.set_load(0)
        n0.set_pstate(min(t // 2, 3))
        n1.set_pstate(3 - min(t // 3, 3))
        loads = [5, 3, 2]
        remaining = demand
        for node, want in zip(cluster.nodes, loads):
            if node.available:
                take = min(want, remaining)
                node.set_load(take)
                remaining -= take


_DIURNAL = diurnal_demand(
    45, peak_threads=14, trough_threads=2, period_s=60.0, seed=5
)


class TestClusterEngineEquivalence:
    @pytest.mark.parametrize(
        "manager_factory, seed, demand",
        [
            (_ScriptedManager, TEST_SEED, [8, 9, 10, 7, 6, 8, 9, 10, 10, 9]),
            (StaticManager, 123, _DIURNAL),
            (lambda: PowerAwareManager(headroom_threads=6), 123, _DIURNAL),
        ],
        ids=["scripted", "static", "power-aware"],
    )
    def test_fleet_engine_bit_exact(
        self, monkeypatch, manager_factory, seed, demand
    ):
        """Per-lane DVFS shifts, naps, freezes and both managers keep
        the fleet cluster bit-identical to one scalar server per node."""
        fleet = Cluster(n_nodes=3, seed=seed).run(demand, manager_factory())
        with monkeypatch.context() as patch:
            patch.setattr(repro.cluster, "FleetServer", ScalarFleet)
            scalar = Cluster(n_nodes=3, seed=seed).run(
                demand, manager_factory()
            )
        assert scalar.demand == fleet.demand
        assert scalar.served == fleet.served
        assert scalar.nodes_on == fleet.nodes_on
        assert scalar.power_w == fleet.power_w
        assert scalar.node_power_w == fleet.node_power_w


class TestSweepFleetGrouping:
    def test_grouped_lanes_match_per_spec_path(self):
        specs = [
            SweepSpec(
                workload="gcc", seed=s, duration_s=20.0, config=fast_config()
            )
            for s in (3, 4, 5)
        ]
        # A singleton group: must fall through to the per-spec path.
        specs.append(
            SweepSpec(workload="idle", seed=3, duration_s=20.0, config=fast_config())
        )
        grouped = sweep_specs(specs, n_workers=1)
        # One singleton sweep per spec: the per-spec reference path.
        reference = [sweep_specs([spec], n_workers=1).runs[0] for spec in specs]
        assert len(grouped.runs) == len(reference)
        for fleet_run, scalar_run in zip(grouped.runs, reference):
            assert fleet_run.workload == scalar_run.workload
            assert fleet_run.seed == scalar_run.seed
            assert fleet_run.metadata == scalar_run.metadata
            for event in scalar_run.counters.events:
                assert np.array_equal(
                    fleet_run.counters.per_cpu(event),
                    scalar_run.counters.per_cpu(event),
                )
            for subsystem in scalar_run.power.subsystems:
                assert np.allclose(
                    fleet_run.power.power(subsystem),
                    scalar_run.power.power(subsystem),
                    rtol=DAQ_RTOL,
                    atol=DAQ_ATOL,
                )

    def test_warmup_windows_applied_in_fleet_path(self):
        full = sweep_specs(
            [SweepSpec(workload="gcc", seed=3, duration_s=20.0, config=fast_config())],
            n_workers=1,
        )
        trimmed = sweep_specs(
            [
                SweepSpec(
                    workload="gcc",
                    seed=s,
                    duration_s=20.0,
                    config=fast_config(),
                    warmup_windows=3,
                )
                for s in (3, 4)
            ],
            n_workers=1,
        )
        assert all(
            run.n_samples == full.runs[0].n_samples - 3 for run in trimmed.runs
        )
