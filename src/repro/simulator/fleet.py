"""Structure-of-arrays fleet simulator: many servers per numpy pass.

:class:`FleetServer` holds the state of ``width`` independent simulated
servers ("lanes") as numpy arrays whose **last axis is the lane axis**
and advances all of them together: one call to :meth:`run_ticks` applies
each subsystem update (scheduler, CPU packages, cache, bus, DRAM,
chipset, disk, NIC, DMA, interrupts, page cache, sensors/DAQ) across
the whole fleet per tick.  Per-lane work that cannot vectorize — RNG
buffer refills and sampling-window bookkeeping — happens on the rare
ticks where it is due, so the aggregate cost per lane-tick shrinks
roughly with the fleet width.  Thread terms that depend only on
placement and phase are rebuilt only for the lanes where those changed
(:class:`_ThreadTerms`).

Equivalence with the scalar :class:`~repro.simulator.system.Server`
--------------------------------------------------------------------

Each lane consumes exactly the RNG streams a scalar ``Server`` with the
same seed would (same stream names, same draw order), and the per-tick
arithmetic mirrors the scalar code term by term in the same evaluation
order.  Lane state is therefore *bit-identical* to the scalar server
for everything on the simulation side: performance counters, sampler
windows, per-subsystem energy, power breakdowns, and process stats.

One measurement-side term differs: the sensor drift factor uses
``np.sin`` where the scalar path uses ``math.sin``.  The two agree to
within ~1 ulp but are not guaranteed bit-equal, so DAQ power traces
(and anything derived from them, e.g. ``MeasuredRun.power``) are
tolerance-bounded rather than bit-exact — relative error is bounded by
a few 1e-16 per tick and stays far below the modelled acquisition
noise.  The drift term feeds no simulation state back, so counters and
energy stay bit-exact.

Lanes are independent: lane ``i``'s entire trace depends only on its
own seed and workload, never on the fleet width or on other lanes.

The fleet is the only engine behind :func:`simulate_fleet`,
:class:`~repro.cluster.Cluster` and the datacenter.  Bit-exact DAQ
traces, and the features the fleet does not support — custom counter
banks (multiplexed PMUs), per-package DVFS differing *within* a lane
(per-lane uniform pstates are fine) and the RC thermal model (which the
scalar server also keeps outside its tick loop) — go through
:class:`~repro.simulator.system.Server` /
:func:`~repro.simulator.system.simulate_workload`.
"""

from __future__ import annotations

import math
from time import monotonic as _monotonic

import numpy as np

from repro import obs
from repro.core.events import SUBSYSTEMS, Event, Subsystem
from repro.core.traces import CounterTrace, MeasuredRun, PowerTrace
from repro.measurement.sync import align_windows
from repro.osim.process import _ou_coefficients
from repro.osim.procfs import Vector
from repro.simulator.config import SystemConfig
from repro.simulator.disk import _RANDOM_REQUEST_BYTES, _SEQUENTIAL_REQUEST_BYTES
from repro.simulator.power import PowerBreakdown, ProcessStats
from repro.simulator.rng import _stable_hash
from repro.simulator.system import _BATCH_BUCKETS, _CROSS_COHERENCE_FRACTION
from repro.workloads.base import ThreadPlan, WorkloadSpec

__all__ = ["FleetServer", "simulate_fleet"]

#: Event index map in counter-bank declaration order (bank rows).
_EVENTS = tuple(Event)
_EIDX = {event: i for i, event in enumerate(_EVENTS)}
_N_EVENTS = len(_EVENTS)

#: Ticks of DAQ drift factors computed at once (see
#: :meth:`FleetServer._drift_block`).
_DRIFT_BLOCK = 128

#: Interrupt vectors delivered through the fleet's shared round-robin
#: cursor, in scalar delivery order (procfs accounting rows).
_VECTORS = tuple(Vector)
_VIDX = {vector: i for i, vector in enumerate(_VECTORS)}


def _lane_generator(seed: int, name: str) -> np.random.Generator:
    """The generator ``RngStreams(seed).stream(name)`` would return."""
    child_seed = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(_stable_hash(name),)
    )
    return np.random.default_rng(child_seed)


class _FleetNormalStream:
    """Per-lane buffered standard-normal draws, scalar-stream-exact.

    Mirrors :class:`repro.simulator.rng.NormalStream` for ``width``
    independent generators at once: each lane has its own 1024-value
    block buffer refilled from its own generator, so lane ``i`` hands
    out exactly the sequence the scalar stream at the same seed would.
    A lane's buffer only refills (and its cursor only advances) on
    draws where the mask last given to :meth:`set_mask` is true for
    that lane — frozen lanes consume nothing.
    """

    __slots__ = (
        "_gens", "_buf", "_pos", "_pos0", "_uniform", "_block", "_base",
        "_mask", "_flat", "_left",
    )

    def __init__(self, gens: "list[np.random.Generator]", block: int = 1024) -> None:
        width = len(gens)
        self._gens = gens
        self._block = block
        self._buf = np.zeros((width, block))
        #: Cursor at block => empty, refill before next draw.
        self._pos = np.full(width, block, dtype=np.int64)
        #: While every mask has been all-true the cursors stay equal; a
        #: single scalar cursor then replaces the per-lane ones (the
        #: hot case — fleets with no frozen lanes or threads).
        self._pos0 = block
        self._uniform = True
        #: Per-lane cursors: the mask, each lane's flat buffer index and
        #: how many draws are left before a masked lane runs dry.
        self._base = np.arange(width) * block
        self._mask = np.zeros(width, dtype=bool)
        self._flat = self._base.copy()
        self._left = 0

    def set_mask(self, mask: np.ndarray) -> None:
        """Draw on the lanes where ``mask`` until the next call."""
        if self._uniform:
            if mask.all():
                return
            # First partially-masked draw: fall back to per-lane cursors.
            self._uniform = False
            self._pos[:] = self._pos0
        np.copyto(self._mask, mask)
        self._reindex()

    def _reindex(self) -> None:
        block, pos = self._block, self._pos
        self._flat = self._base + np.minimum(pos, block - 1)
        live = pos[self._mask]
        self._left = block - int(live.max()) if live.size else block

    def next(self) -> np.ndarray:
        """One draw per masked lane; other lanes get garbage.

        The returned values at unmasked lanes are stale buffer
        contents — callers must gate on the mask (the tick loop always
        does via ``np.where``/``np.copyto``).
        """
        block = self._block
        if self._uniform:
            pos0 = self._pos0
            if pos0 >= block:
                buf = self._buf
                for lane, gen in enumerate(self._gens):
                    buf[lane] = gen.standard_normal(block)
                pos0 = 0
            self._pos0 = pos0 + 1
            return self._buf[:, pos0]
        mask, pos = self._mask, self._pos
        if self._left <= 0:
            buf, gens = self._buf, self._gens
            for lane in np.nonzero(mask & (pos >= block))[0]:
                buf[lane] = gens[lane].standard_normal(block)
                pos[lane] = 0
            self._reindex()
        out = self._buf.take(self._flat)
        self._flat += mask
        pos += mask
        self._left -= 1
        return out


class _PlanTable:
    """One thread's phase plan, gathered into per-phase numpy columns.

    The scalar path looks up a :class:`PhaseBehavior` per tick and
    reads ~20 attributes; here each attribute (or the exact product the
    scalar tick computes from it) becomes one ``(n_phases,)`` array, so
    a single fancy-index per tick gathers every lane's current phase
    parameters at once.  Products folded in at build time reproduce the
    scalar association order exactly (noted per field).
    """

    __slots__ = (
        "start_s",
        "cycle_s",
        "loop",
        "bounds",
        "n_phases",
        "upc",
        "sm_miss",
        "wf1",
        "fp",
        "spec",
        "l3",
        "tlbk",
        "wb",
        "cpress",
        "stream",
        "unc_dt",
        "occ0",
        "fr_dt",
        "fw_dt",
        "hw_dt",
        "net_rx",
        "net_tx",
        "sync",
        "name_ids",
        "mat",
    )

    def __init__(self, plan: ThreadPlan, pagewalk_per_tlb: float, dt: float) -> None:
        self.start_s = plan.start_time_s
        self.cycle_s = plan.cycle_duration_s
        self.loop = plan.loop
        # Accumulated in phase order so boundaries are bit-identical to
        # SimThread._phase_bounds.
        bounds: list[float] = []
        elapsed = 0.0
        for phase in plan.phases:
            elapsed += phase.duration_s
            bounds.append(elapsed)
        self.bounds = np.asarray(bounds)
        self.n_phases = len(bounds)

        def col(values: "list[float]") -> np.ndarray:
            return np.asarray(values, dtype=np.float64)

        behaviors = [phase.behavior for phase in plan.phases]
        self.upc = col([b.uops_per_cycle for b in behaviors])
        # memory_sensitivity * misses_per_uop, associated as the scalar
        # tick does: ms * ((l3 + pw*tlbk) / 1000.0).
        self.sm_miss = col(
            [
                b.memory_sensitivity
                * (
                    (
                        b.l3_load_misses_per_kuop
                        + pagewalk_per_tlb * b.tlb_misses_per_kuop
                    )
                    / 1000.0
                )
                for b in behaviors
            ]
        )
        self.wf1 = col([1.0 + b.wrongpath_fraction for b in behaviors])
        self.fp = col([b.fp_fraction for b in behaviors])
        self.spec = col([b.speculation_factor for b in behaviors])
        self.l3 = col([b.l3_load_misses_per_kuop for b in behaviors])
        self.tlbk = col([b.tlb_misses_per_kuop for b in behaviors])
        self.wb = col([b.writeback_ratio for b in behaviors])
        self.cpress = col([b.cache_pressure for b in behaviors])
        self.stream = col([b.streamability for b in behaviors])
        # uncacheable_per_s * dt (scalar: (unc * dt) * occupancy).
        self.unc_dt = col([b.uncacheable_per_s * dt for b in behaviors])
        self.occ0 = col([1.0 - b.blocking_fraction for b in behaviors])
        self.fr_dt = col([b.disk_read_bps * dt for b in behaviors])
        self.fw_dt = col([b.disk_write_bps * dt for b in behaviors])
        # (hit_ratio * read_bps) * dt, the scalar accumulation term.
        self.hw_dt = col(
            [b.page_cache_hit_ratio * b.disk_read_bps * dt for b in behaviors]
        )
        self.net_rx = col([b.net_rx_bps for b in behaviors])
        self.net_tx = col([b.net_tx_bps for b in behaviors])
        self.sync = np.asarray([bool(b.sync_file) for b in behaviors])
        # Sync-phase re-entry compares phase *names* in the scalar path,
        # so ids are assigned per distinct name within this plan.
        ids: dict[str, int] = {}
        name_ids = []
        for phase in plan.phases:
            name_ids.append(ids.setdefault(phase.name, len(ids)))
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        # Stacked (n_phases, 17) parameter matrix: one fancy-index per
        # tick gathers every column at once.  Column order = the _C_*
        # constants below.
        self.mat = np.stack(
            (
                self.upc, self.sm_miss, self.wf1, self.fp, self.spec,
                self.l3, self.tlbk, self.wb, self.cpress, self.stream,
                self.unc_dt, self.occ0, self.fr_dt, self.fw_dt,
                self.hw_dt, self.net_rx, self.net_tx,
            ),
            axis=1,
        )


#: Column indices into :attr:`_PlanTable.mat`.
(
    _C_UPC, _C_SM, _C_WF1, _C_FP, _C_SPEC, _C_L3, _C_TLBK, _C_WB,
    _C_CPRESS, _C_STREAM, _C_UNC, _C_OCC0, _C_FR, _C_FW, _C_HW,
    _C_NRX, _C_NTX,
) = range(17)


class _ThreadTerms:
    """The thread terms of one batch that change only with placement
    or phase, cached per lane.

    Of the scheduler's and packages' per-thread work, only the OU
    modulation and the latency-dependent terms change every tick.  The
    rest depends only on the run mask, the thread affinities and each
    thread's phase index: the phase-parameter gather, the packages'
    thread slots and occupancy, the SMT share and sharing factors, the
    pass-through rate columns and the runtime and context-switch
    increments.  :meth:`refresh` rebuilds those terms only for the
    lanes whose run mask changed or one of whose threads left its
    cached phase interval ``[lo, hi)``, both checked from live state
    every tick.  The fleet state that changes only with the run mask
    or phase is updated there too: first-run placement (the thread did
    not run the tick before), each thread's last phase name and whether
    it ever ran.  Every rebuilt term is the exact value the tick would
    compute afresh, so lanes stay bit-identical to the scalar server.

    The cache lives for one :meth:`FleetServer.run_ticks` batch: the
    first tick rebuilds every lane.
    """

    __slots__ = (
        "_fleet", "_cycles", "_lanes", "_row_lane", "_gathered",
        "sync_req", "mask", "lo", "hi", "g", "contrib", "fold_idx", "smt_tc",
        "spec_tc", "wbf", "occm", "active_pkg", "n_run", "ctx_inc",
        "rt_inc", "prt_inc",
    )

    def __init__(self, fleet: "FleetServer", cycles: "float | np.ndarray") -> None:
        n_thr, n_pkg, width = fleet._n_thr, fleet._n_pkg, fleet.width
        self._fleet = fleet
        self._cycles = cycles
        self._lanes = np.arange(width)
        self.sync_req: "np.ndarray | None" = None
        # An empty interval: no position lies in it, so the first tick
        # rebuilds every lane.
        self.mask = np.zeros((n_thr, width), dtype=bool)
        self.lo = np.full((n_thr, width), np.inf)
        self.hi = np.full((n_thr, width), -np.inf)
        #: Phase parameters, ``(n_thr, 17, width)`` (``_C_*`` rows).
        self.g = np.empty((n_thr, 17, width))
        #: The package fold's per-thread terms plus, last, a row of
        #: zeros that empty thread slots fold.  Rows 8 (uncacheable
        #: accesses) and 12-16 (file and network rates) are cached
        #: here; the tick writes the others.
        self.contrib = np.zeros((n_thr + 1, 17, width))
        # Each first run takes the package with the fewest threads
        # placed so far, so no package ever holds more than
        # ceil(n_thr / n_pkg) threads: that many slots per package.
        n_slots = -(-n_thr // n_pkg)
        #: Flat ``contrib`` index that slot s of package p folds into
        #: row c of its partials: the package's running threads in
        #: thread order, then the zero row.
        self.fold_idx = np.empty((n_slots, 17, n_pkg, width), dtype=np.intp)
        self._gathered = np.empty((n_slots, 17, n_pkg, width))
        self._row_lane = (np.arange(17) * width)[:, None, None] + self._lanes
        self.smt_tc = np.empty((n_thr, width))
        self.spec_tc = np.empty((n_thr, width))
        self.wbf = np.empty((n_thr, width))
        self.occm = np.empty((n_pkg, width))
        self.active_pkg = np.empty((n_pkg, width), dtype=bool)
        self.n_run = np.empty(width, dtype=np.int64)
        self.ctx_inc = np.empty(width, dtype=np.int64)
        self.rt_inc = np.empty((n_thr, width))
        self.prt_inc = np.empty((n_thr, width))

    def refresh(self, runm2: np.ndarray, position: np.ndarray) -> bool:
        """Rebuild the stale lanes; True when any lane was rebuilt.

        Also sets :attr:`sync_req`, this tick's file-sync requests by
        lane: a thread requests one when it enters a syncing phase,
        which is only ever on a rebuild, so it is ``None`` (no request
        on any lane) on most ticks.
        """
        self.sync_req = None
        stale = (runm2 != self.mask) | (position < self.lo)
        stale |= position >= self.hi
        stale = stale.any(axis=0)
        if not stale.any():
            return False
        cols = slice(None) if stale.all() else np.nonzero(stale)[0]
        self._rebuild(cols, runm2[:, cols], position[:, cols])
        return True

    def fold(self, acc: np.ndarray) -> None:
        """Per-package partials ``acc[row, p]`` of ``contrib``.

        Each package's running threads are added in thread order into
        +0.0, as the scalar accumulators do; the zero row an empty
        slot adds after them changes nothing (a sum that starts at
        +0.0 is never -0.0).  ``np.add.reduce`` over the slot axis is
        that sequential fold (pinned by
        tests/test_fleet.py::TestFoldOrder).
        """
        gathered = self._gathered
        np.take(self.contrib, self.fold_idx, mode="clip", out=gathered)
        np.add.reduce(gathered, axis=0, out=acc)

    def _rebuild(self, cols, runm, position) -> None:
        fleet = self._fleet
        n_thr, n_pkg, smt = fleet._n_thr, fleet._n_pkg, fleet._smt
        affinity, last_name_id = fleet._affinity, fleet._last_name_id
        lanes = self._lanes[cols]
        n = lanes.size
        unplaced = runm & (affinity[:, cols] < 0)
        if unplaced.any():
            # First run of a thread: scalar placement order — thread k
            # sees the bounds updated by threads < k.
            bound, ctx = fleet._bound, fleet._ctx
            for k in range(n_thr):
                placed = lanes[unplaced[k]]
                if placed.size:
                    pkg = np.argmin(bound[:, placed], axis=0)
                    affinity[k, placed] = pkg
                    bound[pkg, placed] += 1
                    ctx[placed] += 1
        idx = np.empty((n_thr, n), dtype=np.int64)
        for k, plan in enumerate(fleet._plans):
            idx[k] = plan.bounds.searchsorted(position[k], side="right")
        np.minimum(idx, fleet._nph_col - 1, out=idx)
        gidx = idx + fleet._plan_offsets
        nid = fleet._name_all[gidx]
        last = last_name_id[:, cols]
        sync2 = runm & fleet._sync_all[gidx] & (nid != last)
        last_name_id[:, cols] = np.where(runm, nid, last)
        self.mask[:, cols] = runm
        fleet._ran_ever[:, cols] |= runm
        self.lo[:, cols] = fleet._lo_all[gidx]
        self.hi[:, cols] = fleet._hi_all[gidx]

        # onehot[k, p, lane]: thread k runs on package p.
        aff = affinity[:, cols]
        onehot = (aff[:, None, :] == np.arange(n_pkg)[:, None]) & runm[
            :, None, :
        ]
        cp = onehot.sum(axis=0, dtype=np.int64)
        self.ctx_inc[cols] = np.maximum(cp - smt, 0).sum(axis=0)
        self.n_run[cols] = cp.sum(axis=0)
        self.active_pkg[:, cols] = cp > 0
        slot_thr = np.full((self.fold_idx.shape[0], n_pkg, n), n_thr)
        ks, ps, ls = np.nonzero(onehot)
        slot_thr[(np.cumsum(onehot, axis=0) - 1)[ks, ps, ls], ps, ls] = ks
        self.fold_idx[..., cols] = (
            slot_thr[:, None] * (17 * fleet.width) + self._row_lane[..., cols]
        )
        share = np.where(cp > smt, smt / cp, 1.0)
        smt_scale = np.where(cp <= 1, 1.0, (fleet._smt_yield * 2.0) / cp)
        aff_safe = np.maximum(aff, 0)
        at = np.arange(n)
        share_g = share[aff_safe, at]
        smt_g = smt_scale[aff_safe, at]
        cp_g = cp[aff_safe, at]
        G = fleet._mat_all[gidx]
        self.g[:, :, cols] = G.transpose(0, 2, 1)
        occ2 = G[..., _C_OCC0] * share_g
        cycles = self._cycles
        if isinstance(cycles, np.ndarray):
            cycles = cycles[cols]
        tc = cycles * occ2
        self.smt_tc[:, cols] = smt_g * tc
        self.spec_tc[:, cols] = G[..., _C_SPEC] * tc
        sharing = np.maximum(cp_g - 1, 0)
        self.wbf[:, cols] = G[..., _C_WB] * (1.0 + G[..., _C_CPRESS] * sharing)
        self.contrib[:n_thr, 8, cols] = G[..., _C_UNC] * occ2
        self.contrib[:n_thr, 12:, cols] = G[..., _C_FR:].transpose(0, 2, 1)
        # max() is order-free.
        self.occm[:, cols] = np.max(
            np.where(onehot, occ2[:, None, :], 0.0), axis=0
        )
        dt = fleet._dt
        self.rt_inc[:, cols] = np.where(runm, dt, 0.0)
        self.prt_inc[:, cols] = np.where(runm, dt * occ2, 0.0)
        # A running thread sits on exactly one package, so a package
        # with a syncing thread is just a lane with one.
        if sync2.any():
            self.sync_req = np.zeros(fleet.width, dtype=bool)
            self.sync_req[cols] = sync2.any(axis=0)


class FleetServer:
    """``width`` independent simulated servers stepped in lockstep.

    Args:
        config: shared :class:`SystemConfig` for every lane.
        workload: shared workload spec for every lane.
        seeds: one RNG seed per lane.  Lane ``i`` reproduces exactly
            what ``Server(config, workload, seeds[i])`` would (see the
            module docstring for the one tolerance-bounded exception).
    """

    def __init__(
        self,
        config: SystemConfig,
        workload: WorkloadSpec,
        seeds: "list[int] | tuple[int, ...]",
    ) -> None:
        seeds = tuple(int(s) for s in seeds)
        if not seeds:
            raise ValueError("a fleet needs at least one lane")
        self.config = config
        self.workload = workload
        self.seeds = seeds
        self.width = len(seeds)
        #: lane -> live monitor stack (see :meth:`attach_monitor`).
        self._monitors: "dict[int, list]" = {}
        #: Optional fleet-wide monitor (see :meth:`attach_fleet_monitor`).
        self._fleet_monitor = None

        width = self.width
        n_pkg = config.num_packages
        n_thr = workload.n_threads
        dt = config.tick_s
        self._n_pkg = n_pkg
        self._n_thr = n_thr
        self._dt = dt

        # -- per-lane RNG streams, in scalar construction/draw order --
        chipset_cfg = config.chipset
        chip_gens = [_lane_generator(seed, "chipset") for seed in seeds]
        low = -chipset_cfg.derivation_offset_range_w
        high = chipset_cfg.derivation_offset_range_w / 4.0
        self._chip_mean = np.asarray(
            [float(gen.uniform(low, high)) for gen in chip_gens]
        )
        # Every per-tick normal draw comes from one stream: row ``k``
        # of its ``(n_thr + 1, width)`` draw is thread ``k``'s
        # generator on each lane, the last row the chipset's.
        self._normal_stream = _FleetNormalStream(
            [
                _lane_generator(seed, f"thread-{k}")
                for k in range(n_thr)
                for seed in seeds
            ]
            + chip_gens
        )
        meas = config.measurement
        self._samp_gens = [_lane_generator(seed, "sampler") for seed in seeds]
        first_deadline = [
            0.0
            + max(
                meas.sample_period_s + float(gen.normal(0.0, meas.sample_jitter_s)),
                1.0e-3,
            )
            for gen in self._samp_gens
        ]
        sensor_gens = [_lane_generator(seed, "sensors") for seed in seeds]
        gains = np.empty((5, width))
        drift_phases = np.empty((5, width))
        for lane, gen in enumerate(sensor_gens):
            for si in range(5):  # all gains first, then all phases
                gains[si, lane] = 1.0 + float(gen.normal(0.0, meas.gain_error_rel))
            for si in range(5):
                drift_phases[si, lane] = float(gen.uniform(0.0, 2.0 * math.pi))
        self._gains = gains
        self._drift_phases = drift_phases
        self._daq_gens = [_lane_generator(seed, "daq") for seed in seeds]

        # -- phase-plan tables -----------------------------------------
        pagewalk_per_tlb = config.cache.pagewalk_reads_per_tlb_miss
        self._plans = [
            _PlanTable(plan, pagewalk_per_tlb, dt) for plan in workload.threads
        ]
        # Combined tables: every thread's phases stacked so one fancy
        # index per tick gathers all (thread, lane) phase rows at once.
        plans = self._plans
        self._mat_all = np.concatenate([t.mat for t in plans], axis=0)
        self._name_all = np.concatenate([t.name_ids for t in plans])
        self._sync_all = np.concatenate([t.sync for t in plans])
        self._plan_offsets = np.cumsum(
            [0] + [t.n_phases for t in plans[:-1]], dtype=np.int64
        )[:, None]
        self._start_col = np.asarray([t.start_s for t in plans])[:, None]
        self._cycle_col = np.asarray([t.cycle_s for t in plans])[:, None]
        self._loop_col = np.asarray(
            [t.loop for t in plans], dtype=bool
        )[:, None]
        self._nph_col = np.asarray(
            [t.n_phases for t in plans], dtype=np.int64
        )[:, None]
        # The positions each (clamped) phase index covers: [lo, hi)
        # with the first phase open below and the last open above.
        self._lo_all = np.concatenate(
            [np.concatenate(([-np.inf], t.bounds[:-1])) for t in plans]
        )
        self._hi_all = np.concatenate(
            [np.concatenate((t.bounds[:-1], [np.inf])) for t in plans]
        )
        self._has_nonloop = not all(t.loop for t in plans)

        # -- per-tick constants (python floats, scalar association) ----
        cpu = config.cpu
        self._smt = cpu.smt_contexts
        self._max_upc = cpu.max_uops_per_cycle
        self._isc = cpu.interrupt_service_cycles
        self._stall_fraction = cpu.stall_power_fraction
        self._uop_w = cpu.uop_power_w
        self._spec_w = cpu.speculation_power_w
        self._fp_premium = cpu.fp_power_premium
        self._smt_yield = workload.smt_yield
        self._variability = workload.variability
        self._ou_alpha, self._ou_noise = _ou_coefficients(dt)
        self._pw_per_tlb = pagewalk_per_tlb
        self._ppm = config.cache.prefetch_per_miss
        self._timer_per_tick = config.osim.timer_hz * dt
        bus = config.bus
        self._base_latency = bus.base_latency_cycles
        self._bus_cap_dt = bus.capacity_tx_per_s * dt
        self._bus_congestion = bus.congestion_factor
        dram = config.dram
        self._dram_cap_dt = dram.capacity_access_per_s * dt
        self._dram_read_e = dram.read_energy_j
        self._dram_write_e = dram.write_energy_j
        self._dram_act_e = dram.activation_energy_j
        self._dram_bg_dt = dram.background_power_w * dt
        self._row_rand = dram.random_row_hit_rate
        self._row_stream = dram.streaming_row_hit_rate
        self._dram_rtf = dram.random_throughput_factor
        self._dram_congestion = dram.congestion_factor
        self._dram_cong_cap = 1.0 - 1.0 / dram.max_latency_factor
        # DMA row-hit base at streamability 0.9 (scalar row_hit_rate).
        self._dma_hit_base = self._row_rand + (
            self._row_stream - self._row_rand
        ) * 0.9
        chip = config.chipset
        self._chip_nominal = chip.nominal_power_w
        self._chip_bus_w = chip.bus_sensitivity_w
        self._chip_io_w = chip.io_sensitivity_w
        chip_alpha = math.exp(-dt / 120.0)  # ChipsetSubsystem._DRIFT_TAU_S
        self._chip_alpha = chip_alpha
        self._chip_noise = (
            math.sqrt(max(0.0, 1.0 - chip_alpha * chip_alpha)) * 0.12
        )
        io_cfg = config.io
        self._io_static = io_cfg.static_power_w
        self._io_sw_e = io_cfg.switching_energy_per_byte_j
        self._io_tx_e = io_cfg.transaction_overhead_j
        self._line_bytes = float(io_cfg.line_bytes)
        self._tx_factor = 1.0 - io_cfg.write_combining_efficiency
        self._dma_bpi = io_cfg.bytes_per_interrupt
        self._nic_bpi = 32.0 * 1024.0  # NicConfig.bytes_per_interrupt
        self._nic_line = 125.0e6  # NicConfig.line_rate_bps
        self._bg_half = (workload.background_dma_bps * dt) / 2.0
        disk = config.disk
        self._num_disks = disk.num_disks
        self._disk_budget0 = dt * disk.num_disks
        seq_access = disk.avg_access_time_s * 0.08
        seq_service = seq_access + _SEQUENTIAL_REQUEST_BYTES / disk.transfer_rate_bps
        self._seq_thr = _SEQUENTIAL_REQUEST_BYTES / seq_service
        self._seq_seekf = seq_access / seq_service
        rand_service = (
            disk.avg_access_time_s + _RANDOM_REQUEST_BYTES / disk.transfer_rate_bps
        )
        self._rand_thr = _RANDOM_REQUEST_BYTES / rand_service
        self._rand_seekf = disk.avg_access_time_s / rand_service
        self._rot_n = disk.rotation_power_w * disk.num_disks
        self._seek_w = disk.seek_power_w
        self._xfer_w = disk.transfer_power_w
        self._wc_dt = disk.transfer_rate_bps * disk.num_disks * 0.9 * dt
        osim = config.osim
        self._pc_bytes = osim.page_cache_bytes
        self._pc_bg_ratio = osim.dirty_background_ratio
        self._pc_denom = max(1.0e-9, osim.dirty_ratio - osim.dirty_background_ratio)
        # TlbPolicy defaults: major faults per TLB miss, bytes per fault.
        self._tlb_fault_ratio = 5.0e-6
        self._tlb_fault_bytes = 4096.0 * 8
        self._drift_rel = meas.drift_rel
        self._sample_period = meas.sample_period_s
        self._sample_jitter = meas.sample_jitter_s
        self._daq_rate = meas.daq_rate_hz
        self._daq_noise_rel = meas.daq_noise_rel
        self._pstate_index = 0
        self._lane_pstates: "np.ndarray | None" = None
        self._refresh_pstate()

        # -- SoA state (last axis = lane); everything listed in
        # _STATE_NAMES is snapshot/restored around frozen lanes --------
        self._now = np.zeros(width)
        self._timer_residual = np.zeros(width)
        #: Device interrupts pending per package: row 0 disk, 1 NIC.
        self._pend_irq = np.zeros((2, n_pkg, width))
        self._irq_cursor = np.zeros(width, dtype=np.int64)
        self._acct = np.zeros((len(_VECTORS), n_pkg, width))
        self._runtime = np.zeros((n_thr, width))
        self._ou = np.zeros((n_thr, width))
        self._last_name_id = np.full((n_thr, width), -1, dtype=np.int64)
        self._finished = np.zeros((n_thr, width), dtype=bool)
        self._affinity = np.full((n_thr, width), -1, dtype=np.int64)
        self._bound = np.zeros((n_pkg, width), dtype=np.int64)
        self._ctx = np.zeros(width, dtype=np.int64)
        self._bus_latency = np.full(width, self._base_latency)
        self._dram_latency = np.ones(width)
        self._pc_dirty = np.zeros(width)
        self._pc_pending = np.zeros(width)
        self._pc_synced = np.zeros(width)
        self._q_seq_write = np.zeros(width)
        self._q_rand_read = np.zeros(width)
        self._disk_total = np.zeros(width)
        #: Fractional completion interrupts: row 0 disk DMA, 1 NIC.
        self._dev_residual = np.zeros((2, width))
        self._nic_total = np.zeros(width)
        self._io_total = np.zeros(width)
        self._chip_offset = self._chip_mean.copy()
        self._counts3d = np.zeros((_N_EVENTS, n_pkg, width))
        self._energy5 = np.zeros((5, width))
        self._e_time = np.zeros(width)
        self._wenergy = np.zeros((5, width))
        self._last_powers = np.zeros((5, width))
        self._proc_runtime = np.zeros((n_thr, width))
        #: Executed (column 0) and fetched (1) uops per thread.
        self._proc_uops = np.zeros((n_thr, 2, width))
        self._proc_bus = np.zeros((n_thr, width))
        self._ran_ever = np.zeros((n_thr, width), dtype=bool)
        self._samp_wstart = np.zeros(width)
        self._samp_deadline = np.asarray(first_deadline)
        self._daq_wstart = np.zeros(width)
        #: Enabled thread mask — *configuration*, not rolled back on
        #: freeze (cluster load control flips it between batches).
        self._enabled = np.ones((n_thr, width), dtype=bool)

        # Per-lane window logs (appends are masked by ``active``).
        self._samp_ts: "list[list[float]]" = [[] for _ in range(width)]
        self._samp_dur: "list[list[float]]" = [[] for _ in range(width)]
        self._samp_counts: "list[list[np.ndarray]]" = [[] for _ in range(width)]
        self._daq_ts: "list[list[float]]" = [[] for _ in range(width)]
        self._daq_means: "list[list[list[float]]]" = [
            [[] for _ in range(5)] for _ in range(width)
        ]

    #: Mutable per-lane state rolled back for frozen lanes around each
    #: batch (RNG draws and window-log appends are masked instead).
    _STATE_NAMES = (
        "_now",
        "_timer_residual",
        "_pend_irq",
        "_irq_cursor",
        "_acct",
        "_runtime",
        "_ou",
        "_last_name_id",
        "_finished",
        "_affinity",
        "_bound",
        "_ctx",
        "_bus_latency",
        "_dram_latency",
        "_pc_dirty",
        "_pc_pending",
        "_pc_synced",
        "_q_seq_write",
        "_q_rand_read",
        "_disk_total",
        "_dev_residual",
        "_nic_total",
        "_io_total",
        "_chip_offset",
        "_counts3d",
        "_energy5",
        "_e_time",
        "_wenergy",
        "_last_powers",
        "_proc_runtime",
        "_proc_uops",
        "_proc_bus",
        "_ran_ever",
        "_samp_wstart",
        "_samp_deadline",
        "_daq_wstart",
    )

    def _refresh_pstate(self) -> None:
        """Recompute frequency-derived constants (mirrors CpuPackage).

        Uniform fleets keep these as python floats (the fast path, and
        bit-identical to the pre-per-lane code); with per-lane pstates
        set they become ``(width,)`` arrays, which broadcast against
        the lane-axis-last state everywhere the hot loop uses them.
        Elementwise IEEE ops match the scalar ones, so each lane stays
        bit-identical to a scalar server pinned at that lane's pstate.
        """
        cpu = self.config.cpu
        nominal = cpu.dvfs_states[0].frequency_hz
        if self._lane_pstates is None:
            state = cpu.dvfs_states[self._pstate_index]
            vscale: "float | np.ndarray" = state.voltage_scale
            freq: "float | np.ndarray" = state.frequency_hz
        else:
            vs = np.array([s.voltage_scale for s in cpu.dvfs_states])
            fs = np.array([s.frequency_hz for s in cpu.dvfs_states])
            vscale = vs[self._lane_pstates]
            freq = fs[self._lane_pstates]
        self._voltage_sq = vscale**2
        self._power_scale = vscale**2 * (freq / nominal)
        self._cycles = freq * self._dt
        self._halted_v = cpu.halted_power_w * self._voltage_sq
        self._active_delta = cpu.active_idle_power_w - cpu.halted_power_w
        # Scalar step 6 sums pt.cycles package by package; replicate the
        # sequential adds so ties in float rounding match exactly.
        total: "float | np.ndarray" = 0.0
        for _ in range(self.config.num_packages):
            total = total + self._cycles
        self._cycles_total = total

    # -- control API ---------------------------------------------------

    @property
    def now_s(self) -> float:
        """Simulated time of the furthest lane.

        A frozen lane's clock stops with it, so lanes of one fleet can
        disagree; :meth:`lane` views report each lane's own clock.
        """
        return float(self._now.max())

    def set_all_pstates(self, state_index: int) -> None:
        """Switch every package of every lane to one DVFS point."""
        if not 0 <= state_index < len(self.config.cpu.dvfs_states):
            raise ValueError(
                f"pstate {state_index} out of range; package has "
                f"{len(self.config.cpu.dvfs_states)} states"
            )
        self._pstate_index = state_index
        self._lane_pstates = None
        self._refresh_pstate()

    def set_lane_pstates(self, pstates) -> None:
        """Per-lane DVFS: lane ``i`` runs at ``pstates[i]``.

        The control surface datacenter power policies coordinate
        through — each node (lane) is shifted independently along the
        ladder between batches.  Per-lane pstates are *configuration*
        like ``_enabled``: frozen lanes keep them, nothing rolls them
        back.  A uniform vector collapses to the scalar fast path.
        """
        idx = np.asarray(pstates, dtype=np.int64)
        if idx.shape != (self.width,):
            raise ValueError(
                f"pstates must have shape ({self.width},); got {idx.shape}"
            )
        n_states = len(self.config.cpu.dvfs_states)
        if idx.size and (idx.min() < 0 or idx.max() >= n_states):
            raise ValueError(
                f"pstates must lie in [0, {n_states - 1}]"
            )
        if np.all(idx == idx[0]):
            self.set_all_pstates(int(idx[0]))
            return
        self._pstate_index = int(idx[0])
        self._lane_pstates = idx.copy()
        self._refresh_pstate()

    def lane_pstates(self) -> np.ndarray:
        """Current per-lane pstate indices, shape ``(width,)``."""
        if self._lane_pstates is not None:
            return self._lane_pstates.copy()
        return np.full(self.width, self._pstate_index, dtype=np.int64)

    def read_and_clear_lanes(
        self, lanes: "np.ndarray | list[int]"
    ) -> "dict[Event, np.ndarray]":
        """Batched clear-on-read counter snapshot for many lanes.

        Returns ``{event: (n_lanes, n_cpus)}`` — the shape a batched
        :meth:`TrickleDownSuite.evaluate` design-matrix pass wants —
        and zeroes exactly those lanes' counters, in one numpy slice
        per event instead of a python loop over ``_LaneCounters``.
        """
        sel = np.asarray(lanes, dtype=np.int64)
        c3 = self._counts3d
        out = {}
        for event in _EVENTS:
            row = c3[_EIDX[event]]
            out[event] = row[:, sel].T.copy()
            row[:, sel] = 0.0
        return out

    def set_lane_threads(self, lane: int, n_threads: int) -> None:
        """Enable the first ``n_threads`` workload threads on ``lane``.

        Cluster load control: a node serving ``n`` request threads runs
        the first ``n`` plans of the shared service workload.  Disabled
        threads behave as if their plan never started.  Out-of-range
        lanes raise :class:`IndexError`.
        """
        lane = self._check_lane(lane)
        if not 0 <= n_threads <= self.workload.n_threads:
            raise ValueError(
                f"n_threads must be in [0, {self.workload.n_threads}]"
            )
        self._enabled[:, lane] = False
        self._enabled[:n_threads, lane] = True

    def disable_sampling(self) -> None:
        """Stop counter sampling on every lane (external counter reader)."""
        self._samp_deadline[:] = np.inf

    def attach_monitor(self, monitor, lane: "int | None" = 0) -> None:
        """Attach a live monitor to one lane (sampler-window callbacks).

        Mirrors :meth:`Server.attach_monitor`: ``monitor.on_window(view,
        pulse_s)`` fires whenever that lane closes a sampling window;
        ``on_attach(view)``, when present, fires now per attached lane.
        The view passed is :meth:`lane`'s read-only server facade.

        A lane holds a *stack* of monitors — attaching a second one
        adds it instead of silently replacing the first — and
        ``lane=None`` attaches the monitor to every lane.  Out-of-range
        lanes raise :class:`IndexError`.
        """
        lanes = range(self.width) if lane is None else (self._check_lane(lane),)
        for lane_i in lanes:
            stack = self._monitors.setdefault(lane_i, [])
            stack.append(monitor)
            on_attach = getattr(monitor, "on_attach", None)
            if on_attach is not None:
                on_attach(self.lane(lane_i))

    def detach_monitor(self, lane: "int | None" = 0, monitor=None) -> None:
        """Detach ``monitor`` (default: all monitors) from ``lane``.

        ``lane=None`` sweeps every lane.  Detaching a monitor that is
        not attached is a no-op.
        """
        lanes = range(self.width) if lane is None else (self._check_lane(lane),)
        for lane_i in lanes:
            stack = self._monitors.get(lane_i)
            if stack is None:
                continue
            if monitor is None:
                stack.clear()
            elif monitor in stack:
                stack.remove(monitor)
            if not stack:
                del self._monitors[lane_i]

    def attach_fleet_monitor(self, monitor) -> None:
        """Attach a fleet-wide monitor pulsed on every closing lane.

        ``monitor.on_pulse(fleet, lanes, now_s)`` fires once per tick
        on which any lane closes a sampling window, with the closing
        lane indices — the batched analogue of per-lane
        :meth:`attach_monitor` (see
        :class:`repro.obs.fleet.FleetMonitor`).  ``on_attach_fleet``,
        when present, fires now.  Unattached, the tick loop pays one
        ``is not None`` check per closing tick.
        """
        self._fleet_monitor = monitor
        on_attach = getattr(monitor, "on_attach_fleet", None)
        if on_attach is not None:
            on_attach(self)

    def detach_fleet_monitor(self) -> None:
        self._fleet_monitor = None

    def _check_lane(self, lane: int) -> int:
        if not 0 <= lane < self.width:
            raise IndexError(
                f"lane {lane} out of range for width {self.width}"
            )
        return int(lane)

    # -- lane access / measured runs -----------------------------------

    def lane(self, lane: int):
        """A read-only ``Server``-shaped view of one lane: a
        :class:`_LaneView` facade over the lane's slice of the fleet
        arrays.
        """
        return _LaneView(self, self._check_lane(lane))

    def run(self, duration_s: float) -> "list[MeasuredRun]":
        """Step every lane ``duration_s`` and return one run per lane."""
        if duration_s < 2.0 * self.config.measurement.sample_period_s:
            raise ValueError(
                "duration must cover at least two sampling windows; "
                f"got {duration_s}s"
            )
        n_ticks = int(round(duration_s / self.config.tick_s))
        self.run_ticks(n_ticks)
        return [
            self._finish_lane(lane, duration_s)
            for lane in range(self.width)
        ]

    def _finish_lane(self, lane: int, duration_s: float) -> MeasuredRun:
        """Assemble one lane's run (mirrors the tail of ``Server.run``)."""
        view = _LaneView(self, lane)
        counters = view.sampler.finish()
        if not self._daq_ts[lane]:
            raise ValueError(
                "no measurement windows closed; missing sync pulses?"
            )
        power = PowerTrace(
            timestamps=np.asarray(self._daq_ts[lane]),
            watts={
                s: np.asarray(self._daq_means[lane][i])
                for i, s in enumerate(SUBSYSTEMS)
            },
        )
        counters, power = align_windows(counters, power)
        return MeasuredRun(
            workload=self.workload.name,
            counters=counters,
            power=power,
            seed=int(self.seeds[lane]),
            metadata={
                "duration_s": duration_s,
                "tick_s": self.config.tick_s,
                "n_threads": self.workload.n_threads,
                "true_mean_power_w": {
                    s.value: view.energy.mean_power_w(s) for s in SUBSYSTEMS
                },
            },
        )

    # -- the hot path --------------------------------------------------

    def run_ticks(
        self, n_ticks: int, active: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Advance every lane ``n_ticks`` ticks; returns per-lane joules.

        ``active`` (bool, shape ``(width,)``) freezes lanes: a frozen
        lane consumes no RNG draws, logs no sampling windows, and has
        all of its state rolled back at the end of the batch, so a
        freeze is indistinguishable from the lane never being stepped.
        Frozen lanes report 0.0 J.
        """
        width = self.width
        energies = np.zeros(width)
        if n_ticks <= 0:
            return energies

        obs_on = obs.enabled()
        t0 = _monotonic() if obs_on else 0.0

        if active is None:
            act = np.ones(width, dtype=bool)
            frozen = None
        else:
            act = np.asarray(active, dtype=bool)
            if act.shape != (width,):
                raise ValueError(f"active mask must have shape ({width},)")
            if not act.any():
                return energies
            frozen = None if bool(act.all()) else np.nonzero(~act)[0]
        saved = None
        if frozen is not None:
            saved = [
                getattr(self, name)[..., frozen].copy()
                for name in self._STATE_NAMES
            ]

        # Hoisted state and constants (attribute lookups off the loop).
        n_pkg, n_thr, dt = self._n_pkg, self._n_thr, self._dt
        cycles = self._cycles
        cycles_total = self._cycles_total
        now = self._now
        timer_res = self._timer_residual
        pend_irq = self._pend_irq
        irq_cursor = self._irq_cursor
        acct_timer = self._acct[_VIDX[Vector.TIMER]]
        # The disk and network rows, adjacent like the device rows.
        acct_dev = self._acct[_VIDX[Vector.DISK]:_VIDX[Vector.NETWORK] + 1]
        runtime, ou = self._runtime, self._ou
        finished, ctx = self._finished, self._ctx
        enabled = self._enabled
        bus_latency, dram_latency = self._bus_latency, self._dram_latency
        pc_dirty, pc_pending = self._pc_dirty, self._pc_pending
        pc_synced = self._pc_synced
        q_seq_write = self._q_seq_write
        q_rand_read = self._q_rand_read
        disk_total_arr = self._disk_total
        dev_residual = self._dev_residual
        nic_total, io_total = self._nic_total, self._io_total
        chip_offset = self._chip_offset
        c3 = self._counts3d
        # One tick's counter increments, shaped like the bank and added
        # to it at once (step 11).  System-wide events use package
        # column 0; their other columns stay +0.0, which adds nothing
        # to counts that are never -0.0.  The stages write most rows in
        # place; the row views below name them.
        inc = np.zeros_like(c3)
        inc[_EIDX[Event.CYCLES]] = cycles
        i_halted = inc[_EIDX[Event.HALTED_CYCLES]]
        i_fetched = inc[_EIDX[Event.FETCHED_UOPS]]
        i_l3 = inc[_EIDX[Event.L3_MISSES]]
        i_tlb = inc[_EIDX[Event.TLB_MISSES]]
        i_dma = inc[_EIDX[Event.DMA_ACCESSES]]
        i_bus = inc[_EIDX[Event.BUS_TRANSACTIONS]]
        i_unc = inc[_EIDX[Event.UNCACHEABLE_ACCESSES]]
        i_irq = inc[_EIDX[Event.INTERRUPTS]]
        # The disk and network rows, adjacent like the device rows.
        i_dev_irq = inc[
            _EIDX[Event.DISK_INTERRUPTS]:_EIDX[Event.NETWORK_INTERRUPTS] + 1
        ]
        i_dram_rw0 = inc[_EIDX[Event.DRAM_READS]:_EIDX[Event.DRAM_WRITES] + 1, 0]
        i_dram_act0 = inc[_EIDX[Event.DRAM_ACTIVATIONS], 0]
        i_dram_time0 = inc[_EIDX[Event.DRAM_ACTIVE_TIME], 0]
        i_prefetch0 = inc[_EIDX[Event.PREFETCH_TRANSACTIONS], 0]
        i_writeback0 = inc[_EIDX[Event.WRITEBACK_TRANSACTIONS], 0]
        i_io_bytes0 = inc[_EIDX[Event.IO_BYTES], 0]
        i_io_tx0 = inc[_EIDX[Event.IO_TRANSACTIONS], 0]
        i_seek0 = inc[_EIDX[Event.DISK_SEEK_TIME], 0]
        i_xfer0 = inc[_EIDX[Event.DISK_TRANSFER_TIME], 0]
        i_disk_bytes0 = inc[_EIDX[Event.DISK_BYTES], 0]
        i_sectors0 = inc[_EIDX[Event.OS_DISK_SECTORS], 0]
        i_ctx0 = inc[_EIDX[Event.OS_CONTEXT_SWITCHES], 0]
        samp_gens, daq_gens = self._samp_gens, self._daq_gens
        samp_ts, samp_dur = self._samp_ts, self._samp_dur
        samp_counts = self._samp_counts
        daq_ts, daq_means = self._daq_ts, self._daq_means
        gains = self._gains
        sample_period, sample_jitter = self._sample_period, self._sample_jitter
        daq_rate, daq_noise_rel = self._daq_rate, self._daq_noise_rel
        energy5, e_time = self._energy5, self._e_time
        wenergy, last_powers = self._wenergy, self._last_powers
        proc_runtime = self._proc_runtime
        proc_uops, proc_bus = self._proc_uops, self._proc_bus
        samp_wstart, samp_deadline = self._samp_wstart, self._samp_deadline
        daq_wstart = self._daq_wstart
        normal_stream = self._normal_stream
        # Draw mask: thread rows set per tick, the chipset row is the
        # batch's active mask.
        draw_mask = np.empty((n_thr + 1, width), dtype=bool)
        draw_mask[n_thr] = act
        draw_mask_flat = draw_mask.reshape(-1)
        max_upc, isc = self._max_upc, self._isc
        variability = self._variability
        ou_alpha, ou_noise = self._ou_alpha, self._ou_noise
        pw_per_tlb, ppm = self._pw_per_tlb, self._ppm
        base_latency = self._base_latency
        bus_cap_dt, bus_cf = self._bus_cap_dt, self._bus_congestion
        dram_cap_dt = self._dram_cap_dt
        row_rand, row_stream = self._row_rand, self._row_stream
        dram_re, dram_we = self._dram_read_e, self._dram_write_e
        dram_ae, dram_bg_dt = self._dram_act_e, self._dram_bg_dt
        dram_rtf, dram_cf = self._dram_rtf, self._dram_congestion
        dram_cong_cap = self._dram_cong_cap
        halted_v, active_delta = self._halted_v, self._active_delta
        power_scale = self._power_scale
        stall_fraction, uop_w = self._stall_fraction, self._uop_w
        spec_w, fp_premium = self._spec_w, self._fp_premium
        chip_nominal, chip_bus_w = self._chip_nominal, self._chip_bus_w
        chip_io_w = self._chip_io_w
        chip_mean = self._chip_mean
        chip_alpha, chip_noise = self._chip_alpha, self._chip_noise
        io_static, io_sw_e = self._io_static, self._io_sw_e
        io_tx_e = self._io_tx_e
        line_bytes, tx_factor = self._line_bytes, self._tx_factor
        dev_bpi = np.array([[self._dma_bpi], [self._nic_bpi]])
        nic_line, bg_half = self._nic_line, self._bg_half
        disk_budget0 = self._disk_budget0
        seq_thr, seq_seekf = self._seq_thr, self._seq_seekf
        rand_thr, rand_seekf = self._rand_thr, self._rand_seekf
        rot_n, seek_w, xfer_w = self._rot_n, self._seek_w, self._xfer_w
        wc_dt = self._wc_dt
        pc_bytes, bg_ratio = self._pc_bytes, self._pc_bg_ratio
        pc_denom = self._pc_denom
        fault_ratio, fault_bytes = self._tlb_fault_ratio, self._tlb_fault_bytes
        per_tick = self._timer_per_tick
        timer_steady = float(int(per_tick)) == per_tick
        pkg_col = np.arange(n_pkg)[:, None]
        start_col, cycle_col = self._start_col, self._cycle_col
        loop_col = self._loop_col
        has_nonloop = self._has_nonloop
        # Clocks only advance, so once every lane is past every start
        # time the start check can be dropped for the batch.
        started = bool(self._now.min() >= start_col.max())
        monitors = self._monitors
        fleet_monitor = self._fleet_monitor
        batch_energy = np.zeros(width)
        # Per-tick scratch, allocated once per batch.  The thread fold
        # (_ThreadTerms.fold) and the package folds write their terms
        # into a buffer whose leading axis is the one summed, and one
        # np.add.reduce(axis=0) folds it.  numpy adds a leading axis's
        # rows one at a time, in index order, into a zeroed result
        # whenever the remaining axes hold more than one element;
        # pairwise summation, which would reorder the adds, applies
        # only when the summed axis is the innermost one left.  Every
        # buffer keeps 8 or 17 terms behind its leading axis, so this
        # holds at any width (pinned by tests/test_fleet.py::
        # TestFoldOrder).
        terms = _ThreadTerms(self, cycles)
        contrib, occm = terms.contrib[:n_thr], terms.occm
        active_pkg = terms.active_pkg
        g = terms.g
        g_upc, g_sm, g_wf1 = g[:, _C_UPC], g[:, _C_SM], g[:, _C_WF1]
        g_fp, g_l3, g_tlbk = g[:, _C_FP], g[:, _C_L3], g[:, _C_TLBK]
        g_stream = g[:, _C_STREAM]
        acc = np.empty((17, n_pkg, width))
        sys_terms = np.empty((n_pkg, 8, width))
        served2 = np.empty((2, width))
        dev_bytes = np.empty((2, 2, width))
        cursor2 = np.empty((2, width), dtype=np.int64)
        streams2 = np.empty((2, width))
        dram4 = np.empty((2, 2, width))
        hit_base = np.empty((2, width))
        hit_base[1] = self._dma_hit_base
        bus_terms = np.empty((n_pkg, 8, width))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for tick in range(n_ticks):
                # (1) Clock; timer interrupts land now, device
                # interrupts delivered last tick are serviced now.
                now += dt
                if timer_steady:
                    timer_f: "float | np.ndarray" = per_tick
                else:
                    timer_res += per_tick
                    timer_f = np.floor(timer_res)
                    timer_res -= timer_f
                np.copyto(i_dev_irq, pend_irq)
                irq = np.add(i_dev_irq[0] + i_dev_irq[1], timer_f, out=i_irq)
                acct_timer += timer_f
                pend_irq[:] = 0.0

                # (2) Scheduler pass: phase lookup, OU modulation,
                # first-run placement, per-package runnable counts.
                # All-thread state lives in (n_thr, width) arrays; the
                # placement- and phase-derived terms are rebuilt only
                # for the lanes where those changed (_ThreadTerms).
                latency = bus_latency * dram_latency
                lratio = np.maximum(latency / base_latency, 1.0)
                ramp = np.minimum(1.0 + 2.6 * (lratio - 1.0), 5.0)
                runm2 = enabled & act
                if not started:
                    runm2 &= now >= start_col
                if has_nonloop:
                    runm2 &= ~finished
                    newly = (~loop_col) & runm2 & (runtime >= cycle_col)
                    if newly.any():
                        finished |= newly
                        runm2 &= ~newly
                    position = np.where(
                        loop_col, np.mod(runtime, cycle_col), runtime
                    )
                else:
                    position = np.mod(runtime, cycle_col)
                if terms.refresh(runm2, position):
                    draw_mask[:n_thr] = runm2
                    normal_stream.set_mask(draw_mask_flat)
                draws = normal_stream.next().reshape(n_thr + 1, width)
                np.copyto(
                    ou, ou_alpha * ou + ou_noise * draws[:n_thr], where=runm2
                )
                mod2 = np.maximum(1.0 + variability * ou, 0.1)
                runtime += terms.rt_inc
                ctx += terms.ctx_inc

                # (3) CPU packages: per-thread execution and traffic
                # computed for every (thread, lane) at once, then
                # accumulated into per-package partials in thread order
                # by one fold over the packages' thread slots (row
                # layout mirrors the scalar accumulators).
                tgt = np.maximum(np.minimum(g_upc * mod2, max_upc), 1.0e-6)
                cpi = 1.0 / tgt
                stall = g_sm * latency
                # Each per-thread quantity lands in its contrib row.
                texec2 = np.divide(
                    terms.smt_tc, cpi + stall, out=contrib[:, 0]
                )
                np.multiply(texec2, g_wf1, out=contrib[:, 1])
                np.multiply(texec2, g_fp, out=contrib[:, 2])
                np.multiply(terms.spec_tc, mod2, out=contrib[:, 3])
                kuops = texec2 / 1000.0
                lm = np.multiply(kuops * g_l3, mod2, out=contrib[:, 4])
                wb = np.multiply(lm, terms.wbf, out=contrib[:, 5])
                tlbm = np.multiply(kuops * g_tlbk, mod2, out=contrib[:, 9])
                pw = np.multiply(tlbm, pw_per_tlb, out=contrib[:, 6])
                pf = np.multiply(
                    (lm * ppm) * g_stream, ramp, out=contrib[:, 7]
                )
                tx2 = np.add(
                    (((lm + wb) + pw) + contrib[:, 8]), pf, out=contrib[:, 11]
                )
                np.multiply(g_stream, tx2, out=contrib[:, 10])
                terms.fold(acc)
                (
                    p_exec, p_fetch, p_fp, p_spec, p_dlm, p_wb, p_pw, p_pf,
                    p_ua, p_tlb, p_streamw, p_weight, p_fr, p_fw, p_hw,
                    p_nrx, p_ntx,
                ) = acc
                ib = np.minimum((irq * isc) / cycles, 0.5)
                occ = np.where(active_pkg, np.minimum(occm + ib, 1.0), ib)
                halted = np.multiply(cycles, 1.0 - occ, out=bus_terms[:, 7])
                idle_uops = cycles * ib
                fetched = np.where(active_pkg, p_fetch, idle_uops * 0.4)
                executed = np.where(active_pkg, p_exec, idle_uops * 0.35)
                stream_p = np.where(
                    active_pkg & (p_weight > 0), p_streamw / p_weight, 0.5
                )
                rhr = np.where(p_fr > 0, p_hw / p_fr, 1.0)
                # Package power (CpuPackage.power, vectorized per row).
                occ_pw = 1.0 - halted / cycles
                fupc = fetched / cycles
                eupc = executed / cycles
                supc = p_spec / cycles
                fp_share = np.where(executed > 0, p_fp / executed, 0.0)
                issue = np.minimum(
                    eupc / np.where(occ_pw > 1.0e-9, occ_pw, 1.0e-9), 1.0
                )
                ascale = stall_fraction + (1.0 - stall_fraction) * issue
                dynamic = (uop_w * fupc) * (1.0 + fp_premium * fp_share) + (
                    spec_w * supc
                )
                np.add(
                    halted_v
                    + ((active_delta * occ_pw) * ascale) * power_scale,
                    dynamic * power_scale,
                    out=bus_terms[:, 6],
                )
                # System folds, summed in package order like the scalar
                # per-quantity accumulators.
                np.add((p_dlm + p_wb) + p_pw, p_ua, out=sys_terms[:, 0])
                sys_terms[:, 1] = p_pf
                sys_terms[:, 2] = p_fr
                sys_terms[:, 3] = p_fw
                sys_terms[:, 4] = p_tlb
                np.multiply(rhr, p_fr, out=sys_terms[:, 5])
                sys_terms[:, 6] = p_nrx
                sys_terms[:, 7] = p_ntx
                sys_fold = np.add.reduce(sys_terms, axis=0)
                (
                    demand, prefetch_sum, file_read, file_write, tlb_total,
                    weighted_hit,
                ) = sys_fold[:6]

                # (4) Page cache: dirty accounting and writeback policy.
                fault_read = (tlb_total * fault_ratio) * fault_bytes
                total_read = file_read + fault_read
                hit_ratio = np.where(
                    total_read > 0, weighted_hit / total_read, 1.0
                )
                if terms.sync_req is not None:
                    np.copyto(pc_pending, pc_dirty, where=terms.sync_req)
                pc_dirty += (file_write / dt) * dt
                read_req = ((total_read / dt) * dt) * (1.0 - hit_ratio)
                q_rand_read += read_req
                in_sync = pc_pending > 0.0
                frac = pc_dirty / pc_bytes
                over_bg = frac > bg_ratio
                # A lane neither syncing nor over the background ratio
                # writes nothing back; when no lane does, the writeback
                # would add +0.0 to state that is never -0.0 and is
                # skipped.
                if in_sync.any() or over_bg.any():
                    drained_s = np.minimum(
                        np.minimum(pc_pending, pc_dirty), wc_dt
                    )
                    in_bg = ~in_sync & over_bg
                    urgency = np.minimum(1.0, (frac - bg_ratio) / pc_denom)
                    drained_b = np.minimum(
                        pc_dirty, wc_dt * (0.15 + 0.85 * urgency)
                    )
                    write_bytes = np.where(
                        in_sync, drained_s, np.where(in_bg, drained_b, 0.0)
                    )
                    pc_dirty -= write_bytes
                    np.copyto(
                        pc_pending, pc_pending - drained_s, where=in_sync
                    )
                    pc_synced += np.where(in_sync, drained_s, 0.0)
                    np.copyto(
                        pc_pending, 0.0, where=in_sync & (pc_dirty <= 0.0)
                    )
                    np.maximum(pc_dirty, 0.0, out=pc_dirty)
                    q_seq_write += write_bytes

                # (5) Disk service: budget shared across queues in fixed
                # order (sequential writes, then random reads; the
                # sequential-read and random-write queues are
                # structurally empty).  As in the scalar disk, a queue
                # holding no bytes is not served — nor one left a tiny
                # negative remainder by an earlier service's rounding.
                svc = np.where(
                    q_seq_write > 0.0,
                    np.minimum(disk_budget0, q_seq_write / seq_thr),
                    0.0,
                )
                served_sw = np.multiply(svc, seq_thr, out=served2[1])
                q_seq_write -= served_sw
                budget = disk_budget0 - svc
                seek_s = np.multiply(svc, seq_seekf, out=i_seek0)
                xfer_s = np.multiply(svc, 1.0 - seq_seekf, out=i_xfer0)
                svc = np.where(
                    q_rand_read > 0.0,
                    np.minimum(budget, q_rand_read / rand_thr),
                    0.0,
                )
                served_rr = np.multiply(svc, rand_thr, out=served2[0])
                q_rand_read -= served_rr
                seek_s += svc * rand_seekf
                xfer_s += svc * (1.0 - rand_seekf)
                # Ground-truth powers land in their last_powers rows
                # (cpu, chipset, memory, io, disk) as they are found.
                disk_power = np.add(
                    rot_n,
                    seek_w * (seek_s / dt) + xfer_w * (xfer_s / dt),
                    out=last_powers[4],
                )
                served_bytes = np.add(served_rr, served_sw, out=i_disk_bytes0)
                disk_total_arr += served_bytes

                # (6) DMA for the disk array and the NIC's own engine,
                # stacked: device row 0 is the disk DMA, row 1 the NIC.
                # Coalesced completion interrupts round-robin across
                # packages through one shared cursor (disk, then NIC).
                # dev_bytes[0] moves into memory (DMA-in, NIC rx),
                # dev_bytes[1] out of it (DMA-out, NIC tx).
                np.add(served2, bg_half, out=dev_bytes[:, 0])
                np.multiply(
                    np.minimum(sys_fold[6:], nic_line), dt, out=dev_bytes[:, 1]
                )
                dev_io = dev_bytes[0] + dev_bytes[1]
                nic_total += dev_io[1]
                dev_snoops = dev_io / line_bytes
                dev_txn = (dev_io / 512.0) * tx_factor
                dev_residual += dev_io / dev_bpi
                dev_ints = np.floor(dev_residual)
                dev_residual -= dev_ints
                dev_unc = dev_ints * 3.0
                # [[DMA, NIC] DRAM writes, [DMA, NIC] DRAM reads].
                dev_dram = dev_bytes / line_bytes
                ints = dev_ints.astype(np.int64)
                cursor2[0] = irq_cursor
                np.add(irq_cursor, ints[0], out=cursor2[1])
                cursor2[1] %= n_pkg
                kk = (pkg_col - cursor2[:, None, :]) % n_pkg
                recv = (ints[:, None, :] - kk + (n_pkg - 1)) // n_pkg
                pend_irq += recv
                acct_dev += recv
                np.add(cursor2[1], ints[1], out=irq_cursor)
                irq_cursor %= n_pkg

                # (7) Bus arbitration; grant ratios scale CPU traffic.
                # The fold over packages mirrors the scalar fused pass
                # (step 6/7 in system.py), in package order.
                total_snoops = dev_snoops[0] + dev_snoops[1]
                demand += total_snoops
                sat = demand >= bus_cap_dt
                dr = np.where(sat, bus_cap_dt / demand, 1.0)
                pr = np.where(
                    sat,
                    0.0,
                    np.where(
                        prefetch_sum > 0,
                        np.minimum(
                            (bus_cap_dt - demand) / prefetch_sum, 1.0
                        ),
                        1.0,
                    ),
                )
                granted_total = demand * dr + prefetch_sum * pr
                util = np.minimum(granted_total / bus_cap_dt, 1.0)
                eff = np.minimum(util * bus_cf, 0.875)
                np.divide(base_latency, 1.0 - eff, out=bus_latency)
                granted_snoops = total_snoops * dr
                g_dlm = np.multiply(p_dlm, dr, out=i_l3)
                g_wb = np.multiply(p_wb, dr, out=bus_terms[:, 1])
                g_pw = p_pw * dr
                g_ua = np.multiply(p_ua, dr, out=bus_terms[:, 4])
                g_pf = np.multiply(p_pf, pr, out=bus_terms[:, 5])
                own_tx = np.add(
                    ((g_dlm + g_wb) + g_pw) + g_ua, g_pf, out=bus_terms[:, 2]
                )
                np.add(g_dlm + g_pw, g_pf, out=bus_terms[:, 0])
                np.multiply(stream_p, own_tx, out=bus_terms[:, 3])
                bus_fold = np.add.reduce(bus_terms, axis=0)
                (
                    cpu_reads, cpu_writes, traffic_weight, stream_weighted,
                    uncacheable_cpu, prefetch_total, cpu_power, halted_total,
                ) = bus_fold
                blended = np.where(
                    traffic_weight > 0, stream_weighted / traffic_weight, 0.5
                )
                # Row 0 the CPU's access streams (one more while a
                # device is moving data), row 1 the devices'.  The
                # counts are small integers, exact in either type.
                stream_count = np.maximum(
                    terms.n_run + (dev_io > 0).any(axis=0),
                    1.0,
                    out=streams2[0],
                )
                np.maximum(stream_count * 0.25, 1.0, out=streams2[1])

                # (8) DRAM: granted CPU traffic plus device DMA, stacked
                # as [[CPU reads, CPU writes], [DMA reads, DMA writes]]
                # and, for row hits, CPU then devices.
                dram4[0] = bus_fold[:2]
                np.add(dev_dram[::-1, 0], dev_dram[::-1, 1], out=dram4[1])
                drr, drw = dram4[1]
                total_acc = ((cpu_reads + cpu_writes) + drr) + drw
                over = total_acc > dram_cap_dt
                scaled = np.where(over, dram4 * (dram_cap_dt / total_acc), dram4)
                total_acc = np.where(over, dram_cap_dt, total_acc)
                np.add(
                    row_rand, (row_stream - row_rand) * blended, out=hit_base[0]
                )
                hits = (
                    1.0 / (1.0 + 0.03 * np.maximum(0.0, streams2 - 1.0))
                ) * hit_base
                # [CPU, DMA] accesses times their row-miss rates.
                misses = (scaled[:, 0] + scaled[:, 1]) * (1.0 - hits)
                activations = np.add(misses[0], misses[1], out=i_dram_act0)
                dram_reads, dram_writes = np.add(
                    scaled[0], scaled[1], out=i_dram_rw0
                )
                dram_energy = (
                    dram_reads * dram_re
                    + dram_writes * dram_we
                    + activations * dram_ae
                    + dram_bg_dt
                )
                row_hit = np.where(
                    total_acc > 0, 1.0 - activations / total_acc, 1.0
                )
                eff_cap = dram_cap_dt * (
                    row_hit + (1.0 - row_hit) * dram_rtf
                )
                util_d = total_acc / eff_cap
                congestion = np.minimum(util_d * dram_cf, dram_cong_cap)
                np.divide(1.0, 1.0 - congestion, out=dram_latency)
                active_fraction = np.minimum(1.0, util_d)
                memory_power = np.divide(dram_energy, dt, out=last_powers[2])

                # (9) Chipset and I/O ground-truth power; energy books.
                unc_total = (uncacheable_cpu + dev_unc[0]) + dev_unc[1]
                sa = 1.0 - halted_total / cycles_total
                np.add(
                    chip_mean + chip_alpha * (chip_offset - chip_mean),
                    chip_noise * draws[n_thr],
                    out=chip_offset,
                )
                gate = (sa * sa) * (3.0 - 2.0 * sa)
                dynamic_c = chip_bus_w * util + chip_io_w * np.minimum(
                    1.0, (unc_total / dt) / 2.0e5
                )
                chipset_power = np.add(
                    chip_nominal + dynamic_c * 0.35,
                    chip_offset * gate,
                    out=last_powers[1],
                )
                io_bytes = np.add(dev_io[0], dev_io[1], out=i_io_bytes0)
                io_txn = np.add(dev_txn[0], dev_txn[1], out=i_io_tx0)
                io_energy = (
                    io_bytes * io_sw_e
                    + io_txn * io_tx_e
                    + unc_total * 0.15e-6
                )
                io_power = np.add(io_static, io_energy / dt, out=last_powers[3])
                io_total += io_bytes
                last_powers[0] = cpu_power
                energy5 += last_powers * dt
                e_time += dt
                batch_energy += (
                    (((cpu_power + chipset_power) + memory_power) + io_power)
                    + disk_power
                ) * dt

                # (10) Per-process accounting (needs the bus grant).
                proc_runtime += terms.prt_inc
                proc_uops += np.where(runm2[:, None], contrib[:, :2], 0.0)
                proc_bus += np.where(runm2, tx2 * dr, 0.0)

                # (11) Counters (the scalar fast path, rows as arrays):
                # the increments not yet in place, then one add.
                driver_unc = (dev_unc[0] + dev_unc[1]) / n_pkg
                oc = (traffic_weight - own_tx) * _CROSS_COHERENCE_FRACTION
                i_halted[:] = halted
                i_fetched[:] = fetched
                i_tlb[:] = p_tlb
                np.add(g_ua, driver_unc, out=i_unc)
                np.add(granted_snoops, oc, out=i_dma)
                np.add(own_tx + granted_snoops, oc, out=i_bus)
                np.multiply(active_fraction, dt, out=i_dram_time0)
                i_prefetch0[:] = prefetch_total
                i_writeback0[:] = cpu_writes
                np.divide(served_bytes, 512.0, out=i_sectors0)
                i_ctx0[:] = ctx
                c3 += inc

                # (12) Instrumentation: the DAQ integrates power every
                # tick; a lane whose sampler deadline passed closes its
                # window (counter snapshot + DAQ means + monitor pulse).
                k = tick % _DRIFT_BLOCK
                if k == 0:
                    drift = self._drift_block(
                        now, min(_DRIFT_BLOCK, n_ticks - tick)
                    )
                wenergy += ((last_powers * gains) * drift[k]) * dt
                closing = act & (now + 1.0e-12 >= samp_deadline)
                if closing.any():
                    closed = np.nonzero(closing)[0]
                    for lane_i in closed:
                        lane = int(lane_i)
                        now_l = float(now[lane])
                        snap = c3[:, :, lane].copy()
                        c3[:, :, lane] = 0.0
                        samp_ts[lane].append(now_l)
                        samp_dur[lane].append(
                            now_l - float(samp_wstart[lane])
                        )
                        samp_counts[lane].append(snap)
                        samp_wstart[lane] = now_l
                        jitter = float(
                            samp_gens[lane].normal(0.0, sample_jitter)
                        )
                        samp_deadline[lane] = now_l + max(
                            sample_period + jitter, 1.0e-3
                        )
                        duration = now_l - float(daq_wstart[lane])
                        if duration <= 0.0:
                            raise ValueError(
                                "sync pulses must advance in time"
                            )
                        samples = max(1.0, daq_rate * duration)
                        noise = math.hypot(
                            daq_noise_rel / math.sqrt(samples), 0.0015
                        )
                        lane_means = daq_means[lane]
                        gen = daq_gens[lane]
                        for si in range(5):
                            mean = float(wenergy[si, lane]) / duration
                            mean *= 1.0 + noise * float(
                                gen.standard_normal()
                            )
                            lane_means[si].append(mean)
                            wenergy[si, lane] = 0.0
                        daq_ts[lane].append(now_l)
                        daq_wstart[lane] = now_l
                        stack = monitors.get(lane)
                        if stack:
                            view = self.lane(lane)
                            for monitor in stack:
                                monitor.on_window(view, now_l)
                    if fleet_monitor is not None:
                        fleet_monitor.on_pulse(
                            self, closed, float(now[closed[0]])
                        )

        if saved is not None:
            for name, block in zip(self._STATE_NAMES, saved):
                getattr(self, name)[..., frozen] = block
        if obs_on:
            self._record_telemetry(n_ticks, act, _monotonic() - t0)
        return np.where(act, batch_energy, 0.0)

    def _drift_block(self, now: np.ndarray, n: int) -> np.ndarray:
        """The DAQ gain drift of ``n`` ticks from ``now``, ``(n, 5, width)``.

        Row ``j`` is the factor the tick ``j`` ticks on applies: the
        clock's sequential ``now += dt`` is replayed by one
        ``np.add.accumulate`` (also sequential), so each angle is the
        one that tick computes.
        """
        steps = np.full((n, self.width), self._dt)
        steps[0] = now
        angle = (2.0 * math.pi * np.add.accumulate(steps, axis=0)) / 900.0
        return 1.0 + self._drift_rel * np.sin(
            angle[:, None, :] + self._drift_phases
        )

    def _record_telemetry(
        self, n_ticks: int, act: np.ndarray, elapsed_s: float
    ) -> None:
        """Batch-boundary profiling hook (one-bool cost when disabled).

        Mirrors ``Server._record_telemetry`` under ``fleet_``-prefixed
        names; ``fleet_lane_ticks_*`` aggregate over active lanes.
        """
        reg = obs.registry()
        labels = {"workload": self.workload.name}
        lane_ticks = float(n_ticks) * float(act.sum())
        reg.inc("fleet_lane_ticks_total", lane_ticks, labels)
        reg.observe(
            "fleet_batch_ticks", float(n_ticks), labels,
            buckets=_BATCH_BUCKETS,
        )
        reg.observe("fleet_run_ticks_seconds", elapsed_s, labels)
        if elapsed_s > 0:
            reg.gauge(
                "fleet_lane_ticks_per_second", lane_ticks / elapsed_s, labels
            )
        reg.gauge("fleet_width", float(self.width), labels)
        reg.gauge("fleet_time_seconds", self.now_s, labels)


# -- lane views --------------------------------------------------------
#
# Read-only facades exposing one lane of the SoA state through the same
# attribute surface the scalar ``Server`` offers (``counters.
# _rows``/``peek``, ``sampler.last_window``/``finish``, ``energy.
# _energy_j``/``mean_power_w``, ``process_stats``, ``_last_breakdown``)
# so monitors and tests written against ``Server`` read fleet lanes
# unchanged.


class _LaneCounters:
    """One lane's counter bank (``CounterBank``-shaped slice)."""

    __slots__ = ("_fleet", "_lane", "events", "n_cpus")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane
        self.events = _EVENTS
        self.n_cpus = fleet._n_pkg

    @property
    def _rows(self) -> "list[list[float]]":
        c3 = self._fleet._counts3d
        return [c3[i, :, self._lane].tolist() for i in range(_N_EVENTS)]

    def peek(self, event: Event) -> np.ndarray:
        return np.array(
            self._fleet._counts3d[_EIDX[event], :, self._lane], dtype=float
        )

    def read_and_clear(self) -> "dict[Event, np.ndarray]":
        c3 = self._fleet._counts3d
        snapshot = {}
        for event in _EVENTS:
            row = c3[_EIDX[event], :, self._lane]
            snapshot[event] = np.array(row, dtype=float)
            row[:] = 0.0
        return snapshot


class _LaneSampler:
    """One lane's counter sampler (``CounterSampler``-shaped)."""

    __slots__ = ("_fleet", "_lane")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane

    @property
    def n_samples(self) -> int:
        return len(self._fleet._samp_ts[self._lane])

    def last_window(self):
        fleet, lane = self._fleet, self._lane
        if not fleet._samp_ts[lane]:
            return None
        snap = fleet._samp_counts[lane][-1]
        counts = {event: snap[_EIDX[event]] for event in _EVENTS}
        return fleet._samp_ts[lane][-1], fleet._samp_dur[lane][-1], counts

    def disable(self) -> None:
        self._fleet._samp_deadline[self._lane] = np.inf

    def finish(self) -> CounterTrace:
        fleet, lane = self._fleet, self._lane
        if not fleet._samp_ts[lane]:
            raise ValueError(
                "no counter samples collected; run longer than one sample "
                "period"
            )
        snaps = fleet._samp_counts[lane]
        counts = {
            event: np.vstack([snap[_EIDX[event]] for snap in snaps])
            for event in _EVENTS
        }
        return CounterTrace(
            timestamps=np.asarray(fleet._samp_ts[lane]),
            durations=np.asarray(fleet._samp_dur[lane]),
            counts=counts,
        )


class _LaneEnergy:
    """One lane's energy account (``EnergyAccount``-shaped)."""

    __slots__ = ("_fleet", "_lane")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane

    @property
    def _energy_j(self) -> "dict[Subsystem, float]":
        row = self._fleet._energy5
        lane = self._lane
        return {s: float(row[i, lane]) for i, s in enumerate(SUBSYSTEMS)}

    @property
    def elapsed_s(self) -> float:
        return float(self._fleet._e_time[self._lane])

    def mean_power_w(self, subsystem: Subsystem) -> float:
        fleet, lane = self._fleet, self._lane
        elapsed = float(fleet._e_time[lane])
        if elapsed == 0:
            raise ValueError("no energy recorded yet")
        return float(fleet._energy5[_SIDX[subsystem], lane]) / elapsed

    def total_energy_j(self) -> float:
        row = self._fleet._energy5
        lane = self._lane
        return float(sum(row[i, lane] for i in range(5)))


#: Subsystem -> energy row index, in ``SUBSYSTEMS`` order.
_SIDX = {s: i for i, s in enumerate(SUBSYSTEMS)}


class _LaneView:
    """Read-only ``Server`` facade over one fleet lane.

    Everything monitors and analysis code read off a scalar server —
    ``now_s``, ``counters``, ``sampler``, ``energy``, ``process_stats``,
    ``_last_breakdown`` — resolves to the lane's slice of the fleet
    arrays.  It is a *view*: stepping the fleet advances what it reads.
    """

    __slots__ = ("_fleet", "_lane", "config", "workload", "counters",
                 "sampler", "energy")

    def __init__(self, fleet: "FleetServer", lane: int) -> None:
        self._fleet = fleet
        self._lane = lane
        self.config = fleet.config
        self.workload = fleet.workload
        self.counters = _LaneCounters(fleet, lane)
        self.sampler = _LaneSampler(fleet, lane)
        self.energy = _LaneEnergy(fleet, lane)

    @property
    def now_s(self) -> float:
        return float(self._fleet._now[self._lane])

    @property
    def _last_breakdown(self) -> "PowerBreakdown | None":
        fleet, lane = self._fleet, self._lane
        if fleet._e_time[lane] == 0:
            return None
        p = fleet._last_powers[:, lane]
        return PowerBreakdown(
            cpu_w=float(p[0]),
            chipset_w=float(p[1]),
            memory_w=float(p[2]),
            io_w=float(p[3]),
            disk_w=float(p[4]),
        )

    @property
    def process_stats(self) -> "dict[int, ProcessStats]":
        fleet, lane = self._fleet, self._lane
        stats = {}
        for k in range(fleet._n_thr):
            if fleet._ran_ever[k, lane]:
                stats[k] = ProcessStats(
                    thread_id=k,
                    runtime_s=float(fleet._proc_runtime[k, lane]),
                    executed_uops=float(fleet._proc_uops[k, 0, lane]),
                    fetched_uops=float(fleet._proc_uops[k, 1, lane]),
                    bus_transactions=float(fleet._proc_bus[k, lane]),
                )
        return stats


def simulate_fleet(
    workload: WorkloadSpec,
    duration_s: float = 300.0,
    seeds: "tuple[int, ...] | list[int]" = (1,),
    config: "SystemConfig | None" = None,
    pstate: int = 0,
) -> "list[MeasuredRun]":
    """Simulate ``workload`` on ``len(seeds)`` lanes in one fleet pass.

    Lane ``i`` reproduces ``simulate_workload(workload, duration_s,
    seed=seeds[i], config, pstate)`` — same seed mixing, same metadata —
    with counters and energy bit-identical and DAQ power traces
    tolerance-bounded (use :func:`simulate_workload` for bit-exact
    traces).
    """
    mixed = [
        (int(seed) * 1000003 + _stable_hash(workload.name)) % (2**31)
        for seed in seeds
    ]
    fleet = FleetServer(config or SystemConfig(), workload, mixed)
    if pstate:
        fleet.set_all_pstates(pstate)
    runs = fleet.run(duration_s)
    for run, base in zip(runs, seeds):
        run.metadata["base_seed"] = int(base)
        run.metadata["pstate"] = int(pstate)
    return runs
