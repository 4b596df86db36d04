"""Scalar reference for the vectorized fleet: one real ``Server`` per lane.

:class:`ScalarFleet` offers the :class:`~repro.simulator.fleet.FleetServer`
surface that :class:`~repro.cluster.Cluster`, the datacenter and
:func:`~repro.simulator.fleet.simulate_fleet` use, but steps one scalar
:class:`~repro.simulator.system.Server` per seed.  Equivalence tests
swap it in for ``FleetServer`` (``monkeypatch.setattr(repro.cluster,
"FleetServer", ScalarFleet)``) to build the reference run; it is slow
and bit-exact everywhere, DAQ traces included.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.config import SystemConfig
from repro.simulator.system import Server
from repro.workloads.base import WorkloadSpec


class ScalarFleet:
    """``len(seeds)`` scalar servers behind the ``FleetServer`` API."""

    def __init__(
        self,
        config: SystemConfig,
        workload: WorkloadSpec,
        seeds: "list[int] | tuple[int, ...]",
    ) -> None:
        self.config = config
        self.workload = workload
        self.width = len(seeds)
        self._servers = [Server(config, workload, int(seed)) for seed in seeds]
        # Thread plans per lane; set_lane_threads enables a prefix.
        self._all_threads = [list(server.threads) for server in self._servers]

    @property
    def now_s(self) -> float:
        return max(server.now_s for server in self._servers)

    def _check_lane(self, lane: int) -> int:
        if not 0 <= lane < self.width:
            raise IndexError(f"lane {lane} out of range for width {self.width}")
        return int(lane)

    def lane(self, lane: int) -> Server:
        return self._servers[self._check_lane(lane)]

    def set_all_pstates(self, state_index: int) -> None:
        for server in self._servers:
            server.set_all_pstates(state_index)

    def set_lane_pstates(self, pstates) -> None:
        for server, state in zip(self._servers, pstates, strict=True):
            server.set_all_pstates(int(state))

    def lane_pstates(self) -> np.ndarray:
        return np.array(
            [server.packages[0].pstate_index for server in self._servers],
            dtype=np.int64,
        )

    def set_lane_threads(self, lane: int, n_threads: int) -> None:
        lane = self._check_lane(lane)
        self._servers[lane].threads = self._all_threads[lane][:n_threads]

    def disable_sampling(self) -> None:
        for server in self._servers:
            server.sampler.disable()

    def read_and_clear_lanes(self, lanes) -> dict:
        snaps = [self._servers[int(lane)].counters.read_and_clear() for lane in lanes]
        return {event: np.vstack([snap[event] for snap in snaps]) for event in snaps[0]}

    def attach_monitor(self, monitor, lane: int = 0) -> None:
        self.lane(lane).attach_monitor(monitor)

    def run_ticks(self, n_ticks: int, active=None) -> np.ndarray:
        energies = np.zeros(self.width)
        if n_ticks <= 0:
            return energies
        for lane, server in enumerate(self._servers):
            if active is None or active[lane]:
                energies[lane] = server.run_ticks(n_ticks)
        return energies

    def run(self, duration_s: float) -> list:
        return [server.run(duration_s) for server in self._servers]
