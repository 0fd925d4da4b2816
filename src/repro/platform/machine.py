"""The simulated host: socket, LLC models, CAT, PMUs, DRAM, clocks.

A :class:`Machine` assembles every hardware-facing substrate into the thing
the hypervisor layer and the controllers run against:

* a :class:`~repro.cpu.socket.SocketSpec` (topology, LLC geometry);
* the CAT device with its pqos-style library and resctrl frontend;
* one PMU per hardware thread, fed by per-thread core timing models, each
  built when a vCPU is first pinned to its thread
  (:meth:`Machine.build_cores`);
* the fast analytical LLC model plus a shared-cache contention solver;
* a DRAM model whose loaded latency feeds back into the core models.

Virtual time is advanced by :class:`~repro.platform.sim.CloudSimulation` in
controller-interval steps; the machine just owns state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.cache.analytical import AnalyticalCacheModel
from repro.cache.contention import SharedCacheContentionModel
from repro.cat.cat import CacheAllocationTechnology
from repro.cat.cmt import CacheMonitoringTechnology
from repro.cat.pqos import PqosLibrary
from repro.cat.resctrl import ResctrlFilesystem
from repro.cpu.coremodel import CoreTimingModel
from repro.cpu.socket import SocketSpec
from repro.hwcounters.msr import CorePmu
from repro.hwcounters.perfmon import PerfMonitor
from repro.mem.dram import DramModel

__all__ = ["Machine"]


class Machine:
    """One simulated host server.

    Args:
        spec: Socket description; defaults to the paper's Xeon E5-2697 v4.
        cycles_per_interval: Scaled unhalted cycles per fully-busy core per
            control interval (see :class:`CoreTimingModel`).
        interval_s: Control/observation interval in virtual seconds.
        seed: Master seed; every per-core noise stream derives from it.
        noise_sigma: Relative IPC measurement noise per core per interval.
    """

    def __init__(
        self,
        spec: Optional[SocketSpec] = None,
        cycles_per_interval: int = 2_000_000,
        interval_s: float = 1.0,
        seed: int = 1234,
        noise_sigma: float = 0.005,
    ) -> None:
        self.spec = spec if spec is not None else SocketSpec.xeon_e5_2697v4()
        if cycles_per_interval < 1:
            raise ValueError("cycles_per_interval must be positive")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.cycles_per_interval = cycles_per_interval
        self.interval_s = interval_s

        llc = self.spec.llc
        self.cat = CacheAllocationTechnology(
            num_ways=llc.num_ways, num_cores=self.spec.num_threads
        )
        self.pqos = PqosLibrary(self.cat, way_size_bytes=llc.way_bytes)
        self.resctrl = ResctrlFilesystem(self.cat, way_size_bytes=llc.way_bytes)
        self.cmt = CacheMonitoringTechnology(num_cores=self.spec.num_threads)

        self.analytic = AnalyticalCacheModel(llc)
        self.contention = SharedCacheContentionModel(self.analytic)
        self.dram = DramModel()

        self._seed = seed
        # Every core's seed, drawn when the first core is built.
        self._core_seeds: Optional[np.ndarray] = None
        self._noise_sigma = noise_sigma
        # Monitors over every core, which adopt each core as it is built.
        self._monitors: List[PerfMonitor] = []
        # The cores built so far; the per-interval stages only reach pinned
        # cores, and pinning builds a core.
        self.pmus: Dict[int, CorePmu] = {}
        self.core_models: Dict[int, CoreTimingModel] = {}

    def build_cores(self, cores: Iterable[int]) -> None:
        """Build the PMU, register file and timing model of each listed core
        not built yet.  Pinning a vCPU to a core builds it; a host's idle
        cores are never built.

        Raises:
            KeyError: For a core this socket does not have.
        """
        for core in cores:
            if core not in self.pmus:
                self._build_core(core)

    def _build_core(self, core: int) -> None:
        if not 0 <= core < self.spec.num_threads:
            raise KeyError(core)
        if self._core_seeds is None:
            # One draw seeds every core, in core order: the same values as
            # one scalar draw per core, and a core's stream does not depend
            # on when (or whether) it or any other core is built.  An idle
            # host never draws: the draw's generator costs more to build
            # than the rest of the Machine.
            self._core_seeds = np.random.default_rng(self._seed).integers(
                0, 2**63, size=self.spec.num_threads
            )
        pmu = self.pmus[core] = CorePmu()
        self.core_models[core] = CoreTimingModel(
            cycles_per_interval=self.cycles_per_interval,
            dram=self.dram,
            noise_sigma=self._noise_sigma,
            seed=int(self._core_seeds[core]),
        )
        for monitor in self._monitors:
            monitor.adopt(core, pmu)

    # -- derived quantities --------------------------------------------------

    @property
    def num_ways(self) -> int:
        return self.spec.llc.num_ways

    def new_perfmon(self) -> PerfMonitor:
        """A perf monitor over every thread.

        It builds no core: each core adopts its programming when it is
        built, and its first sample counts from the reset snapshot, exactly
        as if it had been built with the monitor.
        """
        monitor = PerfMonitor(self.pmus, cores=range(self.spec.num_threads))
        self._monitors.append(monitor)
        return monitor

    def effective_ways(self, core: int) -> int:
        """Ways the core's current COS mask grants it."""
        mask = self.cat.effective_mask(core)
        return bin(mask).count("1")
