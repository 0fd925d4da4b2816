"""The simulated host: socket, LLC models, CAT, PMUs, DRAM, clocks.

A :class:`Machine` assembles every hardware-facing substrate into the thing
the hypervisor layer and the controllers run against:

* a :class:`~repro.cpu.socket.SocketSpec` (topology, LLC geometry);
* the CAT device with its pqos-style library and resctrl frontend;
* one PMU per hardware thread, fed by per-thread core timing models;
* the fast analytical LLC model plus a shared-cache contention solver;
* a DRAM model whose loaded latency feeds back into the core models.

Virtual time is advanced by :class:`~repro.platform.sim.CloudSimulation` in
controller-interval steps; the machine just owns state.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

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

        self.pmus: Dict[int, CorePmu] = {
            t: CorePmu() for t in range(self.spec.num_threads)
        }
        master = np.random.default_rng(seed)
        self.core_models: Dict[int, CoreTimingModel] = {
            t: CoreTimingModel(
                cycles_per_interval=cycles_per_interval,
                dram=self.dram,
                noise_sigma=noise_sigma,
                rng=np.random.default_rng(master.integers(0, 2**63)),
            )
            for t in range(self.spec.num_threads)
        }

    # -- derived quantities --------------------------------------------------

    @property
    def num_ways(self) -> int:
        return self.spec.llc.num_ways

    def new_perfmon(self, cores: Optional[Iterable[int]] = None) -> PerfMonitor:
        """A perf monitor over the given cores (default: all threads)."""
        selected = (
            self.pmus
            if cores is None
            else {c: self.pmus[c] for c in cores}
        )
        return PerfMonitor(selected)

    def effective_ways(self, core: int) -> int:
        """Ways the core's current COS mask grants it."""
        mask = self.cat.effective_mask(core)
        return bin(mask).count("1")
