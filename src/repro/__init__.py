"""repro: a full reproduction of dCat (EuroSys 2018) on a simulated x86 platform.

dCat is a dynamic last-level-cache manager built on Intel Cache Allocation
Technology: it guarantees every tenant the performance of its reserved cache
partition while harvesting under-used ways for cache-hungry neighbors.

Package layout:

* :mod:`repro.core` — the dCat controller (the paper's contribution);
* :mod:`repro.cache`, :mod:`repro.mem`, :mod:`repro.cpu`,
  :mod:`repro.hwcounters`, :mod:`repro.cat` — the hardware substrates,
  modeled because no CAT-capable hardware is assumed;
* :mod:`repro.workloads` — microbenchmarks (MLR/MLOAD/lookbusy), SPEC
  CPU2006 proxies, and Redis/PostgreSQL/Elasticsearch application models;
* :mod:`repro.platform` — VMs, pinning, and the simulation loop;
* :mod:`repro.harness` — one runner per paper figure/table.

Quickstart::

    from repro import quick_dcat_demo
    result = quick_dcat_demo()
"""

from repro.core import DCatConfig, DCatController, WorkloadState
from repro.platform import (
    CloudSimulation,
    DCatManager,
    Machine,
    SharedCacheManager,
    StaticCatManager,
    VirtualMachine,
    pin_vms,
)

__version__ = "1.0.0"

__all__ = [
    "DCatConfig",
    "DCatController",
    "WorkloadState",
    "CloudSimulation",
    "DCatManager",
    "Machine",
    "SharedCacheManager",
    "StaticCatManager",
    "VirtualMachine",
    "pin_vms",
    "quick_dcat_demo",
]


def quick_dcat_demo(duration_s: float = 30.0):
    """Run the canonical scenario: one MLR VM among lookbusy neighbors.

    Returns the :class:`~repro.platform.sim.SimulationResult`; see
    ``examples/quickstart.py`` for a walk-through of reading it.
    """
    from repro.mem.address import MB
    from repro.platform.vm import pin_vms as _pin
    from repro.workloads import LookbusyWorkload, MlrWorkload

    machine = Machine()
    vms = [
        VirtualMachine(
            name="target",
            workload=MlrWorkload(8 * MB, start_delay_s=2.0),
            baseline_ways=3,
        )
    ] + [
        VirtualMachine(
            name=f"lookbusy-{i}", workload=LookbusyWorkload(), baseline_ways=3
        )
        for i in range(5)
    ]
    _pin(vms, machine.spec)
    sim = CloudSimulation(machine, vms, DCatManager())
    return sim.run(duration_s)
