"""Multi-tenant platform: machine, VMs, cache managers, simulation loop."""

from repro.platform.machine import Machine
from repro.platform.managers import (
    CacheManager,
    DCatManager,
    SharedCacheManager,
    StaticCatManager,
)
from repro.platform.sim import CloudSimulation, SimulationResult, VmIntervalRecord
from repro.platform.substrate import (
    FIDELITIES,
    AnalyticalSubstrate,
    CacheSubstrate,
    ExactSubstrate,
    MixedSubstrate,
    build_substrate,
    get_default_fidelity,
    set_default_fidelity,
    use_fidelity,
)
from repro.platform.vm import VirtualMachine, pin_vms

__all__ = [
    "Machine",
    "CacheManager",
    "DCatManager",
    "SharedCacheManager",
    "StaticCatManager",
    "CloudSimulation",
    "SimulationResult",
    "VmIntervalRecord",
    "FIDELITIES",
    "CacheSubstrate",
    "AnalyticalSubstrate",
    "ExactSubstrate",
    "MixedSubstrate",
    "build_substrate",
    "get_default_fidelity",
    "set_default_fidelity",
    "use_fidelity",
    "VirtualMachine",
    "pin_vms",
]
