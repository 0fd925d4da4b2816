"""Shared scenario builders for the paper's experiments.

Most of the evaluation reuses one stage: the paper's Xeon E5-2697 v4 host
running a *target* VM next to MLOAD-60MB noisy neighbors and lookbusy
polite neighbors, compared under shared cache / static CAT / dCat.  These
helpers build that stage so every experiment module stays a short script.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import DCatConfig
from repro.mem.address import MB
from repro.platform.machine import Machine
from repro.platform.managers import (
    CacheManager,
    DCatManager,
    SharedCacheManager,
    StaticCatManager,
)
from repro.platform.sim import CloudSimulation, SimulationResult
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.base import Workload
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mload import MloadWorkload

__all__ = [
    "MLOAD_NOISY_BYTES",
    "paper_machine",
    "build_stage",
    "run_scenario",
    "manager_factories",
]

MLOAD_NOISY_BYTES = 60 * MB


def paper_machine(seed: int = 1234, interval_s: float = 1.0) -> Machine:
    """The evaluation host: Xeon E5-2697 v4, 20-way 45 MB LLC."""
    return Machine(seed=seed, interval_s=interval_s)


def build_stage(
    machine: Machine,
    target_workloads: Sequence[Workload],
    baseline_ways: int,
    n_mload: int = 0,
    n_lookbusy: int = 0,
    mload_start_delay_s: float = 0.0,
) -> List[VirtualMachine]:
    """One VM per target workload, plus noisy and polite neighbor VMs.

    All VMs get the same ``baseline_ways`` reservation, matching the paper's
    symmetric-tenant setups.
    """
    vms: List[VirtualMachine] = [
        VirtualMachine(name=w.name, workload=w, baseline_ways=baseline_ways)
        for w in target_workloads
    ]
    for i in range(n_mload):
        vms.append(
            VirtualMachine(
                name=f"mload-noisy-{i}",
                workload=MloadWorkload(
                    MLOAD_NOISY_BYTES,
                    start_delay_s=mload_start_delay_s,
                    name=f"mload-noisy-{i}",
                ),
                baseline_ways=baseline_ways,
            )
        )
    for i in range(n_lookbusy):
        vms.append(
            VirtualMachine(
                name=f"lookbusy-{i}",
                workload=LookbusyWorkload(name=f"lookbusy-{i}"),
                baseline_ways=baseline_ways,
            )
        )
    return pin_vms(vms, machine.spec)


def run_scenario(
    vms_factory: Callable[[Machine], List[VirtualMachine]],
    manager: CacheManager,
    duration_s: Optional[float] = None,
    watch: Optional[Sequence[str]] = None,
    max_duration_s: float = 600.0,
    seed: int = 1234,
    interval_s: float = 1.0,
) -> SimulationResult:
    """Build a fresh machine + VMs, run one manager, return the result.

    Each manager gets its own machine so runs are independent and seeds
    identical (paired comparison, the way the paper reruns the host).
    """
    machine = paper_machine(seed=seed, interval_s=interval_s)
    vms = vms_factory(machine)
    sim = CloudSimulation(machine, vms, manager)
    if watch is not None:
        return sim.run_until_finished(watch, max_duration_s=max_duration_s)
    if duration_s is None:
        raise ValueError("pass duration_s or watch")
    return sim.run(duration_s)


def manager_factories(
    dcat_config: Optional[DCatConfig] = None,
) -> Dict[str, Callable[[], CacheManager]]:
    """The paper's three regimes, by report label."""
    return {
        "shared": SharedCacheManager,
        "static": StaticCatManager,
        "dcat": lambda: DCatManager(config=dcat_config),
    }
