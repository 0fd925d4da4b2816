"""Cache managers: the three regimes the paper compares.

* :class:`SharedCacheManager` — no CAT at all; the LLC is a free-for-all and
  capacity splits by insertion pressure (the paper's "shared cache" bars).
* :class:`StaticCatManager` — each VM's reserved ways are programmed once
  and never change (the paper's "static partition" bars).
* :class:`DCatManager` — the dCat controller runs every interval.

A manager owns the control plane only; the data plane (hit rates, counters)
is computed by the simulation from the CAT state the manager programs.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.cat.layout import pack_contiguous
from repro.cat.pqos import PqosL3Ca
from repro.core.config import DCatConfig
from repro.core.controller import DCatController, StepResult
from repro.core.states import WorkloadState
from repro.engine.events import NULL_BUS, EventBus
from repro.platform.machine import Machine
from repro.platform.vm import VirtualMachine

__all__ = ["CacheManager", "SharedCacheManager", "StaticCatManager", "DCatManager"]


class CacheManager(abc.ABC):
    """Control-plane interface stepped by the simulation."""

    #: "shared" -> the simulation resolves capacity by contention;
    #: "partitioned" -> each VM's hit rate follows its CAT mask.
    mode: str = "partitioned"
    name: str = "manager"
    #: Event bus for control-plane events; the simulation injects its own
    #: bus via attach_bus() before calling setup().
    bus: EventBus = NULL_BUS

    def attach_bus(self, bus: EventBus) -> None:
        """Adopt the simulation's event bus (called before ``setup()``)."""
        self.bus = bus

    @abc.abstractmethod
    def setup(self, machine: Machine, vms: Sequence[VirtualMachine]) -> None:
        """Bind to the machine and program the initial state."""

    def control(self) -> None:
        """Run one control interval (after counters are updated)."""

    def attach_vm(self, vm: VirtualMachine) -> None:
        """Start managing a VM that arrived after :meth:`setup`.

        The default is a no-op: the shared manager has nothing to program
        (everyone fills everywhere), and the static manager's contract is
        that partitions are fixed at setup time, so a late arrival simply
        runs unmanaged on COS0.  Dynamic managers override this.
        """

    def detach_vm(self, vm_name: str) -> None:
        """Stop managing a departed VM (no-op for shared/static managers)."""

    def skip_idle(self, intervals: int) -> None:
        """Advance the control clock across idle intervals (no VMs attached).

        The discrete-event fleet clock calls this instead of
        :meth:`control` while a host has nothing to manage.  The default is
        a no-op: shared/static managers keep no clock.  Managers that do
        (dCat's controller) must jump theirs so timestamps stay aligned
        with fleet time when the host wakes.
        """

    def state_of(self, vm_name: str) -> Optional[WorkloadState]:
        """The controller state of a VM, if this manager tracks one."""
        return None


class SharedCacheManager(CacheManager):
    """No cache management: every core may fill anywhere."""

    mode = "shared"
    name = "shared"

    def setup(self, machine: Machine, vms: Sequence[VirtualMachine]) -> None:
        machine.cat.reset()


class StaticCatManager(CacheManager):
    """Static CAT: program each VM's reserved ways once."""

    mode = "partitioned"
    name = "static-cat"

    def setup(self, machine: Machine, vms: Sequence[VirtualMachine]) -> None:
        baselines = {vm.name: vm.baseline_ways for vm in vms}
        total = sum(baselines.values())
        if total > machine.num_ways:
            raise ValueError(
                f"static partition of {total} ways exceeds the "
                f"{machine.num_ways}-way LLC"
            )
        layout = pack_contiguous(baselines, machine.num_ways)
        entries: List[PqosL3Ca] = []
        for i, vm in enumerate(vms):
            cos_id = i + 1
            entries.append(PqosL3Ca(cos_id=cos_id, ways_mask=layout.masks[vm.name]))
            for core in vm.vcpus:
                machine.pqos.alloc_assoc_set(core, cos_id)
        machine.pqos.l3ca_set(entries)


class DCatManager(CacheManager):
    """dCat: dynamic management via :class:`DCatController`.

    Args:
        config: Controller configuration (defaults to the paper's values).
    """

    mode = "partitioned"
    name = "dcat"

    def __init__(self, config: Optional[DCatConfig] = None) -> None:
        self.config = config
        self.controller: Optional[DCatController] = None
        self.last_result: Optional[StepResult] = None

    def setup(self, machine: Machine, vms: Sequence[VirtualMachine]) -> None:
        perfmon = machine.new_perfmon()
        self.controller = DCatController(
            pqos=machine.pqos,
            perfmon=perfmon,
            config=self.config,
            nominal_cycles_per_core=machine.cycles_per_interval,
            bus=self.bus,
        )
        for vm in vms:
            self.controller.register_workload(
                vm.name,
                vm.vcpus,
                baseline_ways=vm.baseline_ways,
                declared_schedule=getattr(vm.workload, "declared_schedule", None),
            )
        self.controller.initialize()

    def control(self) -> None:
        assert self.controller is not None, "setup() was not called"
        self.last_result = self.controller.step()

    def attach_vm(self, vm: VirtualMachine) -> None:
        """Admit a VM mid-run: register it and carve out its baseline."""
        assert self.controller is not None, "setup() was not called"
        self.controller.admit_workload(
            vm.name,
            vm.vcpus,
            baseline_ways=vm.baseline_ways,
            declared_schedule=getattr(vm.workload, "declared_schedule", None),
        )

    def detach_vm(self, vm_name: str) -> None:
        """Release a departed VM's COS, mask, and core associations."""
        assert self.controller is not None, "setup() was not called"
        self.controller.deregister_workload(vm_name)

    def skip_idle(self, intervals: int) -> None:
        """Jump the controller clock over intervals with nothing managed."""
        assert self.controller is not None, "setup() was not called"
        self.controller.skip_idle(intervals)

    def state_of(self, vm_name: str) -> Optional[WorkloadState]:
        if self.controller is None:
            return None
        record = self.controller.records.get(vm_name)
        return record.state if record is not None else None
