"""A fleet of machines under tenant churn.

The tentpole of the cloud layer: :class:`CloudFleet` drives N
:class:`FleetMachine` hosts — each one a full
:class:`~repro.platform.sim.CloudSimulation` with its own cache manager —
through a tenant lifecycle stream.  One fleet interval is:

1. **depart** — tenants whose lease expired or whose workload finished are
   detached from their machine (COS, RMID and vCPUs return to the pools);
2. **admit** — arrivals due this interval are placed by the configured
   :class:`~repro.cloud.placement.PlacementPolicy`, walking the fleet's
   :class:`~repro.cloud.placement.CapacityIndex`; admission control
   rejects tenants no machine can host (reserved ways, vCPU slots, or COS
   classes exhausted);
3. **step** — :func:`step_machines` steps every active host, stage-major
   (one core kernel over every busy core of the fleet);
4. **account** — each resident tenant's measured IPC is compared against
   its entitlement (deterministic IPC at its reserved ways) by the
   :class:`~repro.cloud.slo.SloAccountant`.

Lifecycle decisions publish ``TenantAdmitted`` / ``TenantPlaced`` /
``TenantRejected`` / ``TenantDeparted`` on the event bus, so the JSONL
trace and metrics sinks see fleet churn exactly like any other layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.analytical import AccessPattern
from repro.cloud.admission import RejectReason, classify_rejection
from repro.cloud.lifecycle import TenantSpec, scripted_tenants
from repro.cloud.placement import PlacementPolicy
from repro.cloud.slo import SloAccountant, TenantSloStats
from repro.cpu.coremodel import core_cpis
from repro.engine.events import (
    EventBus,
    TenantAdmitted,
    TenantDeparted,
    TenantPlaced,
    TenantRejected,
    get_default_bus,
)
from repro.errors import UnknownTenantError
from repro.platform.machine import Machine
from repro.platform.managers import CacheManager
from repro.platform.sim import CloudSimulation, SimulationResult, step_batch, whole_intervals
from repro.platform.vm import VirtualMachine

__all__ = [
    "ResidentTenant",
    "FleetMachine",
    "PlacementRecord",
    "FleetResult",
    "CloudFleet",
    "checker_totals",
    "entitled_ipc",
    "entitled_ipcs",
    "step_machines",
]


def entitled_ipc(
    machine: Machine,
    vm: VirtualMachine,
    dram_latency_cycles: Optional[float] = None,
) -> Optional[float]:
    """The IPC the tenant's reservation alone entitles it to, this phase.

    Deterministic (noise-free): the analytical hit rate of the current
    phase at ``baseline_ways``, through the core model's CPI.  Passing the
    machine's *loaded* DRAM latency keeps the entitlement cache-side — a
    tenant slowed only by fleet-wide memory-bandwidth load is not having
    its cache contract violated.  ``None`` once the workload has finished.
    """
    machine.build_cores(vm.vcpus)
    return entitled_ipcs([(machine, vm, dram_latency_cycles)])[0]


def entitled_ipcs(
    tenants: Sequence[Tuple[Machine, VirtualMachine, Optional[float]]],
) -> List[Optional[float]]:
    """:func:`entitled_ipc` of many ``(machine, vm, dram latency)`` triples,
    through one :func:`~repro.cpu.coremodel.core_cpis` pass.  Each VM must
    be attached to its machine's simulation (so its cores are built)."""
    out: List[Optional[float]] = [None] * len(tenants)
    index: List[int] = []
    models, behaviors, hits, drams = [], [], [], []
    for i, (machine, vm, dram_latency) in enumerate(tenants):
        phase = vm.workload.current_phase()
        if phase is None:
            continue
        hit = 0.0
        if (
            phase.pattern is not AccessPattern.NONE
            and phase.wss_bytes > 0
            and phase.behavior.l1_miss_ratio > 0
        ):
            ways = min(vm.baseline_ways, machine.num_ways)
            hit = machine.analytic.hit_rate_fp(phase.footprint, ways)
        model = machine.core_models[vm.vcpus[0]]
        index.append(i)
        models.append(model)
        behaviors.append(phase.behavior)
        hits.append(hit)
        drams.append(
            model.dram.idle_latency_cycles if dram_latency is None else dram_latency
        )
    if index:
        ipcs = (1.0 / core_cpis(models, behaviors, hits, drams)).tolist()
        for i, ipc in zip(index, ipcs):
            out[i] = ipc
    return out


def step_machines(
    machines: Sequence["FleetMachine"], fleet_tick: int
) -> List[Tuple[List[tuple], List[str]]]:
    """One interval of the given hosts: ``(observations, finished)`` each.

    The one host step of the serial fleet and of every executor worker,
    so serial == parallel by construction.  The hosts catch up to
    ``fleet_tick``; entitlements come from the phase about to execute,
    under each host's pre-step DRAM latency, in one pass over every
    resident; then :func:`~repro.platform.sim.step_batch` steps all the
    hosts stage-major.  Observations are one ``(tenant, ipc,
    entitled_ipc, active)`` per resident with a timeline record, and
    ``finished`` lists the residents whose workload finished.
    """
    for machine in machines:
        machine.catch_up(fleet_tick)
    residents = [list(m.residents.items()) for m in machines]
    entitled = iter(
        entitled_ipcs(
            [
                (m.machine, res.vm, m.sim.dram_latency_cycles)
                for m, hosted in zip(machines, residents)
                for _, res in hosted
            ]
        )
    )
    step_batch([m.sim for m in machines])
    reports = []
    for machine, hosted in zip(machines, residents):
        records = machine.sim.result.records
        observations = []
        for tid, _ in hosted:
            entitlement = next(entitled)
            timeline = records[tid]
            if timeline:
                rec = timeline[-1]
                active = rec.phase_name is not None and "idle" not in rec.phase_name
                observations.append((tid, rec.ipc, entitlement, active))
        finished = [tid for tid, res in hosted if res.vm.workload.finished]
        reports.append((observations, finished))
    return reports


def checker_totals(machines: Sequence["FleetMachine"]) -> Tuple[int, int]:
    """``(violations, intervals checked)`` over the machines' checkers."""
    checkers = [m.checker for m in machines if m.checker is not None]
    return (
        sum(len(c.violations) for c in checkers),
        sum(c.intervals_checked for c in checkers),
    )


@dataclass
class ResidentTenant:
    """A tenant currently hosted on one machine."""

    spec: TenantSpec
    vm: VirtualMachine
    admitted_s: float

    @property
    def lease_end_s(self) -> float:
        if self.spec.lifetime_s is None:
            return float("inf")
        return self.admitted_s + self.spec.lifetime_s


class FleetMachine:
    """One host of the fleet: a machine, its manager, and resource pools.

    Tracks the three admission budgets — hardware-thread slots, allocatable
    COS classes, and reserved LLC ways — and performs attach/detach against
    its :class:`~repro.platform.sim.CloudSimulation`.

    Args:
        name: Fleet-unique machine name.
        machine: The simulated host.
        manager: Its cache-management regime (one instance per machine).
        bus: Event bus handed to the simulation.
        vcpus_per_vm: Dedicated hardware threads per tenant (paper: 2).
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan` to
            inject on this host's control loop (dcat managers only); give
            each machine its own derived seed so schedules differ.
        substrate: Optional :class:`~repro.platform.substrate.CacheSubstrate`
            for this host's simulation (one instance per machine); defaults
            to the run context's fidelity.
    """

    def __init__(
        self,
        name: str,
        machine: Machine,
        manager: CacheManager,
        bus: Optional[EventBus] = None,
        vcpus_per_vm: int = 2,
        fault_plan=None,
        substrate=None,
    ) -> None:
        if vcpus_per_vm < 1:
            raise ValueError("vcpus_per_vm must be >= 1")
        self.name = name
        self.machine = machine
        self.vcpus_per_vm = vcpus_per_vm
        self.sim = CloudSimulation(machine, [], manager, bus=bus, substrate=substrate)
        self.injector = None
        if fault_plan is not None:
            # Imported lazily: fault injection is opt-in per scenario.
            from repro.faults.injectors import FaultInjector

            controller = getattr(manager, "controller", None)
            if controller is None:
                raise ValueError(
                    f"machine {name!r}: fault injection requires a dcat "
                    f"manager (other regimes have no control loop to fault)"
                )
            self.injector = FaultInjector(fault_plan).install(controller)
        #: Optional :class:`~repro.faults.invariants.InvariantChecker`
        #: watching this host's bus (see ``build_fleet(checkers=True)``).
        self.checker = None
        self.residents: Dict[str, ResidentTenant] = {}
        self.reserved_ways = 0
        self._free_threads: List[int] = list(range(machine.spec.num_threads))
        # COS0 is the unmanaged default; the rest are allocatable tenants.
        self._cos_capacity = machine.pqos.cap_get().num_cos - 1

    # -- capacity ----------------------------------------------------------

    @property
    def free_ways(self) -> int:
        """Reserved-way headroom (not the controller's live free pool)."""
        return self.machine.num_ways - self.reserved_ways

    @property
    def free_thread_slots(self) -> int:
        return len(self._free_threads) // self.vcpus_per_vm

    def reject_reason(self, baseline_ways: int) -> Optional[RejectReason]:
        """Why one more tenant with this reservation cannot be hosted.

        Budgets are checked threads, then COS, then ways, so the reason
        is the first exhausted one; ``None`` means the tenant fits.
        """
        if len(self._free_threads) < self.vcpus_per_vm:
            return RejectReason.NO_THREADS
        if len(self.residents) >= self._cos_capacity:
            return RejectReason.NO_COS
        if self.reserved_ways + baseline_ways > self.machine.num_ways:
            return RejectReason.NO_WAYS
        return None

    def fits(self, baseline_ways: int) -> bool:
        """Whether one more tenant with this reservation can be hosted."""
        return self.reject_reason(baseline_ways) is None

    # -- churn -------------------------------------------------------------

    def admit(self, spec: TenantSpec, workload, now: float) -> VirtualMachine:
        """Attach a tenant: pin the lowest free threads and register it."""
        if not self.fits(spec.baseline_ways):
            raise ValueError(f"machine {self.name!r} cannot host {spec.name!r}")
        vcpus = tuple(self._free_threads[: self.vcpus_per_vm])
        vm = VirtualMachine(
            name=spec.name,
            workload=workload,
            vcpus=vcpus,
            baseline_ways=spec.baseline_ways,
        )
        self.sim.attach_vm(vm)
        del self._free_threads[: self.vcpus_per_vm]
        self.reserved_ways += spec.baseline_ways
        self.residents[spec.name] = ResidentTenant(
            spec=spec, vm=vm, admitted_s=now
        )
        return vm

    def depart(self, tenant_id: str) -> ResidentTenant:
        """Detach a tenant and return its pooled resources.

        Raises:
            UnknownTenantError: If no such tenant is resident here.
        """
        if tenant_id not in self.residents:
            raise UnknownTenantError(
                f"tenant {tenant_id!r} is not resident on machine {self.name!r}"
            )
        resident = self.residents.pop(tenant_id)
        self.sim.detach_vm(tenant_id)
        self._free_threads.extend(resident.vm.vcpus)
        self._free_threads.sort()
        self.reserved_ways -= resident.spec.baseline_ways
        return resident

    # -- the event clock ---------------------------------------------------

    @property
    def should_step(self) -> bool:
        """Whether this host has anything to simulate this interval.

        Empty hosts are parked by the fleet's discrete-event clock and
        wake on the next arrival; a host with a fault injector always
        steps so its fault schedule stays on the controller timeline.
        """
        return bool(self.residents) or self.injector is not None

    def catch_up(self, fleet_tick: int) -> None:
        """Advance a parked host's sim clock to the fleet's tick.

        A no-op for hosts that stepped every interval (``behind == 0``).
        """
        behind = fleet_tick - self.sim.tick
        if behind > 0:
            self.sim.skip_idle(behind)

    # -- controller queries ------------------------------------------------

    def cos_of(self, tenant_id: str) -> Optional[int]:
        """The COS this host's controller assigned ``tenant_id``.

        ``None`` for non-resident tenants and for non-dcat managers.
        """
        controller = getattr(self.sim.manager, "controller", None)
        record = None if controller is None else controller.records.get(tenant_id)
        return None if record is None else record.cos_id

    def state_counts(self) -> Optional[Dict[str, int]]:
        """Controller-state populations (``None`` for non-dcat managers)."""
        controller = getattr(self.sim.manager, "controller", None)
        if controller is None:
            return None
        counts: Dict[str, int] = {}
        for rec in controller.records.values():
            counts[rec.state.value] = counts.get(rec.state.value, 0) + 1
        return dict(sorted(counts.items()))


@dataclass(frozen=True)
class PlacementRecord:
    """One admission decision (kept in arrival order)."""

    time_s: float
    tenant_id: str
    machine: Optional[str]  # None => rejected
    reason: str  # "placed" or why the tenant was rejected


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    interval_s: float
    machines: Dict[str, SimulationResult] = field(default_factory=dict)
    tenants: Dict[str, TenantSloStats] = field(default_factory=dict)
    placements: List[PlacementRecord] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    #: Applied fault counts per machine, keyed by fault kind — empty
    #: unless the fleet ran with per-machine fault plans.
    faults: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def admitted(self) -> List[PlacementRecord]:
        return [p for p in self.placements if p.machine is not None]

    @property
    def rejected(self) -> List[PlacementRecord]:
        return [p for p in self.placements if p.machine is None]

    def canonical_bytes(self) -> bytes:
        """A canonical encoding for byte-identity checks.

        Components — and within them, each machine's and each tenant's
        entry — are pickled separately (fixed protocol): an in-process
        run shares objects *across* machines and components (one phase
        name string on two hosts; an SLO ledger holding the same float
        object a timeline record holds) where a process-pool run cannot,
        and pickle's memoization records that sharing.  The object-graph
        artifact must not distinguish otherwise identical results, so
        every unit that may cross a process boundary is encoded on its
        own.
        """
        import io
        import pickle

        # Each part gets its own Pickler (a fresh memo), and all of them
        # write into one buffer: a list of parts plus its join would hold
        # the bytes twice.
        out = io.BytesIO()

        def dump(part: Any) -> None:
            pickle.Pickler(out, protocol=4).dump(part)

        dump(self.interval_s)
        for name in self.machines:
            dump(name)
            dump(self.machines[name])
        for tid in sorted(self.tenants):
            dump(tid)
            dump(self.tenants[tid])
        dump(self.placements)
        dump(self.summary)
        for name in sorted(self.faults):
            dump(name)
            dump(self.faults[name])
        return out.getvalue()


class CloudFleet:
    """Drives a machine fleet through a tenant lifecycle stream.

    Args:
        machines: The hosts (names must be unique; equal intervals).
        policy: Placement policy for arrivals.
        tenants: The lifecycle stream (any order; sorted internally).
        bus: Event bus for tenant lifecycle events (defaults to the
            process default bus, so ``--trace`` captures fleet churn).
        slo_tolerance: Relative shortfall tolerated before an interval
            counts as an SLO violation.
    """

    def __init__(
        self,
        machines: Sequence[FleetMachine],
        policy: PlacementPolicy,
        tenants: Sequence[TenantSpec],
        bus: Optional[EventBus] = None,
        slo_tolerance: float = 0.05,
    ) -> None:
        if not machines:
            raise ValueError("a fleet needs at least one machine")
        names = [m.name for m in machines]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate machine names: {names}")
        intervals = {m.machine.interval_s for m in machines}
        if len(intervals) != 1:
            raise ValueError("all fleet machines must share one interval_s")
        self.machines = list(machines)
        self.policy = policy
        # Kept current by admit_tenant/depart_tenant, the only paths that
        # change a fleet machine's reservations.
        self.capacity = policy.index(self.machines)
        self.bus = bus if bus is not None else get_default_bus()
        self.interval_s = machines[0].machine.interval_s
        self._pending = scripted_tenants(tenants)
        self._next_arrival = 0
        # Integer fleet tick: `now` is derived (tick * interval_s), never
        # accumulated, so lease ends and arrivals at t~1e7 with ms
        # intervals land on the exact interval (the old `+= interval_s`
        # clock drifted about one interval per 1e6 steps).
        self._tick = 0
        # tenant -> hosting machine; replaces the O(machines) scan that
        # made bulk departures O(machines x departures).
        self._hosts: Dict[str, FleetMachine] = {}
        # Hosts with anything to simulate, rebuilt lazily on churn so one
        # fleet interval costs O(active hosts), not O(fleet size).
        self._active: List[FleetMachine] = []
        self._active_stale = True
        # Tenants whose workload finished in the last interval: they
        # depart "finished" at the next one (the one completion rule for
        # the serial fleet and the executor, whose mirrors never advance).
        self._finished: set = set()
        self.accountant = SloAccountant(
            self.interval_s, tolerance=slo_tolerance, bus=self.bus
        )
        self.placements: List[PlacementRecord] = []

    @property
    def now(self) -> float:
        return self._time_s

    @property
    def tick(self) -> int:
        """Completed fleet intervals (the integer timebase)."""
        return self._tick

    @property
    def _time_s(self) -> float:
        """The fleet clock: ``tick * interval_s``, never accumulated."""
        return self._tick * self.interval_s

    def _active_machines(self) -> List[FleetMachine]:
        """Hosts with residents or fault injectors, in fleet order."""
        if self._active_stale:
            self._active = [m for m in self.machines if m.should_step]
            self._active_stale = False
        return self._active

    # -- main loop ---------------------------------------------------------

    def run(self, duration_s: float) -> FleetResult:
        """Advance the whole fleet by ``duration_s`` of virtual time.

        The fleet only moves in whole intervals; a duration that is not a
        whole multiple of ``interval_s`` raises (the old code rounded, so
        ``run(0.35)`` at 0.1 s quietly simulated 0.4 s).

        While no host has residents or a fault injector, the
        discrete-event clock jumps straight to the next arrival instead
        of stepping empty intervals one by one.

        Raises:
            ValueError: If ``duration_s`` is negative or not a whole
                number of fleet intervals.
        """
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {duration_s}")
        steps, remainder = whole_intervals(duration_s, self.interval_s)
        if remainder:
            raise ValueError(
                f"duration {duration_s} s is not a whole number of "
                f"{self.interval_s} s fleet intervals"
            )
        end_tick = self._tick + steps
        while self._tick < end_tick:
            if self._fleet_quiescent():
                jump = self._next_busy_tick(end_tick) - self._tick
                if jump > 0:
                    self._bulk_skip(jump)
                    continue
            self.step()
        return self.result()

    def step(self) -> None:
        """One fleet interval: depart, admit, simulate active hosts, account.

        Observations fold into the accountant in fleet order after every
        host has stepped, so ``SloViolated`` follows all interval events.
        """
        now = self._time_s
        self._process_departures(now)
        self._process_arrivals(now)
        finished = set()
        for observations, done in self._step_hosts():
            for tid, ipc, entitled, active in observations:
                self.accountant.observe(
                    tid, now, ipc=ipc, entitled_ipc=entitled, active=active
                )
            finished.update(done)
        self._finished = finished
        self._tick += 1

    def _step_hosts(self) -> List[Tuple[List, List[str]]]:
        """Every active host's :func:`step_machines` report, in fleet
        order (the parallel executor steps its workers instead)."""
        return step_machines(self._active_machines(), self._tick)

    def _fleet_quiescent(self) -> bool:
        """No host needs stepping; only a due arrival can wake the fleet."""
        return not self._active_machines()

    def _next_busy_tick(self, target: int) -> int:
        """First tick in ``[tick, target]`` at which an arrival is due.

        Computes the minimal ``t`` with ``arrival_s <= t * interval_s``
        by integer estimate plus local fix-up, so float rounding cannot
        land the wake-up one interval off the admission predicate.
        """
        if self._next_arrival >= len(self._pending):
            return target
        arrival_s = self._pending[self._next_arrival].arrival_s
        t = int(arrival_s / self.interval_s)
        while t * self.interval_s < arrival_s:
            t += 1
        while t > self._tick and (t - 1) * self.interval_s >= arrival_s:
            t -= 1
        return max(self._tick, min(t, target))

    def _bulk_skip(self, intervals: int) -> None:
        """Jump the fleet clock; parked hosts catch up lazily."""
        self._tick += intervals

    def result(self) -> FleetResult:
        return FleetResult(
            interval_s=self.interval_s,
            machines=self.machine_results(),
            tenants=dict(self.accountant.tenants),
            placements=list(self.placements),
            summary=self.accountant.fleet_summary(),
            faults=self.fault_counts(),
        )

    # -- fleet state hooks (overridden by the parallel executor, which
    #    must query its workers for the same answers) ------------------------

    def machine_results(self) -> Dict[str, SimulationResult]:
        """Per-machine simulation results, clocks caught up to the fleet."""
        for machine in self.machines:
            machine.catch_up(self._tick)
        return {m.name: m.sim.result for m in self.machines}

    def fault_counts(self) -> Dict[str, Dict[str, int]]:
        """Applied fault counts per machine, keyed by fault kind."""
        return {
            m.name: m.injector.faults_by_kind()
            for m in self.machines
            if m.injector is not None
        }

    def tenant_cos(self, tenant_id: str) -> Optional[int]:
        """The COS the host's controller assigned a resident tenant.

        ``None`` for non-resident tenants and for non-dcat managers.
        """
        machine = self._hosts.get(tenant_id)
        return None if machine is None else machine.cos_of(tenant_id)

    def state_populations(self) -> Dict[str, Optional[Dict[str, int]]]:
        """Controller-state counts per machine (``None`` for non-dcat hosts)."""
        return {m.name: m.state_counts() for m in self.machines}

    def checker_stats(self) -> Tuple[int, int]:
        """``(violations, intervals checked)`` summed over the machines'
        invariant checkers (zero when none are attached)."""
        return checker_totals(self.machines)

    def close(self) -> None:
        """Release executor resources (no-op for the serial fleet)."""

    # -- tenant lifecycle (public: scripted streams and the service both
    #    funnel through these two, so online and replayed admissions are
    #    the same code path) -------------------------------------------------

    def machine_of(self, tenant_id: str) -> Optional[FleetMachine]:
        """The machine currently hosting ``tenant_id`` (``None`` if absent)."""
        return self._hosts.get(tenant_id)

    def admit_tenant(self, spec: TenantSpec, now: Optional[float] = None) -> PlacementRecord:
        """Place and (maybe) admit one tenant at ``now``.

        The single admission path: batch arrival streams and the service
        daemon both call it, so placement, SLO ledger creation, event
        emission order, and the placement log are identical however the
        tenant arrived.  Returns the :class:`PlacementRecord`; a rejected
        tenant gets ``machine=None`` and a structured
        :class:`~repro.cloud.admission.RejectReason` value as ``reason``.

        Raises:
            ValueError: If ``spec.name`` already has an SLO ledger (it is
                resident, or was once admitted); nothing is touched.
        """
        if spec.name in self.accountant.tenants:
            # Ids are single-use (the ledger outlives residency): refuse
            # before placement touches a machine, the index or the bus.
            raise ValueError(f"tenant {spec.name!r} already has a ledger")
        if now is None:
            now = self._time_s
        bus = self.bus
        workload = spec.build_workload()
        chosen = self.policy.place(spec, workload, self.capacity)
        if chosen is None:
            reason = classify_rejection(self.machines, spec.baseline_ways).value
            record = PlacementRecord(
                time_s=now,
                tenant_id=spec.name,
                machine=None,
                reason=reason,
            )
            self.placements.append(record)
            if bus.active:
                bus.emit(
                    TenantRejected.fast(
                        time_s=now, tenant_id=spec.name, reason=reason
                    )
                )
            return record
        if bus.active:
            bus.emit(
                TenantPlaced.fast(
                    time_s=now,
                    tenant_id=spec.name,
                    machine=chosen.name,
                    policy=self.policy.name,
                )
            )
        self._admit_on(chosen, spec, workload, now)
        self.capacity.update(chosen)
        self._hosts[spec.name] = chosen
        self._active_stale = True
        self.accountant.admitted(spec.name, chosen.name, now)
        record = PlacementRecord(
            time_s=now,
            tenant_id=spec.name,
            machine=chosen.name,
            reason="placed",
        )
        self.placements.append(record)
        if bus.active:
            bus.emit(
                TenantAdmitted.fast(
                    time_s=now,
                    tenant_id=spec.name,
                    machine=chosen.name,
                    baseline_ways=spec.baseline_ways,
                )
            )
        return record

    def depart_tenant(
        self,
        tenant_id: str,
        now: Optional[float] = None,
        reason: Optional[str] = None,
    ) -> ResidentTenant:
        """Detach one resident tenant at ``now`` and settle its ledger.

        ``reason`` defaults to ``"finished"`` if the workload finished in
        the last interval, else ``"lease-end"``; the service passes ``"detached"`` for
        API-requested departures.

        Raises:
            UnknownTenantError: If the tenant is not resident anywhere.
        """
        if now is None:
            now = self._time_s
        machine = self._hosts.pop(tenant_id, None)
        if machine is None:
            raise UnknownTenantError(
                f"tenant {tenant_id!r} is not resident in the fleet"
            )
        resident = self._depart_from(machine, tenant_id)
        self.capacity.update(machine)
        self._active_stale = True
        if reason is None:
            reason = "finished" if tenant_id in self._finished else "lease-end"
        self.accountant.departed(tenant_id, now)
        if self.bus.active:
            self.bus.emit(
                TenantDeparted.fast(
                    time_s=now,
                    tenant_id=tenant_id,
                    machine=machine.name,
                    reason=reason,
                )
            )
        return resident

    def _admit_on(
        self, machine: FleetMachine, spec: TenantSpec, workload, now: float
    ) -> None:
        """Attach a placed tenant to its host (the parallel executor
        forwards it to the worker that simulates the host)."""
        machine.catch_up(self._tick)
        machine.admit(spec, workload, now)

    def _depart_from(self, machine: FleetMachine, tenant_id: str) -> ResidentTenant:
        """Detach a tenant from its host (forwarded like :meth:`_admit_on`)."""
        return machine.depart(tenant_id)

    # -- interval stages -----------------------------------------------------

    def _process_departures(self, now: float) -> None:
        for machine in list(self._active_machines()):
            for tid, res in list(machine.residents.items()):
                if tid in self._finished:
                    self.depart_tenant(tid, now, reason="finished")
                elif res.lease_end_s <= now:
                    self.depart_tenant(tid, now, reason="lease-end")

    def _process_arrivals(self, now: float) -> None:
        while (
            self._next_arrival < len(self._pending)
            and self._pending[self._next_arrival].arrival_s <= now
        ):
            spec = self._pending[self._next_arrival]
            self._next_arrival += 1
            self.admit_tenant(spec, now)
