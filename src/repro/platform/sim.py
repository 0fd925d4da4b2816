"""The multi-tenant cloud simulation loop.

One :class:`CloudSimulation` step is one controller interval of virtual
time:

1. each VM's active phase is resolved to an LLC hit rate — from its CAT
   mask (partitioned managers) or from the contention solver (shared LLC);
2. each busy vCPU's core model turns that hit rate into cycles,
   instructions and cache events, which are fed into the per-thread PMUs —
   the only place the dCat controller can see them;
3. client-observed application metrics are computed for served apps;
4. workloads advance (phase boundaries, run-to-completion accounting);
5. the cache manager runs its control step (for dCat: the five-step loop);
6. total miss traffic updates the DRAM loaded latency used next interval.

Stages 1-2 and the PMU feed run stage-major over a *batch* of hosts
(:func:`step_batch`): a fleet interval resolves every busy host's hit
rates, then runs one core kernel over every busy core of every host, then
feeds every PMU; the remaining stages run host by host, in order.  A
single simulation's ``step()`` is a batch of one, so both paths are the
same code.

Everything observable lands in :class:`VmIntervalRecord` timelines, which
the experiment harness turns into the paper's figures and tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.states import WorkloadState
from repro.cpu.coremodel import CoreCounters, execute_cores
from repro.engine.events import (
    Event,
    EventBus,
    IntervalFinished,
    IntervalStarted,
    SampleCollected,
    get_default_bus,
)
from repro.engine.context import current_context
from repro.engine.pipeline import StagedLoop
from repro.errors import UnknownTenantError
from repro.hwcounters.events import L1_CACHE_HITS, L1_CACHE_MISSES, LLC_MISSES, LLC_REFERENCES
from repro.platform.machine import Machine
from repro.platform.managers import CacheManager
from repro.platform.substrate import CacheSubstrate, build_substrate
from repro.platform.vm import VirtualMachine
from repro.workloads.apps import AppWorkload
from repro.workloads.base import Phase, PhasedWorkload
from repro.workloads.clients import AppMetrics

__all__ = [
    "VmIntervalRecord",
    "SimulationResult",
    "SimStepContext",
    "SimBatch",
    "VmIntervalAccumulator",
    "CloudSimulation",
    "step_batch",
    "whole_intervals",
]

#: Event code -> position of its count in a PMU feed tuple (L1 misses are
#: LLC references, so the kernel's ``llc_refs`` feeds both).
_FEED_SLOTS = {
    e.code: k
    for k, e in enumerate((L1_CACHE_HITS, L1_CACHE_MISSES, LLC_REFERENCES, LLC_MISSES))
}

#: The first stage that runs host by host; the stages before it run
#: stage-major over the whole batch.
FIRST_HOST_STAGE = "record"


@dataclass(frozen=True)
class VmIntervalRecord:
    """One VM's observables over one interval."""

    time_s: float
    vm_name: str
    phase_name: Optional[str]
    ways: float
    llc_hit_rate: float
    ipc: float
    avg_mem_latency_cycles: float
    instructions: int
    cycles: int
    l1_refs: int = 0
    llc_refs: int = 0
    llc_misses: int = 0
    state: Optional[WorkloadState] = None
    app: Optional[AppMetrics] = None

    @property
    def llc_miss_rate(self) -> float:
        return 1.0 - self.llc_hit_rate

    @property
    def mem_refs_per_instr(self) -> float:
        """Measured L1 references per instruction (the phase signature)."""
        return self.l1_refs / self.instructions if self.instructions else 0.0


@dataclass
class SimulationResult:
    """Timelines and completion times for one simulation run."""

    interval_s: float
    records: Dict[str, List[VmIntervalRecord]] = field(default_factory=dict)
    completions: Dict[str, List[Tuple[str, float]]] = field(default_factory=dict)

    # -- extraction helpers -------------------------------------------------

    def timeline(self, vm_name: str) -> List[VmIntervalRecord]:
        return self.records.get(vm_name, [])

    def series(self, vm_name: str, attr: str) -> List[float]:
        """A single attribute over time for one VM."""
        return [getattr(r, attr) for r in self.timeline(vm_name)]

    def mean(
        self,
        vm_name: str,
        attr: str,
        t0: float = 0.0,
        t1: float = float("inf"),
        active_only: bool = True,
    ) -> float:
        """Mean of an attribute over [t0, t1), optionally active phases only."""
        values = [
            getattr(r, attr)
            for r in self.timeline(vm_name)
            if t0 <= r.time_s < t1
            and (not active_only or (r.phase_name and "idle" not in r.phase_name))
        ]
        if not values:
            raise ValueError(f"no records for {vm_name!r} in [{t0}, {t1})")
        return sum(values) / len(values)

    def final(self, vm_name: str, attr: str) -> float:
        timeline = self.timeline(vm_name)
        if not timeline:
            raise ValueError(f"no records for {vm_name!r}")
        return getattr(timeline[-1], attr)

    def completion_time(self, vm_name: str, phase_name: str) -> Optional[float]:
        """When a work-bounded phase finished (first completion wins)."""
        for name, t in self.completions.get(vm_name, []):
            if name == phase_name:
                return t
        return None

    def steady_mean(
        self, vm_name: str, attr: str, tail_intervals: int = 10
    ) -> float:
        """Mean over the last N intervals (post-convergence behaviour)."""
        timeline = self.timeline(vm_name)
        if not timeline:
            raise ValueError(f"no records for {vm_name!r}")
        tail = timeline[-tail_intervals:]
        return sum(getattr(r, attr) for r in tail) / len(tail)


@dataclass
class VmIntervalAccumulator:
    """Per-VM scratch state carried between stages within one interval."""

    phase: Optional[Phase] = None
    busy: Tuple[int, ...] = ()
    #: Index of the first busy core in the batch's :class:`CoreCounters`.
    first: int = 0
    instructions: int = 0
    cycles: int = 0
    l1_refs: int = 0
    llc_refs: int = 0
    llc_misses: int = 0
    latency_acc: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def avg_latency(self) -> float:
        return self.latency_acc / len(self.busy) if self.busy else 0.0


@dataclass
class SimStepContext:
    """Everything one simulation interval's stages read and write."""

    time_s: float
    phases: Dict[str, Optional[Phase]] = field(default_factory=dict)
    hit_rates: Dict[str, float] = field(default_factory=dict)
    effective_ways: Dict[str, float] = field(default_factory=dict)
    per_vm: Dict[str, VmIntervalAccumulator] = field(default_factory=dict)
    total_misses: int = 0


class SimBatch:
    """The hosts one stage-major interval steps, each with its context.

    Iterating yields ``(simulation, context)`` pairs in host order;
    :attr:`cores` holds the core kernel's output for every busy core of
    every host, in that order.
    """

    __slots__ = ("sims", "ctxs", "cores")

    def __init__(
        self, sims: Sequence["CloudSimulation"], ctxs: Sequence[SimStepContext]
    ) -> None:
        self.sims = sims
        self.ctxs = ctxs
        self.cores: Optional[CoreCounters] = None

    def __iter__(self) -> Iterator[Tuple["CloudSimulation", SimStepContext]]:
        return zip(self.sims, self.ctxs)


def whole_intervals(duration_s: float, interval_s: float) -> Tuple[int, float]:
    """Split ``duration_s`` into whole ``interval_s`` steps and a remainder.

    A step count within a relative 1e-9 of a whole number is that number,
    with remainder ``0.0``: a float product such as ``20_971_524 * 0.1``
    lands a hair below its count, and an absolute tolerance loses an
    interval once counts reach the tens of millions.  Any other count
    rounds down and the positive remainder is returned.  Every conversion
    of a duration into intervals goes through here: the simulation's and
    the fleet's ``run`` and the churn scenario loader.
    """
    exact = duration_s / interval_s
    steps = round(exact)
    if abs(exact - steps) <= 1e-9 * max(1.0, abs(exact)):
        return steps, 0.0
    steps = math.floor(exact)
    return steps, duration_s - steps * interval_s


def step_batch(sims: Sequence["CloudSimulation"]) -> None:
    """One interval of every simulation in ``sims``, stage-major.

    The stages before ``record`` (hit-rate resolution, the core kernel,
    the PMU feed) run once over the whole batch; then each host, in
    order, runs ``record -> advance -> control -> update_dram``.  Hosts
    share no state, so a host's interval is the same whatever batch it
    ran in.  Events raised during the batch stages wait in their host's
    outbox (:meth:`CloudSimulation.defer`) until that host's turn, which
    opens with its ``IntervalStarted``: every host's events stay
    contiguous and in stage order, exactly as if each host had stepped
    alone, in order.

    The batch runs its first host's loop, so the batch stages report to
    that loop's profiler once per batch and the host stages once per host.
    """
    if not sims:
        return
    batch = SimBatch(sims, [SimStepContext(time_s=sim.now) for sim in sims])
    loop = sims[0].loop
    split = loop.index(FIRST_HOST_STAGE)
    loop.run(batch, stop=split)
    for sim, ctx in batch:
        bus = sim.bus
        if bus.active:
            bus.emit(IntervalStarted.fast(time_s=ctx.time_s, source="sim"))
            for event in sim._outbox:
                bus.emit(event)
        sim._outbox.clear()
        loop.run(SimBatch((sim,), (ctx,)), start=split)
        if bus.active:
            bus.emit(IntervalFinished.fast(time_s=ctx.time_s, source="sim"))


# -- stages: each takes the SimBatch, so one loop serves any batch size -------


def _stage_resolve_hit_rates(batch: SimBatch) -> None:
    """Snapshot phases and resolve each VM's hit rate / effective ways."""
    for sim, ctx in batch:
        ctx.phases = {vm.name: vm.workload.current_phase() for vm in sim.vms}
        ctx.hit_rates, ctx.effective_ways = sim.substrate.resolve(ctx.phases)


def _stage_execute_cores(batch: SimBatch) -> None:
    """One core kernel over every busy vCPU of the batch; sums per VM."""
    models: list = []
    behaviors: list = []
    hits: List[float] = []
    drams: List[float] = []
    for sim, ctx in batch:
        core_models = sim.machine.core_models.built
        dram = sim._dram_latency
        for vm in sim.vms:
            phase = ctx.phases[vm.name]
            acc = ctx.per_vm[vm.name] = VmIntervalAccumulator(
                phase=phase, first=len(models)
            )
            if phase is None:
                continue
            acc.busy = busy = tuple(vm.busy_vcpus)
            behavior = phase.behavior
            hit = ctx.hit_rates[vm.name]
            for thread in busy:
                models.append(core_models[thread])
                behaviors.append(behavior)
                hits.append(hit)
                drams.append(dram)
    cores = batch.cores = execute_cores(models, behaviors, hits, drams)
    instructions, cycles, l1_hits, llc_refs, llc_misses, latency = cores
    for _, ctx in batch:
        total_misses = 0
        for acc in ctx.per_vm.values():
            first, last = acc.first, acc.first + len(acc.busy)
            # Integer sums are exact in any order; the latency sum keeps
            # the per-core order (builtin float ``sum`` may compensate).
            acc.instructions = sum(instructions[first:last])
            acc.cycles = sum(cycles[first:last])
            acc.l1_refs = sum(l1_hits[first:last]) + sum(llc_refs[first:last])
            acc.llc_refs = sum(llc_refs[first:last])
            acc.llc_misses = sum(llc_misses[first:last])
            for i in range(first, last):
                acc.latency_acc += latency[i]
            total_misses += acc.llc_misses
        ctx.total_misses = total_misses


def _stage_feed_pmus(batch: SimBatch) -> None:
    """Publish the kernel's counters into the PMUs and the CMT/MBM model."""
    instructions, cycles, l1_hits, llc_refs, llc_misses, _ = batch.cores
    for sim, ctx in batch:
        pmus = sim.machine.pmus.built
        for vm in sim.vms:
            acc = ctx.per_vm[vm.name]
            i = acc.first
            for thread in acc.busy:
                refs = llc_refs[i]
                pmus[thread].advance_counts(
                    instructions[i],
                    cycles[i],
                    _FEED_SLOTS,
                    (l1_hits[i], refs, refs, llc_misses[i]),
                )
                i += 1
            sim._report_monitoring(
                vm, acc.phase, ctx.hit_rates, ctx.effective_ways, acc.llc_misses
            )


def _stage_record(batch: SimBatch) -> None:
    for sim, ctx in batch:
        sim._record(ctx)


def _stage_advance(batch: SimBatch) -> None:
    """Advance every workload by one interval of time and retired work."""
    for sim, ctx in batch:
        interval_s = sim.machine.interval_s
        for vm in sim.vms:
            vm.workload.advance(interval_s, ctx.per_vm[vm.name].instructions)


def _stage_control(batch: SimBatch) -> None:
    """Run the cache manager's control plane (for dCat: the 5-step loop)."""
    for sim, _ in batch:
        sim.manager.control()


def _stage_update_dram(batch: SimBatch) -> None:
    for sim, ctx in batch:
        sim._update_dram(ctx)


class CloudSimulation:
    """Interval-stepped simulation of VMs sharing one socket.

    ``step()`` runs a :class:`~repro.engine.pipeline.StagedLoop` of seven
    named stages (``resolve_hit_rates -> execute_cores -> feed_pmus ->
    record -> advance -> control -> update_dram``) over a
    :class:`SimBatch` of this one host (:func:`step_batch`, the same code
    a fleet interval runs over all its busy hosts); each stage publishes
    to the event bus.  The loop is exposed as ``self.loop``, where a
    profiler can time it.

    How hit rates are resolved is delegated to an injected
    :class:`~repro.platform.substrate.CacheSubstrate` — analytical closed
    forms, exact tag-array measurement, or the mixed cross-validation
    oracle — so fidelity is a constructor dial, not a subclass.

    Args:
        machine: The host.
        vms: Pinned VMs (see :func:`repro.platform.vm.pin_vms`).
        manager: The cache-management regime under test.
        bus: Event bus for interval events (defaults to the process default
            bus, which is the null bus unless e.g. ``--trace`` installed one).
        substrate: The cache substrate resolving per-VM hit rates (defaults
            to a fresh substrate at the current run context's fidelity,
            which is analytical unless ``run --fidelity`` chose another).
    """

    def __init__(
        self,
        machine: Machine,
        vms: Sequence[VirtualMachine],
        manager: CacheManager,
        bus: Optional[EventBus] = None,
        substrate: Optional[CacheSubstrate] = None,
    ) -> None:
        names = [vm.name for vm in vms]
        if len(set(names)) != len(names):
            raise ValueError("VM names must be unique")
        for vm in vms:
            if not vm.vcpus:
                raise ValueError(f"VM {vm.name!r} has no pinned vCPUs")
        self.machine = machine
        self.vms = list(vms)
        self.manager = manager
        self.bus = bus if bus is not None else get_default_bus()
        self.manager.attach_bus(self.bus)
        self.manager.setup(machine, vms)
        self.result = SimulationResult(interval_s=machine.interval_s)
        for vm in vms:
            self.result.records[vm.name] = []
            self.result.completions[vm.name] = []
        # Integer interval counter; _time_s is derived (tick * interval_s)
        # so a billion intervals of 0.001 s accumulate zero drift.
        self._tick = 0
        self._dram_latency = machine.dram.idle_latency_cycles
        # Monitoring: one RMID per VM (mirrors the COS assignment).
        self._rmid_of: Dict[str, int] = {}
        for i, vm in enumerate(vms):
            rmid = (i + 1) % machine.cmt.num_rmids
            self._rmid_of[vm.name] = rmid
            for core in vm.vcpus:
                machine.cmt.assoc_rmid(core, rmid)
            machine.build_cores(vm.vcpus)
        # RMIDs not handed out above form the pool attach_vm() draws from
        # (RMID 0 stays the unmonitored default, like COS0 on the CAT side).
        used = set(self._rmid_of.values())
        self._free_rmids: List[int] = sorted(
            set(range(1, machine.cmt.num_rmids)) - used
        )
        # Virtual time requested by run() but not yet a whole interval.
        self._residual_s = 0.0
        if substrate is None:
            substrate = build_substrate(current_context().fidelity or "analytical")
        # Events the batch stages raise, held for this host's turn.
        self._outbox: List[Event] = []
        self.substrate = substrate
        self.substrate.bind(self)
        self.loop = StagedLoop(
            [
                ("resolve_hit_rates", _stage_resolve_hit_rates),
                ("execute_cores", _stage_execute_cores),
                ("feed_pmus", _stage_feed_pmus),
                ("record", _stage_record),
                ("advance", _stage_advance),
                ("control", _stage_control),
                ("update_dram", _stage_update_dram),
            ],
            name="sim",
        )

    # -- tenant churn ------------------------------------------------------------

    def attach_vm(self, vm: VirtualMachine) -> None:
        """Add a VM between intervals (tenant arrival).

        The VM must already have pinned vCPUs that do not overlap any
        resident VM's.  It gets a fresh RMID, empty timelines, and is handed
        to the cache manager (``attach_vm``), which for dCat registers it
        and carves out its baseline ways before the next interval runs.
        Cores it is the first to be pinned to are built
        (:meth:`Machine.build_cores <repro.platform.machine.Machine.build_cores>`).

        Raises:
            ValueError: On a duplicate name, missing/overlapping vCPUs, or
                RMID exhaustion.
        """
        if any(existing.name == vm.name for existing in self.vms):
            raise ValueError(f"VM {vm.name!r} is already attached")
        if not vm.vcpus:
            raise ValueError(f"VM {vm.name!r} has no pinned vCPUs")
        in_use = {core for existing in self.vms for core in existing.vcpus}
        overlap = in_use.intersection(vm.vcpus)
        if overlap:
            raise ValueError(
                f"VM {vm.name!r} overlaps pinned vCPUs {sorted(overlap)}"
            )
        if not self._free_rmids:
            raise ValueError("no free RMIDs left for monitoring")
        self.manager.attach_vm(vm)
        rmid = self._free_rmids.pop(0)
        self._rmid_of[vm.name] = rmid
        for core in vm.vcpus:
            self.machine.cmt.assoc_rmid(core, rmid)
        self.machine.build_cores(vm.vcpus)
        self.vms.append(vm)
        self.result.records.setdefault(vm.name, [])
        self.result.completions.setdefault(vm.name, [])
        self.substrate.on_attach(vm)

    def detach_vm(self, vm_name: str) -> VirtualMachine:
        """Remove a VM between intervals (tenant departure).

        The manager releases its control state (COS, masks), the RMID
        returns to the pool, and the cores fall back to the unmonitored
        default.  The VM's recorded timelines stay in :attr:`result` so
        departed tenants remain reportable.
        """
        for i, vm in enumerate(self.vms):
            if vm.name == vm_name:
                break
        else:
            raise UnknownTenantError(f"VM {vm_name!r} is not attached")
        self.manager.detach_vm(vm_name)
        del self.vms[i]
        rmid = self._rmid_of.pop(vm_name)
        for core in vm.vcpus:
            self.machine.cmt.assoc_rmid(core, 0)
        if rmid != 0:
            self._free_rmids.append(rmid)
            self._free_rmids.sort()
        self.substrate.on_detach(vm_name)
        return vm

    # -- main loop ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._time_s

    @property
    def tick(self) -> int:
        """Completed intervals since construction (the integer timebase)."""
        return self._tick

    @property
    def _time_s(self) -> float:
        """The sim clock: ``tick * interval_s``, never accumulated."""
        return self._tick * self.machine.interval_s

    def skip_idle(self, intervals: int) -> None:
        """Jump the clock over intervals in which no VM is attached.

        The discrete-event fleet clock parks empty hosts and wakes them on
        the next arrival; this advances the tick, the manager's control
        clock, and relaxes the DRAM model back to its unloaded state —
        exactly what ``intervals`` empty ``step()`` calls would do, minus
        the per-interval loop (and minus the interval events, which an
        idle host does not emit).

        Raises:
            ValueError: If ``intervals`` is negative or VMs are attached.
        """
        if intervals < 0:
            raise ValueError(f"intervals must be >= 0, got {intervals}")
        if self.vms:
            raise ValueError(
                f"cannot skip_idle with {len(self.vms)} attached VM(s); "
                f"the staged loop must run every interval"
            )
        self.manager.skip_idle(intervals)
        # An empty step resolves zero misses -> loaded_latency(0.0).
        self._dram_latency = self.machine.dram.loaded_latency(0.0)
        self._tick += intervals

    @property
    def dram_latency_cycles(self) -> float:
        """The loaded DRAM latency the next interval will execute under."""
        return self._dram_latency

    def run(self, duration_s: float) -> SimulationResult:
        """Advance the simulation by ``duration_s`` of virtual time.

        The simulation only moves in whole intervals (:func:`whole_intervals`).
        Time that does not fill an interval is *accumulated*: ``run(1.25)``
        at a 0.5 s interval runs 2 steps and banks 0.25 s, so a following
        ``run(0.25)`` runs the third step — no time is silently created or
        destroyed the way the old ``round()`` did.

        Raises:
            ValueError: If ``duration_s`` is negative.
        """
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {duration_s}")
        steps, self._residual_s = whole_intervals(
            self._residual_s + duration_s, self.machine.interval_s
        )
        for _ in range(steps):
            self.step()
        return self.result

    def run_until_finished(
        self, watch: Sequence[str], max_duration_s: float = 3600.0
    ) -> SimulationResult:
        """Run until the watched VMs' workloads finish (or the cap hits)."""
        watched = {vm.name: vm for vm in self.vms if vm.name in set(watch)}
        if len(watched) != len(set(watch)):
            missing = set(watch) - set(watched)
            raise ValueError(f"unknown VMs: {sorted(missing)}")
        steps_cap = int(round(max_duration_s / self.machine.interval_s))
        for _ in range(steps_cap):
            self.step()
            if all(vm.workload.finished for vm in watched.values()):
                break
        return self.result

    def step(self) -> None:
        """One interval: :func:`step_batch` over this host alone."""
        step_batch((self,))

    def defer(self, event: Event) -> None:
        """Emit ``event`` at this host's turn in the current interval.

        For the stages that run stage-major over a batch (a substrate's
        spot check, say): their events would otherwise interleave hosts.
        """
        self._outbox.append(event)

    # -- host stages (see the module-level stage functions) ------------------------

    def _record(self, ctx: SimStepContext) -> None:
        """Materialize each VM's interval record (and completion times)."""
        bus = self.bus
        for vm in self.vms:
            acc = ctx.per_vm[vm.name]
            phase = acc.phase
            app_metrics = self._app_metrics(vm, phase, acc.ipc)
            self._record_completion(vm, phase, acc.instructions)
            record = VmIntervalRecord(
                time_s=self._time_s,
                vm_name=vm.name,
                phase_name=phase.name if phase else None,
                ways=ctx.effective_ways[vm.name],
                llc_hit_rate=ctx.hit_rates[vm.name],
                ipc=acc.ipc,
                avg_mem_latency_cycles=acc.avg_latency,
                instructions=acc.instructions,
                cycles=acc.cycles,
                l1_refs=acc.l1_refs,
                llc_refs=acc.llc_refs,
                llc_misses=acc.llc_misses,
                state=self.manager.state_of(vm.name),
                app=app_metrics,
            )
            self.result.records[vm.name].append(record)
            if bus.active:
                bus.emit(
                    SampleCollected.fast(
                        time_s=ctx.time_s,
                        source="sim",
                        workload_id=vm.name,
                        ipc=acc.ipc,
                        llc_miss_rate=record.llc_miss_rate,
                        mem_refs_per_instr=record.mem_refs_per_instr,
                        instructions=acc.instructions,
                        cycles=acc.cycles,
                        idle=phase is None,
                    )
                )

    def _update_dram(self, ctx: SimStepContext) -> None:
        """Refresh the loaded DRAM latency and advance virtual time."""
        machine = self.machine
        total_capacity_cycles = (
            machine.cycles_per_interval * machine.spec.num_threads
        )
        self._dram_latency = machine.dram.loaded_latency(
            ctx.total_misses / total_capacity_cycles * machine.spec.num_threads
        )
        self._tick += 1

    # -- internals ------------------------------------------------------------------

    def rmid_of(self, vm_name: str) -> int:
        """The monitoring RMID assigned to a resident VM."""
        return self._rmid_of[vm_name]

    def _report_monitoring(
        self,
        vm: VirtualMachine,
        phase: Optional[Phase],
        hit_rates: Dict[str, float],
        effective_ways: Dict[str, float],
        llc_misses: int,
    ) -> None:
        """Feed the CMT/MBM model: occupancy estimate plus miss traffic."""
        cmt = self.machine.cmt
        rmid = self._rmid_of[vm.name]
        if phase is None or phase.wss_bytes <= 0:
            cmt.report_occupancy(rmid, 0)
            return
        capacity = effective_ways[vm.name] * self.machine.spec.llc.way_bytes
        occupancy = int(min(phase.wss_bytes, capacity))
        cmt.report_occupancy(rmid, occupancy)
        cmt.report_traffic(rmid, llc_misses * self.machine.spec.llc.line_size)

    def _app_metrics(
        self, vm: VirtualMachine, phase: Optional[Phase], ipc: float
    ) -> Optional[AppMetrics]:
        if phase is None or not isinstance(vm.workload, AppWorkload) or ipc <= 0:
            return None
        return vm.workload.app_metrics(
            cpi=1.0 / ipc, frequency_hz=self.machine.spec.frequency_hz
        )

    def _record_completion(
        self, vm: VirtualMachine, phase: Optional[Phase], instructions: int
    ) -> None:
        """Record a work-bounded phase's finish time with sub-interval accuracy."""
        workload = vm.workload
        if phase is None or not isinstance(workload, PhasedWorkload):
            return
        remaining = workload.remaining_instructions()
        if remaining is None or instructions <= 0 or instructions < remaining:
            return
        fraction = remaining / instructions
        finish = self._time_s + fraction * self.machine.interval_s
        self.result.completions[vm.name].append((phase.name, finish))
