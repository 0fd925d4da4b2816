"""DCatController: the five-step control loop (paper Fig. 4).

Once per interval the controller runs, per managed workload:

1. **Collect Statistics** — sample the workload's cores through the
   MSR-style perf-counter substrate and aggregate.
2. **Detect Phase Change** — feed memory-accesses-per-instruction to the
   phase detector.
3. **Get Baseline** — on a phase change, either jump straight to the
   phase's known preferred allocation (performance-table reuse, Fig. 12) or
   Reclaim to the reserved baseline so the phase's baseline IPC can be
   measured.
4. **Categorize Workloads** — run the Fig. 6 state machine.
5. **Allocate Cache** — arbitrate the free pool (reclaim first, Unknown
   before Receiver), apply the configured policy, pack the result into
   contiguous non-overlapping CAT masks, and program them through the
   pqos-style API.

The controller is backend-agnostic: it sees only a ``PqosLibrary``-shaped
allocator and a ``PerfMonitor``-shaped sampler, so the same code drives the
simulated platform here and would drive ``/dev/cpu/*/msr`` + libpqos (or
resctrl) on real hardware.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cat.layout import pack_contiguous
from repro.cat.pqos import PqosError, PqosL3Ca, PqosLibrary
from repro.core.allocation import AllocationInput, plan_allocation
from repro.core.classifier import Decision, categorize, _improvement
from repro.core.config import DCatConfig
from repro.core.hints import DeclaredSchedule, PhaseHint
from repro.core.states import WorkloadState
from repro.core.stats import WorkloadRecord
from repro.core.phase import PhaseDetector
from repro.engine.events import (
    AllocationPlanned,
    EventBus,
    FaultRecovered,
    IntervalFinished,
    IntervalStarted,
    MasksProgrammed,
    NULL_BUS,
    PhaseChanged,
    SampleCollected,
    StateTransition,
    WorkloadDeregistered,
    WorkloadRegistered,
)
from repro.engine.pipeline import StagedLoop
from repro.errors import UnknownTenantError
from repro.hwcounters.msr import CounterReadError
from repro.hwcounters.perfmon import CounterSample, PerfMonitor

__all__ = ["WorkloadStatus", "StepResult", "ControlStepContext", "DCatController"]

# Budgets and bounds of the hardening layer (``DCatConfig.hardened``).
#: Extra sampling attempts after a transient counter read error before
#: falling back to the stale sample.
SAMPLER_MAX_RETRIES = 2
#: Extra attempts for a failed pqos write (mask programming, core
#: association) before the controller gives up.
L3CA_MAX_RETRIES = 2
#: IPC above which a sample is rejected as counter corruption.
MAX_PLAUSIBLE_IPC = 8.0
#: Multiple of the nominal per-interval cycle budget above which a sample's
#: cycle count is physically impossible (saturated counters).
MAX_PLAUSIBLE_CYCLES_SLACK = 2.0
#: Consecutive erratic intervals (read failures or implausible samples)
#: after which a workload is quarantined back to Reclaim at its reserved
#: baseline until its counters recover.
QUARANTINE_AFTER = 3


@dataclass(frozen=True)
class WorkloadStatus:
    """One workload's externally visible status after a control step."""

    workload_id: str
    state: WorkloadState
    ways: int
    ipc: float
    normalized_ipc: Optional[float]
    llc_miss_rate: float
    phase_changed: bool
    sample: CounterSample


@dataclass
class StepResult:
    """Everything one control step decided (for timelines and debugging)."""

    time_s: float
    statuses: Dict[str, WorkloadStatus] = field(default_factory=dict)
    free_ways: int = 0
    moved_workloads: List[str] = field(default_factory=list)


@dataclass
class ControlStepContext:
    """Shared state flowing through one control interval's stages."""

    time_s: float
    result: StepResult
    samples: Dict[str, CounterSample] = field(default_factory=dict)
    changed: Dict[str, bool] = field(default_factory=dict)
    decisions: Dict[str, Decision] = field(default_factory=dict)
    reclaiming: Dict[str, bool] = field(default_factory=dict)
    plan: Dict[str, int] = field(default_factory=dict)
    # Workloads whose sample this interval is a stale-fallback copy (their
    # performance tables must not ingest it).  Empty on a healthy substrate.
    stale: Dict[str, bool] = field(default_factory=dict)
    # known_phase lookups resolved once in allocate and reused by commit
    # (the table cannot change between the two stages of one interval).
    phase_tables: Dict[str, Any] = field(default_factory=dict)


class DCatController:
    """The dCat daemon.

    ``step()`` runs a :class:`~repro.engine.pipeline.StagedLoop` of the
    paper's five steps plus a commit (``collect -> detect_phase ->
    get_baseline -> categorize -> allocate -> commit``) over a shared
    :class:`ControlStepContext`.  Each stage publishes what it observed and
    decided on the event bus; the loop is exposed as ``self.loop`` for
    instrumentation and fault injection.

    Args:
        pqos: Allocation backend (pqos-style API over CAT).
        perfmon: Counter sampling backend.
        config: Thresholds and policy.
        nominal_cycles_per_core: Unhalted cycles a fully busy core retires
            per interval (for idle detection).
        flush_callback: Optional hook invoked with the way mask of every
            span that changed owners, modeling the paper's user-level
            way-flush helper; without one, no ways are flushed.
        bus: Event bus for control-plane events (defaults to the null bus).
    """

    def __init__(
        self,
        pqos: PqosLibrary,
        perfmon: PerfMonitor,
        config: Optional[DCatConfig] = None,
        nominal_cycles_per_core: int = 2_000_000,
        flush_callback: Optional[Callable[[int], None]] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.pqos = pqos
        self.perfmon = perfmon
        self.config = config if config is not None else DCatConfig()
        self.nominal_cycles_per_core = nominal_cycles_per_core
        self.flush_callback = flush_callback
        self.bus = bus if bus is not None else NULL_BUS
        cap = pqos.cap_get()
        self.total_ways = cap.num_ways
        self._max_cos = cap.num_cos
        self._records: Dict[str, WorkloadRecord] = {}
        self._masks: Dict[str, int] = {}
        # COS0 stays the unmanaged default; 1..num_cos-1 are allocatable.
        # A min-heap so re-registration reuses the lowest released id first.
        self._free_cos: List[int] = list(range(1, self._max_cos))
        self._pool_empty = False
        # Integer interval counter; the float clock is derived from it so a
        # billion intervals of 0.1 s accumulate zero drift (PR 1's residual
        # fix, applied to the controller's own timebase).
        self._tick = 0
        self.history: List[StepResult] = []
        self.loop = StagedLoop(
            [
                ("collect", self._stage_collect),
                ("detect_phase", self._stage_detect_phase),
                ("get_baseline", self._stage_get_baseline),
                ("categorize", self._stage_categorize),
                ("allocate", self._stage_allocate),
                ("commit", self._stage_commit),
            ],
            name="controller",
        )

    # -- registration ----------------------------------------------------------

    def register_workload(
        self,
        workload_id: str,
        cores: Sequence[int],
        baseline_ways: int,
        declared_schedule: Optional[DeclaredSchedule] = None,
    ) -> WorkloadRecord:
        """Start managing a workload (a VM / container / tenant).

        Assigns the lowest free class of service and associates the cores.
        Ids released by :meth:`deregister_workload` are reused, so a
        register/deregister churn can never collide two live workloads on
        one COS.  An optional declared phase schedule is stored on the
        record and offered to the allocation strategy each interval.
        """
        if workload_id in self._records:
            raise ValueError(f"workload {workload_id!r} already registered")
        if not self._free_cos:
            raise ValueError(
                f"CAT supports {self._max_cos} classes; cannot isolate more "
                f"than {self._max_cos - 1} workloads"
            )
        cos_id = heapq.heappop(self._free_cos)
        record = WorkloadRecord(
            workload_id=workload_id,
            cores=tuple(cores),
            cos_id=cos_id,
            baseline_ways=baseline_ways,
            detector=PhaseDetector(threshold=self.config.phase_change_thr),
            declared=declared_schedule,
        )
        self._records[workload_id] = record
        done: List[int] = []
        try:
            for core in cores:
                self._assoc_set(core, cos_id)
                done.append(core)
        except PqosError:
            # Roll back: cores already moved return to the unmanaged
            # default, the COS goes back to the pool, nothing stays managed.
            for prev in done:
                self._assoc_set(prev, 0, best_effort=True)
            del self._records[workload_id]
            heapq.heappush(self._free_cos, cos_id)
            raise
        if self.bus.active:
            self.bus.emit(
                WorkloadRegistered.fast(
                    time_s=self._time_s,
                    workload_id=workload_id,
                    cos_id=cos_id,
                    baseline_ways=baseline_ways,
                )
            )
        return record

    def deregister_workload(self, workload_id: str) -> None:
        """Stop managing a workload and release its COS and mask.

        The cores fall back to the unmanaged default (COS0), the class of
        service returns to the free pool for reuse, its mask is reset to the
        full-LLC default, and the span it occupied is released to the free
        pool at the next packing round.

        Deregistration always completes: when hardened, persistent pqos
        write failures are retried and then absorbed (the stale mask is
        reprogrammed before any reuse of the COS can matter), so a flaky
        write path can never leave a departed workload half-managed.
        """
        record = self._records.pop(workload_id, None)
        if record is None:
            raise UnknownTenantError(
                f"workload {workload_id!r} is not registered"
            )
        for core in record.cores:
            self._assoc_set(core, 0, best_effort=True)
        reset = [
            PqosL3Ca(cos_id=record.cos_id, ways_mask=(1 << self.total_ways) - 1)
        ]
        if self.config.hardened:
            try:
                self._pqos_retry(lambda: self.pqos.l3ca_set(reset))
            except PqosError:
                # The COS keeps its stale mask for now; reuse goes through
                # _apply_plan, which programs it before the plan lands.
                if self.bus.active:
                    self.bus.emit(
                        FaultRecovered.fast(
                            time_s=self._time_s,
                            kind="l3ca_set_fail",
                            target=workload_id,
                            action="deferred_reset",
                            attempts=L3CA_MAX_RETRIES + 1,
                        )
                    )
        else:
            self.pqos.l3ca_set(reset)
        heapq.heappush(self._free_cos, record.cos_id)
        self._masks.pop(workload_id, None)
        if self.bus.active:
            self.bus.emit(
                WorkloadDeregistered.fast(
                    time_s=self._time_s,
                    workload_id=workload_id,
                    cos_id=record.cos_id,
                )
            )

    def admit_workload(
        self,
        workload_id: str,
        cores: Sequence[int],
        baseline_ways: int,
        declared_schedule: Optional[DeclaredSchedule] = None,
    ) -> WorkloadRecord:
        """Register a workload mid-run and carve out its baseline allocation.

        Unlike :meth:`register_workload` + :meth:`initialize` (which resets
        everyone to baseline), this reclaims only what the newcomer's
        reservation needs: first the free pool, then surplus ways above the
        incumbents' baselines, largest surplus first.  The resulting plan is
        packed and programmed immediately, so the newcomer never observes the
        power-on full mask.

        Raises:
            ValueError: If the reservations cannot fit even after reclaiming
                every surplus way (the registration is rolled back).
            PqosError: If the hardware write path keeps failing beyond the
                retry budget (the registration is likewise rolled back).
        """
        record = self.register_workload(
            workload_id, cores, baseline_ways, declared_schedule=declared_schedule
        )
        plan = {
            wid: rec.ways
            for wid, rec in self._records.items()
            if wid != workload_id
        }
        needed = baseline_ways - (self.total_ways - sum(plan.values()))
        if needed > 0:
            surplus_order = sorted(
                plan,
                key=lambda wid: (
                    -(plan[wid] - self._records[wid].baseline_ways),
                    wid,
                ),
            )
            for wid in surplus_order:
                if needed <= 0:
                    break
                take = min(plan[wid] - self._records[wid].baseline_ways, needed)
                if take > 0:
                    plan[wid] -= take
                    needed -= take
        if needed > 0:
            self.deregister_workload(workload_id)
            raise ValueError(
                f"cannot admit {workload_id!r}: {baseline_ways} reserved way(s) "
                f"do not fit next to the incumbents' reservations"
            )
        plan[workload_id] = baseline_ways
        try:
            self._apply_plan(plan)
        except PqosError:
            self.deregister_workload(workload_id)
            raise
        for wid, ways in plan.items():
            self._records[wid].ways = ways
        record.prev_ways = baseline_ways
        return record

    @property
    def records(self) -> Mapping[str, WorkloadRecord]:
        """Read-only view of the managed workloads.

        Registration state changes only through :meth:`register_workload`,
        :meth:`deregister_workload` and :meth:`admit_workload`; handing out
        the raw dict would let callers bypass the COS pool bookkeeping.
        """
        return MappingProxyType(self._records)

    def initialize(self) -> None:
        """Program every workload's reserved baseline (static-CAT start)."""
        plan = {
            wid: rec.baseline_ways for wid, rec in self._records.items()
        }
        inputs = [
            AllocationInput(
                workload_id=wid,
                state=WorkloadState.KEEPER,
                target_ways=rec.baseline_ways,
                grow_request=0,
                baseline_ways=rec.baseline_ways,
            )
            for wid, rec in self._records.items()
        ]
        plan = plan_allocation(inputs, self.total_ways, self.config)
        self._apply_plan(plan)
        for wid, rec in self._records.items():
            rec.ways = plan[wid]
            rec.prev_ways = plan[wid]

    # -- the control loop ----------------------------------------------------------

    @property
    def _time_s(self) -> float:
        """The control clock: ``tick * interval_s``, never accumulated."""
        return self._tick * self.config.interval_s

    def skip_idle(self, intervals: int) -> None:
        """Advance the clock over intervals with no registered workloads.

        The discrete-event fleet clock skips a host's control loop while
        nothing is registered on it; when a tenant lands, the controller
        must already be at fleet time so registration and event timestamps
        line up.  A skipped interval appends nothing to :attr:`history` —
        only executed control steps are history.

        Raises:
            ValueError: If workloads are registered (their counters would
                silently go unsampled) or ``intervals`` is negative.
        """
        if intervals < 0:
            raise ValueError(f"intervals must be >= 0, got {intervals}")
        if self._records:
            raise ValueError(
                f"cannot skip_idle with {len(self._records)} registered "
                f"workload(s); the control loop must run every interval"
            )
        self._tick += intervals

    def step(self) -> StepResult:
        """Run one control interval; returns what was observed and decided."""
        bus = self.bus
        ctx = ControlStepContext(
            time_s=self._time_s, result=StepResult(time_s=self._time_s)
        )
        if bus.active:
            bus.emit(IntervalStarted.fast(time_s=ctx.time_s, source="controller"))
        self.loop.run(ctx)
        if bus.active:
            bus.emit(IntervalFinished.fast(time_s=ctx.time_s, source="controller"))
        return ctx.result

    # -- stages (paper Fig. 4, one per step, plus commit) ----------------------

    def _stage_collect(self, ctx: ControlStepContext) -> None:
        """Step 1 — sample every workload's cores and flag idleness.

        When ``config.hardened``, sampling goes through bounded retries, a
        plausibility gate and a stale-sample fallback
        (:meth:`_sample_hardened`); on a healthy substrate that path issues
        the exact same reads as the direct call.
        """
        bus = self.bus
        hardened = self.config.hardened
        for wid, rec in self._records.items():
            if hardened:
                sample = self._sample_hardened(wid, rec, ctx)
            else:
                sample = self.perfmon.sample_cores(rec.cores)
            ctx.samples[wid] = sample
            # Idle detection: the cores barely ran this interval.
            busy_budget = self.nominal_cycles_per_core * len(rec.cores)
            rec.idle = sample.cycles < self.config.idle_cycles_fraction * busy_budget
            if bus.active:
                bus.emit(
                    SampleCollected.fast(
                        time_s=ctx.time_s,
                        source="controller",
                        workload_id=wid,
                        ipc=sample.ipc,
                        llc_miss_rate=sample.llc_miss_rate,
                        mem_refs_per_instr=sample.mem_refs_per_instr,
                        instructions=sample.ret_ins,
                        cycles=sample.cycles,
                        idle=rec.idle,
                    )
                )

    def _stage_detect_phase(self, ctx: ControlStepContext) -> None:
        """Step 2 — feed the phase detectors with the mem/instr signature."""
        bus = self.bus
        for wid, rec in self._records.items():
            sample = ctx.samples[wid]
            changed = rec.detector.observe(sample.mem_refs_per_instr, idle=rec.idle)
            ctx.changed[wid] = changed
            # Keep the signature synced every interval: the first-ever
            # observation establishes a phase without flagging a change.
            rec.signature = rec.detector.current_signature
            if changed and bus.active:
                bus.emit(
                    PhaseChanged.fast(
                        time_s=ctx.time_s,
                        workload_id=wid,
                        mem_refs_per_instr=sample.mem_refs_per_instr,
                        idle=rec.signature.idle,
                    )
                )

    def _stage_get_baseline(self, ctx: ControlStepContext) -> None:
        """Step 3 — on a phase change, jump to a known allocation or Reclaim;
        otherwise feed the phase's performance table."""
        for wid, rec in self._records.items():
            if ctx.changed[wid]:
                rec.reset_phase_state()
                ctx.decisions[wid], ctx.reclaiming[wid] = (
                    self._phase_change_decision(rec)
                )
            elif not ctx.stale.get(wid):
                sample = ctx.samples[wid]
                self._record_performance(rec, sample)
                self._update_unknown_bookkeeping(rec, sample)

    def _stage_categorize(self, ctx: ControlStepContext) -> None:
        """Step 4 — run the Fig. 6 state machine for phase-stable workloads."""
        for wid, rec in self._records.items():
            if rec.quarantined:
                # Erratic counters: park the workload at its reserved
                # baseline (overriding even a phase-change jump) until its
                # samples become trustworthy again.
                ctx.decisions[wid] = Decision(
                    WorkloadState.RECLAIM, rec.baseline_ways
                )
                ctx.reclaiming[wid] = True
                continue
            if ctx.changed[wid]:
                continue  # decided in get_baseline
            sample = ctx.samples[wid]
            decision = categorize(rec, sample, self.config, self._pool_empty)
            if (
                decision.state is WorkloadState.UNKNOWN
                and rec.shrunk_last_round
                and rec.state is WorkloadState.DONOR
            ):
                # The shrink we just made provoked misses; remember the
                # floor so this phase is not probed again.
                rec.donor_floor_ways = rec.prev_ways
            ctx.decisions[wid] = decision
            ctx.reclaiming[wid] = False

    def _stage_allocate(self, ctx: ControlStepContext) -> None:
        """Step 5 — arbitrate the pool, pack masks, program the hardware."""
        bus = self.bus
        ctx.phase_tables = {
            wid: rec.table.known_phase(rec.signature)
            for wid, rec in self._records.items()
        }
        inputs = [
            AllocationInput(
                workload_id=wid,
                state=ctx.decisions[wid].state,
                target_ways=ctx.decisions[wid].target_ways,
                grow_request=ctx.decisions[wid].grow_request,
                baseline_ways=self._records[wid].baseline_ways,
                reclaiming=ctx.reclaiming[wid],
                phase_table=ctx.phase_tables[wid],
                hint=(
                    PhaseHint(
                        time_s=ctx.time_s,
                        schedule=self._records[wid].declared,
                        measured_refs_per_instr=(
                            ctx.samples[wid].mem_refs_per_instr
                        ),
                    )
                    if self._records[wid].declared is not None
                    else None
                ),
            )
            for wid in self._records
        ]
        ctx.plan = plan_allocation(inputs, self.total_ways, self.config)
        free = self.total_ways - sum(ctx.plan.values())
        if bus.active:
            bus.emit(
                AllocationPlanned.fast(
                    time_s=ctx.time_s, plan=dict(ctx.plan), free_ways=free
                )
            )
        moved = self._apply_plan(ctx.plan, time_s=ctx.time_s)
        ctx.result.moved_workloads = moved
        self._pool_empty = free <= 0
        ctx.result.free_ways = free

    def _stage_commit(self, ctx: ControlStepContext) -> None:
        """Write back records, publish statuses, advance controller time."""
        bus = self.bus
        for wid, rec in self._records.items():
            sample = ctx.samples[wid]
            decision = ctx.decisions[wid]
            if (
                decision.state is WorkloadState.KEEPER
                and rec.state in (WorkloadState.UNKNOWN, WorkloadState.RECEIVER)
            ):
                rec.growth_ceiling_ways = rec.ways
                rec.growth_ceiling_miss_rate = sample.llc_miss_rate
            elif decision.state is WorkloadState.UNKNOWN:
                # A fresh growth episode invalidates the old stop point.
                rec.growth_ceiling_ways = 0
                rec.growth_ceiling_miss_rate = 0.0
            if bus.active and decision.state is not rec.state:
                bus.emit(
                    StateTransition.fast(
                        time_s=ctx.time_s,
                        workload_id=wid,
                        old_state=rec.state.value,
                        new_state=decision.state.value,
                    )
                )
            rec.prev_ways = rec.ways
            rec.ways = ctx.plan[wid]
            rec.state = decision.state
            rec.last_sample = sample
            rec.last_ipc = sample.ipc
            table = ctx.phase_tables[wid]
            baseline_ipc = table.baseline_ipc if table else None
            ctx.result.statuses[wid] = WorkloadStatus(
                workload_id=wid,
                state=decision.state,
                ways=ctx.plan[wid],
                ipc=sample.ipc,
                normalized_ipc=(
                    sample.ipc / baseline_ipc if baseline_ipc else None
                ),
                llc_miss_rate=sample.llc_miss_rate,
                phase_changed=ctx.changed[wid],
                sample=sample,
            )

        self._tick += 1
        self.history.append(ctx.result)

    # -- helpers ------------------------------------------------------------------

    def _phase_change_decision(
        self, rec: WorkloadRecord
    ) -> Tuple[Decision, bool]:
        """Reclaim to baseline, or jump to a known phase's preferred ways."""
        if rec.signature.idle:
            # The workload went quiet; it will be classified Donor next
            # interval, but return it to the minimum right away.
            return Decision(WorkloadState.DONOR, self.config.min_ways), False
        if self.config.use_performance_table:
            table = rec.table.known_phase(rec.signature)
            if table is not None:
                preferred = table.preferred_ways()
                if preferred is not None:
                    return (
                        Decision(WorkloadState.KEEPER, preferred),
                        False,
                    )
        return Decision(WorkloadState.RECLAIM, rec.baseline_ways), True

    def _record_performance(self, rec: WorkloadRecord, sample: CounterSample) -> None:
        """Feed this interval's IPC into the phase's performance table."""
        if rec.signature.idle or rec.idle or sample.ipc <= 0:
            return
        phase_table = rec.table.phase(rec.signature)
        if rec.ways == rec.baseline_ways:
            phase_table.record_baseline(sample.ipc)
        phase_table.record(rec.ways, sample.ipc)

    def _update_unknown_bookkeeping(
        self, rec: WorkloadRecord, sample: CounterSample
    ) -> None:
        """Count grants that failed to improve an Unknown workload."""
        if rec.state is not WorkloadState.UNKNOWN:
            return
        if not rec.got_grant_last_round:
            return
        gain = _improvement(rec, sample)
        if gain is None or gain < self.config.ipc_imp_thr:
            rec.unknown_grants += 1
        else:
            rec.unknown_grants = 0

    def _apply_plan(
        self, plan: Dict[str, int], time_s: Optional[float] = None
    ) -> List[str]:
        """Pack the plan into contiguous masks and program the hardware."""
        layout = pack_contiguous(plan, self.total_ways, previous=self._masks)
        entries = []
        for wid, mask in layout.masks.items():
            rec = self._records[wid]
            entries.append(PqosL3Ca(cos_id=rec.cos_id, ways_mask=mask))
        when = self._time_s if time_s is None else time_s
        if self.config.hardened:
            self._program_masks(entries, when)
        else:
            self.pqos.l3ca_set(entries)
        if self.flush_callback is not None:
            for wid in layout.moved:
                self.flush_callback(layout.masks[wid])
        self._masks = dict(layout.masks)
        if self.bus.active:
            self.bus.emit(
                MasksProgrammed.fast(
                    time_s=when,
                    masks=dict(layout.masks),
                    moved=tuple(layout.moved),
                )
            )
        return list(layout.moved)

    # -- hardening (the repro.faults robustness layer) -------------------------

    @staticmethod
    def _pqos_retry(call: Callable[[], None]) -> int:
        """Run a pqos write, retrying transient failures; returns attempts.

        Raises:
            PqosError: When the call still fails after ``L3CA_MAX_RETRIES``
                additional attempts.
        """
        for attempt in range(1, L3CA_MAX_RETRIES + 2):
            try:
                call()
                return attempt
            except PqosError:
                if attempt > L3CA_MAX_RETRIES:
                    raise
        raise AssertionError("unreachable")

    def _program_masks(self, entries: List[PqosL3Ca], time_s: float) -> None:
        """Program COS masks with bounded retries and verify-after-write.

        After the (atomic) batch write succeeds, the COS table is read back
        once per round (``l3ca_masks``, plain ints) and every wanted entry
        that did not land is reprogrammed — the paper's daemon must never
        run an interval on masks it merely believes it wrote.

        Raises:
            PqosError: If the write keeps failing beyond ``L3CA_MAX_RETRIES``
                or readback never converges to the requested table.
        """
        bus = self.bus
        attempts = self._pqos_retry(lambda: self.pqos.l3ca_set(entries))
        if attempts > 1 and bus.active:
            bus.emit(
                FaultRecovered.fast(
                    time_s=time_s,
                    kind="l3ca_set_fail",
                    target="",
                    action="retry",
                    attempts=attempts,
                )
            )
        wanted = sorted({e.cos_id: e.ways_mask for e in entries}.items())
        for round_ in range(L3CA_MAX_RETRIES + 1):
            table = self.pqos.l3ca_masks()
            stray = [
                PqosL3Ca(cos_id=cos, ways_mask=mask)
                for cos, mask in wanted
                if table[cos] != mask
            ]
            if not stray:
                return
            self._pqos_retry(lambda: self.pqos.l3ca_set(stray))
            if bus.active:
                bus.emit(
                    FaultRecovered.fast(
                        time_s=time_s,
                        kind="l3ca_set_fail",
                        target="",
                        action="reprogram",
                        attempts=round_ + 1,
                    )
                )
        table = self.pqos.l3ca_masks()
        if any(table[cos] != mask for cos, mask in wanted):
            raise PqosError("COS mask readback never matched the plan")

    def _assoc_set(
        self, core: int, cos_id: int, *, best_effort: bool = False
    ) -> bool:
        """Associate a core with a COS, verifying the write took effect.

        A dropped association (the write silently not landing) is detected
        by readback and re-issued up to ``L3CA_MAX_RETRIES`` times.  Returns
        True once the association is in place; with ``best_effort`` a
        persistent failure returns False instead of raising.
        """
        if not self.config.hardened:
            self.pqos.alloc_assoc_set(core, cos_id)
            return True
        for attempt in range(1, L3CA_MAX_RETRIES + 2):
            try:
                self.pqos.alloc_assoc_set(core, cos_id)
            except PqosError:
                continue
            if self.pqos.alloc_assoc_get(core) == cos_id:
                if attempt > 1 and self.bus.active:
                    self.bus.emit(
                        FaultRecovered.fast(
                            time_s=self._time_s,
                            kind="assoc_drop",
                            target=f"core:{core}",
                            action="assoc_rewrite",
                            attempts=attempt,
                        )
                    )
                return True
        if best_effort:
            return False
        raise PqosError(
            f"core {core} association with COS {cos_id} did not take effect"
        )

    def _plausible(self, rec: WorkloadRecord, sample: CounterSample) -> bool:
        """Physical sanity gate: IPC and per-interval cycle-budget bounds."""
        if sample.ipc > MAX_PLAUSIBLE_IPC:
            return False
        budget = self.nominal_cycles_per_core * len(rec.cores)
        return sample.cycles <= MAX_PLAUSIBLE_CYCLES_SLACK * budget

    def _sample_hardened(
        self, wid: str, rec: WorkloadRecord, ctx: ControlStepContext
    ) -> CounterSample:
        """Sample with bounded retries, a plausibility gate, stale fallback.

        A transient :class:`CounterReadError` is retried up to
        ``SAMPLER_MAX_RETRIES`` extra times (the fault raises before the
        counters are consumed, so a retry still sees the full interval
        delta).  A read that keeps failing — or that returns physically
        impossible values — is replaced by the previous interval's sample
        (an idle zero sample if there is none) and counts toward the
        quarantine streak; the first clean sample clears the streak and
        releases any quarantine.
        """
        bus = self.bus
        time_s = ctx.time_s
        sample: Optional[CounterSample] = None
        kind = ""
        attempts = 0
        for attempts in range(1, SAMPLER_MAX_RETRIES + 2):
            try:
                candidate = self.perfmon.sample_cores(rec.cores)
            except CounterReadError:
                kind = "counter_read_error"
                continue
            if self._plausible(rec, candidate):
                sample = candidate
            else:
                # The interval's deltas are already consumed; retrying
                # would read near-zero noise, so fall back immediately.
                kind = "implausible_sample"
            break
        if sample is not None:
            if attempts > 1 and bus.active:
                bus.emit(
                    FaultRecovered.fast(
                        time_s=time_s,
                        kind=kind,
                        target=wid,
                        action="retry",
                        attempts=attempts,
                    )
                )
            if rec.erratic_streak:
                rec.erratic_streak = 0
                if rec.quarantined:
                    rec.quarantined = False
                    if bus.active:
                        bus.emit(
                            FaultRecovered.fast(
                                time_s=time_s,
                                kind="erratic_counters",
                                target=wid,
                                action="quarantine_release",
                                attempts=attempts,
                            )
                        )
            return sample
        ctx.stale[wid] = True
        rec.erratic_streak += 1
        if bus.active:
            bus.emit(
                FaultRecovered.fast(
                    time_s=time_s,
                    kind=kind,
                    target=wid,
                    action="stale_sample",
                    attempts=attempts,
                )
            )
        if not rec.quarantined and rec.erratic_streak >= QUARANTINE_AFTER:
            rec.quarantined = True
            if bus.active:
                bus.emit(
                    FaultRecovered.fast(
                        time_s=time_s,
                        kind="erratic_counters",
                        target=wid,
                        action="quarantine",
                        attempts=rec.erratic_streak,
                    )
                )
        return rec.last_sample if rec.last_sample is not None else CounterSample()

    # -- introspection ------------------------------------------------------------

    def mask_of(self, workload_id: str) -> int:
        return self._masks[workload_id]

    def ways_of(self, workload_id: str) -> int:
        return self._records[workload_id].ways

    def state_of(self, workload_id: str) -> WorkloadState:
        return self._records[workload_id].state
