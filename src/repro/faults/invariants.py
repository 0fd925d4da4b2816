"""Online allocation-invariant checking over the event bus.

The :class:`InvariantChecker` subscribes to a live :class:`EventBus` and
reconstructs, purely from published events, what the controller believes:
who is registered (``WorkloadRegistered``/``Deregistered``), which state
each workload is in (``StateTransition``), the way plan
(``AllocationPlanned``), the programmed masks (``MasksProgrammed``) and
each workload's measured miss rate and idleness (``SampleCollected``).  At
every ``IntervalFinished`` from the controller it asserts:

1. **Contiguity** — every programmed mask is a contiguous run of ways
   inside the LLC (Intel CAT rejects anything else).
2. **Exclusivity** — no two workloads' masks overlap.
3. **Coverage** — each mask holds exactly its planned ways, the plan plus
   the free pool accounts for every way, and plan and masks name the same
   workloads.
4. **Baseline guarantee** — no workload sits below its reserved baseline
   while demonstrably starved (miss rate above threshold, not idle) for
   longer than ``patience`` consecutive intervals.  Donors, Streaming
   workloads, low-miss Keepers and quarantined workloads are legitimately
   below baseline — the guarantee is about *performance*, and theirs is
   met by construction; the patience window covers the paper's transient
   recovery states (Reclaim -> Unknown -> Receiver climbs).
5. **COS-pool consistency** — live workloads occupy distinct classes of
   service.

Each failed assertion appends to :attr:`violations` and publishes an
``InvariantViolated`` event, so JSONL traces carry the verdict inline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cat.cos import is_contiguous, mask_way_count
from repro.core.config import DCatConfig
from repro.engine.events import (
    AllocationPlanned,
    Event,
    EventBus,
    FaultInjected,
    FaultRecovered,
    IntervalFinished,
    InvariantViolated,
    MasksProgrammed,
    SampleCollected,
    StateTransition,
    WorkloadDeregistered,
    WorkloadRegistered,
)
from repro.core.states import WorkloadState

__all__ = ["InvariantChecker"]

#: States whose occupants are legitimately below their baseline: Donors and
#: Streaming workloads gave ways up (their performance target is met by
#: definition), Reclaim is the act of restoring the baseline itself.
_BELOW_BASELINE_OK = frozenset(
    {
        WorkloadState.DONOR.value,
        WorkloadState.STREAMING.value,
        WorkloadState.RECLAIM.value,
    }
)


class InvariantChecker:
    """Asserts the allocation invariants after every controller interval.

    Args:
        total_ways: The LLC's way count (full-coverage accounting).
        config: The controller's thresholds (miss-rate threshold feeds the
            starvation test).
        bus: A live event bus (the null bus cannot be subscribed to).
        patience: Consecutive starved-below-baseline intervals tolerated
            before invariant 4 fires.  Covers the legitimate transient of
            a workload climbing back from a donated or reclaimed
            allocation; raise it for very slow-recovery scenarios.
    """

    def __init__(
        self,
        total_ways: int,
        config: Optional[DCatConfig] = None,
        bus: Optional[EventBus] = None,
        patience: int = 5,
    ) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.total_ways = total_ways
        self.config = config if config is not None else DCatConfig()
        self.patience = patience
        self.violations: List[InvariantViolated] = []
        self.intervals_checked = 0
        #: Per-interval ``(faulted, guarantee_ok)`` flags, oldest first.
        self.interval_flags: List[Tuple[bool, bool]] = []
        #: Lengths of closed below-baseline starvation episodes (recovery
        #: latency in intervals; call :meth:`finalize` to close open ones).
        self.guarantee_gaps: List[int] = []
        self._bus: Optional[EventBus] = None
        self._baselines: Dict[str, int] = {}
        self._cos: Dict[str, int] = {}
        self._states: Dict[str, str] = {}
        self._miss: Dict[str, float] = {}
        self._idle: Dict[str, bool] = {}
        self._quarantined: set = set()
        self._plan: Dict[str, int] = {}
        self._free_ways = 0
        self._masks: Dict[str, int] = {}
        self._hungry: Dict[str, int] = {}
        self._faulted = False
        self._time_s = 0.0
        if bus is not None:
            self.attach(bus)

    def attach(self, bus: EventBus) -> None:
        """Subscribe to ``bus`` (idempotent per checker)."""
        if self._bus is not None:
            raise RuntimeError("checker is already attached to a bus")
        self._bus = bus
        bus.subscribe(self._on_event)

    # -- event ingestion ---------------------------------------------------

    def _on_event(self, event: Event) -> None:
        if isinstance(event, SampleCollected):
            if event.source == "controller":
                self._miss[event.workload_id] = event.llc_miss_rate
                self._idle[event.workload_id] = event.idle
        elif isinstance(event, AllocationPlanned):
            self._plan = dict(event.plan)
            self._free_ways = event.free_ways
        elif isinstance(event, MasksProgrammed):
            self._masks = dict(event.masks)
        elif isinstance(event, StateTransition):
            self._states[event.workload_id] = event.new_state
        elif isinstance(event, WorkloadRegistered):
            self._baselines[event.workload_id] = event.baseline_ways
            self._cos[event.workload_id] = event.cos_id
            self._states[event.workload_id] = WorkloadState.KEEPER.value
        elif isinstance(event, WorkloadDeregistered):
            self._forget(event.workload_id)
        elif isinstance(event, FaultInjected):
            self._faulted = True
        elif isinstance(event, FaultRecovered):
            if event.action == "quarantine":
                self._quarantined.add(event.target)
            elif event.action == "quarantine_release":
                self._quarantined.discard(event.target)
        elif isinstance(event, IntervalFinished):
            if event.source == "controller":
                self._time_s = event.time_s
                self._check(event.time_s)

    def _forget(self, workload_id: str) -> None:
        streak = self._hungry.pop(workload_id, 0)
        if streak:
            self.guarantee_gaps.append(streak)
        for table in (
            self._baselines,
            self._cos,
            self._states,
            self._miss,
            self._idle,
        ):
            table.pop(workload_id, None)
        self._quarantined.discard(workload_id)

    # -- the checks --------------------------------------------------------

    def _violate(self, time_s: float, invariant: str, detail: str) -> None:
        event = InvariantViolated.fast(
            time_s=time_s, invariant=invariant, detail=detail
        )
        self.violations.append(event)
        if self._bus is not None and self._bus.active:
            self._bus.emit(event)

    def _check(self, time_s: float) -> None:
        self.intervals_checked += 1
        masks = self._masks
        plan = self._plan

        # 1. contiguity + in-bounds
        for wid, mask in sorted(masks.items()):
            if mask <= 0 or mask > (1 << self.total_ways) - 1:
                self._violate(
                    time_s,
                    "mask_bounds",
                    f"{wid}: mask {mask:#x} outside the "
                    f"{self.total_ways}-way LLC",
                )
            elif not is_contiguous(mask):
                self._violate(
                    time_s, "mask_contiguous", f"{wid}: mask {mask:#x}"
                )

        # 2. exclusivity
        seen = 0
        for wid, mask in sorted(masks.items()):
            if mask & seen:
                self._violate(
                    time_s,
                    "mask_overlap",
                    f"{wid}: mask {mask:#x} overlaps ways {mask & seen:#x}",
                )
            seen |= mask

        # 3. coverage: masks <-> plan <-> free pool account for every way
        if set(masks) != set(plan):
            self._violate(
                time_s,
                "coverage",
                f"plan names {sorted(plan)} but masks name {sorted(masks)}",
            )
        else:
            for wid, mask in sorted(masks.items()):
                if mask_way_count(mask) != plan[wid]:
                    self._violate(
                        time_s,
                        "coverage",
                        f"{wid}: planned {plan[wid]} way(s) but mask "
                        f"{mask:#x} holds {mask_way_count(mask)}",
                    )
            if sum(plan.values()) + self._free_ways != self.total_ways:
                self._violate(
                    time_s,
                    "coverage",
                    f"plan {sum(plan.values())} + free {self._free_ways} "
                    f"!= {self.total_ways} ways",
                )

        # 4. baseline guarantee (with the documented exemptions)
        guarantee_ok = True
        for wid in sorted(plan):
            if self._starved_below_baseline(wid):
                guarantee_ok = False
                streak = self._hungry.get(wid, 0) + 1
                self._hungry[wid] = streak
                if streak == self.patience + 1:
                    self._violate(
                        time_s,
                        "baseline_guarantee",
                        f"{wid}: {plan[wid]} < baseline "
                        f"{self._baselines.get(wid)} way(s) with miss rate "
                        f"{self._miss.get(wid, 0.0):.4f} for {streak} "
                        f"interval(s)",
                    )
            else:
                streak = self._hungry.pop(wid, 0)
                if streak:
                    self.guarantee_gaps.append(streak)

        # 5. COS-pool consistency
        live_cos = sorted(self._cos.values())
        if len(set(live_cos)) != len(live_cos):
            self._violate(
                time_s,
                "cos_pool",
                f"duplicate COS assignment among {sorted(self._cos.items())}",
            )

        self.interval_flags.append((self._faulted, guarantee_ok))
        self._faulted = False

    def _starved_below_baseline(self, wid: str) -> bool:
        baseline = self._baselines.get(wid)
        if baseline is None or self._plan.get(wid, 0) >= baseline:
            return False
        if wid in self._quarantined:
            return False  # parked at baseline on stale data; not starved
        if self._idle.get(wid, False):
            return False
        if self._states.get(wid) in _BELOW_BASELINE_OK:
            return False
        return self._miss.get(wid, 0.0) > self.config.llc_miss_rate_thr

    # -- reporting ---------------------------------------------------------

    def finalize(self) -> None:
        """Close still-open starvation streaks (end of run)."""
        for wid in sorted(self._hungry):
            streak = self._hungry.pop(wid)
            if streak:
                self.guarantee_gaps.append(streak)

    @property
    def faulted_intervals(self) -> int:
        return sum(1 for faulted, _ in self.interval_flags if faulted)

    @property
    def guarantee_retention(self) -> float:
        """Fraction of faulted intervals where the baseline guarantee held.

        1.0 when no interval was faulted (nothing to retain against).
        """
        faulted = [ok for is_faulted, ok in self.interval_flags if is_faulted]
        if not faulted:
            return 1.0
        return sum(faulted) / len(faulted)
