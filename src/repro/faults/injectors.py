"""Fault-injection proxies and the controller splice.

:class:`FaultyPerfMonitor` and :class:`FaultyPqosLibrary` wrap the two
backends the controller depends on — the ``PerfMonitor`` shape and the
``PqosLibrary`` shape — and pass everything through untouched until armed.
Because :class:`~repro.core.controller.DCatController` is backend-agnostic,
they slot in with zero controller-API change.

:class:`FaultInjector` owns both proxies plus a :class:`FaultPlan`.  Its
``install()`` swaps the proxies into a controller and splices an
``inject_faults`` stage just before ``collect`` in the controller's
:class:`~repro.engine.pipeline.StagedLoop`; each interval that stage
resolves the plan, arms the proxies, and publishes a ``FaultInjected``
event per fired rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cat.pqos import (
    PqosCapability,
    PqosError,
    PqosL3Ca,
    PqosLibrary,
)
from repro.core.controller import ControlStepContext, DCatController
from repro.engine.events import FaultInjected
from repro.faults.plan import COUNTER_KINDS, FaultKind, FaultPlan, FaultRule
from repro.hwcounters.msr import COUNTER_WIDTH_BITS, CounterReadError
from repro.hwcounters.perfmon import CounterSample, PerfMonitor

__all__ = ["FaultyPerfMonitor", "FaultyPqosLibrary", "FaultInjector"]

_SATURATED = (1 << COUNTER_WIDTH_BITS) - 1


@dataclass
class _ArmedCounterFault:
    """One counter-path fault armed for the current interval."""

    kind: FaultKind
    cores: FrozenSet[int]
    magnitude: float
    budget: int  # remaining read-error raises (COUNTER_READ_ERROR only)


class FaultyPerfMonitor:
    """A ``PerfMonitor``-shaped proxy that perturbs samples when armed.

    Read errors raise *before* the inner monitor is touched, so the
    interval's counter deltas are not consumed and a controller retry
    observes the true values — which is exactly how a transient EIO from
    ``/dev/cpu/*/msr`` behaves.
    """

    def __init__(self, inner: PerfMonitor) -> None:
        self._inner = inner
        self._armed: List[_ArmedCounterFault] = []

    @property
    def cores(self) -> List[int]:
        return self._inner.cores

    def arm(self, faults: Iterable[_ArmedCounterFault]) -> None:
        """Replace the armed fault set (called once per interval)."""
        self._armed = list(faults)

    def sample_core(self, core: int) -> CounterSample:
        return self._inner.sample_core(core)

    def sample_cores(self, cores: Iterable[int]) -> CounterSample:
        coreset = frozenset(cores)
        for fault in self._armed:
            if fault.kind is not FaultKind.COUNTER_READ_ERROR:
                continue
            if fault.budget > 0 and coreset & fault.cores:
                fault.budget -= 1
                raise CounterReadError("injected transient counter read failure")
        sample = self._inner.sample_cores(sorted(coreset))
        for fault in self._armed:
            if fault.kind is FaultKind.COUNTER_READ_ERROR:
                continue
            if coreset & fault.cores:
                sample = _perturb(sample, fault)
        return sample


def _perturb(sample: CounterSample, fault: _ArmedCounterFault) -> CounterSample:
    if fault.kind is FaultKind.COUNTER_NOISE:
        # Cache events are miscounted; instructions and cycles stay honest,
        # so IPC is intact and only classification inputs are skewed.
        return CounterSample(
            l1_ref=int(sample.l1_ref * fault.magnitude),
            llc_ref=int(sample.llc_ref * fault.magnitude),
            llc_miss=int(sample.llc_miss * fault.magnitude),
            ret_ins=sample.ret_ins,
            cycles=sample.cycles,
        )
    if fault.kind is FaultKind.SAMPLE_SATURATED:
        return CounterSample(
            l1_ref=_SATURATED,
            llc_ref=_SATURATED,
            llc_miss=_SATURATED,
            ret_ins=_SATURATED,
            cycles=_SATURATED,
        )
    if fault.kind in (FaultKind.SAMPLE_ZEROED, FaultKind.WORKLOAD_CRASH):
        # A crashed workload and a zeroed read are indistinguishable at the
        # counter interface: everything reads zero (the cores look idle).
        return CounterSample()
    if fault.kind is FaultKind.WORKLOAD_HANG:
        # A hung workload burns cycles but retires nothing: IPC ~ 0 while
        # the cores are demonstrably not idle.
        return CounterSample(cycles=sample.cycles)
    raise AssertionError(f"unhandled counter fault {fault.kind}")


class FaultyPqosLibrary:
    """A ``PqosLibrary``-shaped proxy that fails or drops writes when armed.

    ``l3ca_set`` failures raise before anything is programmed (the inner
    library's batch write is atomic, so there is no partially applied
    table to model); association drops return without writing, which only
    a readback can detect.  Reads are never perturbed — the hardened
    controller's verify-after-write depends on them telling the truth.
    """

    def __init__(self, inner: PqosLibrary) -> None:
        self._inner = inner
        self._l3ca_failures = 0
        self._assoc_drops = 0
        self.dropped_writes = 0
        self.failed_writes = 0

    def arm(self, l3ca_failures: int, assoc_drops: int) -> None:
        """Set this interval's failure budgets (called once per interval)."""
        self._l3ca_failures = l3ca_failures
        self._assoc_drops = assoc_drops

    # -- the PqosLibrary surface the controller uses -----------------------

    def cap_get(self) -> PqosCapability:
        return self._inner.cap_get()

    def l3ca_set(self, entries: Iterable[PqosL3Ca]) -> None:
        if self._l3ca_failures > 0:
            self._l3ca_failures -= 1
            self.failed_writes += 1
            raise PqosError("injected transient l3ca_set failure")
        self._inner.l3ca_set(entries)

    def l3ca_get(self) -> List[PqosL3Ca]:
        return self._inner.l3ca_get()

    def l3ca_masks(self) -> Tuple[int, ...]:
        return self._inner.l3ca_masks()

    def alloc_assoc_set(self, core: int, cos_id: int) -> None:
        if self._assoc_drops > 0:
            self._assoc_drops -= 1
            self.dropped_writes += 1
            return  # the write is silently lost
        self._inner.alloc_assoc_set(core, cos_id)

    def alloc_assoc_get(self, core: int) -> int:
        return self._inner.alloc_assoc_get(core)

    def assoc_map(self) -> Dict[int, int]:
        return self._inner.assoc_map()


class FaultInjector:
    """Arms the proxies from a :class:`FaultPlan`, one interval at a time.

    Attributes:
        injected: Every fault actually applied, as ``(interval, rule)``
            pairs — the ground truth the chaos report counts faulted
            intervals from.
    """

    STAGE_NAME = "inject_faults"

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.interval = 0
        self.injected: List[Tuple[int, FaultRule]] = []
        self.perfmon: Optional[FaultyPerfMonitor] = None
        self.pqos: Optional[FaultyPqosLibrary] = None
        self._controller: Optional[DCatController] = None

    def install(self, controller: DCatController) -> "FaultInjector":
        """Wrap the controller's backends and splice the arming stage.

        The controller API is untouched: its ``pqos`` and ``perfmon``
        attributes now hold the proxies, and its staged loop gains an
        ``inject_faults`` stage ahead of ``collect``.
        """
        if self._controller is not None:
            raise RuntimeError("injector is already installed")
        self.pqos = FaultyPqosLibrary(controller.pqos)
        self.perfmon = FaultyPerfMonitor(controller.perfmon)
        controller.pqos = self.pqos
        controller.perfmon = self.perfmon
        controller.loop.insert_before(
            "collect", (self.STAGE_NAME, self._stage_arm)
        )
        self._controller = controller
        return self

    def _stage_arm(self, ctx: ControlStepContext) -> None:
        controller = self._controller
        assert controller is not None and self.perfmon and self.pqos
        interval = self.interval
        self.interval += 1
        counter_faults: List[_ArmedCounterFault] = []
        l3ca_failures = 0
        assoc_drops = 0
        bus = controller.bus
        for rule in self.plan.active(interval):
            if rule.kind in COUNTER_KINDS:
                cores = self._target_cores(controller, rule.target)
                if not cores:
                    continue  # the target is not (or no longer) managed
                counter_faults.append(
                    _ArmedCounterFault(
                        kind=rule.kind,
                        cores=cores,
                        magnitude=rule.magnitude,
                        budget=rule.budget,
                    )
                )
                detail = (
                    f"x{rule.magnitude:g}"
                    if rule.kind is FaultKind.COUNTER_NOISE
                    else f"budget={rule.budget}"
                )
            elif rule.kind is FaultKind.L3CA_SET_FAIL:
                l3ca_failures += rule.budget
                detail = f"budget={rule.budget}"
            else:  # FaultKind.ASSOC_DROP
                assoc_drops += rule.budget
                detail = f"budget={rule.budget}"
            self.injected.append((interval, rule))
            if bus.active:
                bus.emit(
                    FaultInjected.fast(
                        time_s=ctx.time_s,
                        kind=rule.kind.value,
                        target=rule.target or "",
                        detail=detail,
                    )
                )
        self.perfmon.arm(counter_faults)
        self.pqos.arm(l3ca_failures, assoc_drops)

    @staticmethod
    def _target_cores(
        controller: DCatController, target: Optional[str]
    ) -> FrozenSet[int]:
        if target is None:
            cores: List[int] = []
            for rec in controller.records.values():
                cores.extend(rec.cores)
            return frozenset(cores)
        rec = controller.records.get(target)
        return frozenset(rec.cores) if rec is not None else frozenset()

    @property
    def faulted_intervals(self) -> int:
        """Distinct intervals in which at least one fault was applied."""
        return len({interval for interval, _ in self.injected})

    def faults_by_kind(self) -> Dict[str, int]:
        """Applied fault counts keyed by kind value (sorted for reports)."""
        counts: Dict[str, int] = {}
        for _, rule in self.injected:
            counts[rule.kind.value] = counts.get(rule.kind.value, 0) + 1
        return dict(sorted(counts.items()))
