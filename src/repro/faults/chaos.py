"""Chaos runs: a scenario + a fault plan -> a guarantee-retention report.

A chaos scenario file is a plain scenario file (see
:mod:`repro.harness.scenario_file`) with up to three extra sections::

    {
      "machine": {"socket": "xeon_e5", "seed": 7},
      "manager": {"type": "dcat"},
      "duration_s": 60,
      "vms": [ ... ],
      "faults": {"seed": 7, "rules": [ ... ]},
      "restarts": [{"vm": "redis", "detach_interval": 20,
                    "attach_interval": 24}],
      "patience": 5
    }

``faults`` is a :class:`~repro.faults.plan.FaultPlan` spec.  ``restarts``
detaches a VM from management at one interval boundary and re-admits it at
a later one — the daemon's view of a tenant dying and coming back — which
exercises the deregister/admit write paths while pqos faults are armed.
``patience`` tunes the invariant checker's starvation window.

:func:`run_chaos` wires a live event bus, installs the
:class:`~repro.faults.injectors.FaultInjector` and
:class:`~repro.faults.invariants.InvariantChecker`, steps the simulation,
and distills a :class:`ChaosReport`.  Everything downstream of the seeds is
deterministic, so the same scenario produces a byte-identical report (and
JSONL trace) on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.engine.context import (
    RunContext,
    _get_int,
    _reject_unknown,
    _require_mapping,
    read_document,
)
from repro.engine.events import EventBus, FaultRecovered, JsonlTraceWriter
from repro.faults.injectors import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan

__all__ = ["ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosReport:
    """What a chaos run proved (or failed to prove).

    Attributes:
        intervals: Control intervals the checker audited.
        faulted_intervals: Intervals in which at least one fault landed.
        faults_by_kind: Applied fault counts per kind.
        recoveries_by_action: ``FaultRecovered`` counts per hardening
            action (retry, stale_sample, reprogram, ...).
        invariant_violations: Total ``InvariantViolated`` events (zero is
            the pass criterion).
        violation_details: One line per violation, in order.
        guarantee_retention: Fraction of faulted intervals in which every
            workload's baseline guarantee held (1.0 when nothing faulted).
        recovery_latency_mean: Mean length, in intervals, of the episodes
            in which some workload sat starved below its baseline.
        recovery_latency_max: Longest such episode.
        crashed: ``None`` if the run completed; otherwise the exception
            that killed the control loop (the unhardened ablation's
            typical fate under read errors).
        hardened: Whether the controller's robustness layer was on.
        plan_seed: The fault plan's seed (for reproducing the run).
    """

    intervals: int
    faulted_intervals: int
    faults_by_kind: Dict[str, int]
    recoveries_by_action: Dict[str, int]
    invariant_violations: int
    violation_details: Tuple[str, ...]
    guarantee_retention: float
    recovery_latency_mean: float
    recovery_latency_max: int
    crashed: Optional[str]
    hardened: bool
    plan_seed: int

    @property
    def fault_fraction(self) -> float:
        if not self.intervals:
            return 0.0
        return self.faulted_intervals / self.intervals

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (keys sorted on dump for byte stability)."""
        return {
            "intervals": self.intervals,
            "faulted_intervals": self.faulted_intervals,
            "fault_fraction": self.fault_fraction,
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "recoveries_by_action": dict(
                sorted(self.recoveries_by_action.items())
            ),
            "invariant_violations": self.invariant_violations,
            "violation_details": list(self.violation_details),
            "guarantee_retention": self.guarantee_retention,
            "recovery_latency_mean": self.recovery_latency_mean,
            "recovery_latency_max": self.recovery_latency_max,
            "crashed": self.crashed,
            "hardened": self.hardened,
            "plan_seed": self.plan_seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render(self) -> str:
        """Deterministic human-readable summary (the CLI's output)."""
        kinds = " ".join(
            f"{k}={v}" for k, v in sorted(self.faults_by_kind.items())
        )
        actions = " ".join(
            f"{k}={v}" for k, v in sorted(self.recoveries_by_action.items())
        )
        lines = [
            f"chaos report (plan seed {self.plan_seed}, "
            f"{'hardened' if self.hardened else 'unhardened'} controller)",
            f"  intervals audited:    {self.intervals}",
            f"  faulted intervals:    {self.faulted_intervals} "
            f"({self.fault_fraction:.1%})",
            f"  faults by kind:       {kinds or '-'}",
            f"  recoveries by action: {actions or '-'}",
            f"  invariant violations: {self.invariant_violations}",
            f"  guarantee retention:  {self.guarantee_retention:.4f}",
            f"  recovery latency:     mean {self.recovery_latency_mean:.2f}, "
            f"max {self.recovery_latency_max} interval(s)",
            f"  crashed:              {self.crashed or '-'}",
        ]
        for detail in self.violation_details:
            lines.append(f"  violation: {detail}")
        return "\n".join(lines)

    @property
    def passed(self) -> bool:
        """Zero violations and the control loop survived."""
        return self.invariant_violations == 0 and self.crashed is None


@dataclass(frozen=True)
class _Restart:
    vm: str
    detach_interval: int
    attach_interval: int


def _parse_restarts(
    spec: Any, vm_names: List[str], error: Type[ValueError]
) -> List[_Restart]:
    if spec is None:
        return []
    if not isinstance(spec, list):
        raise error("restarts: expected a list of restart objects")
    restarts: List[_Restart] = []
    for i, raw in enumerate(spec):
        where = f"restarts[{i}]"
        entry = _require_mapping(raw, where, error)
        _reject_unknown(entry, where, _RESTART_KEYS, error)
        vm = entry.get("vm")
        if vm not in vm_names:
            raise error(
                f"{where}.vm: {vm!r} is not one of the scenario's VMs "
                f"{sorted(vm_names)}"
            )
        detach = _get_int(entry, where, "detach_interval", error, minimum=1, required=True)
        attach = _get_int(entry, where, "attach_interval", error, required=True)
        if attach <= detach:
            raise error(
                f"{where}.attach_interval: must be > detach_interval "
                f"({detach}), got {attach}"
            )
        restarts.append(_Restart(vm, detach, attach))
    return restarts


_RESTART_KEYS = ("vm", "detach_interval", "attach_interval")
_CHAOS_KEYS = {"faults", "restarts", "patience"}


def run_chaos(
    source: Union[str, Path, Dict[str, Any]],
    trace: Optional[str] = None,
    metrics: Optional[str] = None,
    fidelity: Optional[str] = None,
    policy: Optional[str] = None,
) -> ChaosReport:
    """Run a chaos scenario end to end and report guarantee retention.

    Args:
        source: Scenario dict, JSON string, or file path (plain scenario
            fields plus ``faults`` / ``restarts`` / ``patience``).
        trace: Optional path for a JSONL event trace of the run (includes
            the ``FaultInjected`` / ``FaultRecovered`` /
            ``InvariantViolated`` stream).
        metrics: Optional path for a telemetry snapshot of the run
            (Prometheus text plus a ``.json`` sibling): per-stage timing
            histograms — the spliced ``inject_faults`` stage included —
            fault/recovery counters and per-invariant violation counts.
            The report itself is unaffected.
        fidelity: Optional fidelity override (``--fidelity``); wins over
            the scenario's own ``fidelity`` field.
        policy: Optional allocation-policy override (``--policy``); wins
            over the scenario's manager config.

    Raises:
        ScenarioError: On any malformed field, the ``faults`` section's
            included, naming it.
    """
    from contextlib import ExitStack

    from repro.cat.pqos import PqosError
    from repro.harness.scenario_file import (
        ScenarioError,
        load_scenario,
        substrate_from_spec,
    )
    from repro.hwcounters.msr import CounterReadError
    from repro.platform.managers import DCatManager
    from repro.platform.sim import CloudSimulation
    from repro.platform.vm import VirtualMachine

    error = ScenarioError
    ctx = RunContext.parse(fidelity=fidelity, policy=policy, error=error)
    data = read_document(source, "chaos scenario", error)
    plan = FaultPlan.from_spec(
        data.get("faults", {"seed": 0}), error, section="faults"
    )
    patience = _get_int(data, "", "patience", error, default=5, minimum=1)
    scenario = {k: v for k, v in data.items() if k not in _CHAOS_KEYS}
    machine, vms, manager, duration_s, fidelity_spec = load_scenario(
        scenario, ctx
    )
    if not isinstance(manager, DCatManager):
        raise error(
            "chaos runs need a dcat manager (faults target its control loop)"
        )
    restarts = _parse_restarts(
        data.get("restarts"), [vm.name for vm in vms], error
    )

    bus = EventBus()
    recoveries: Dict[str, int] = {}

    def _count_recovery(event: Any) -> None:
        recoveries[event.action] = recoveries.get(event.action, 0) + 1

    bus.subscribe(_count_recovery, FaultRecovered)
    writer = JsonlTraceWriter(trace) if trace else None
    if writer is not None:
        bus.subscribe(writer)
    try:
        with ExitStack() as stack:
            profiler = None
            if metrics is not None:
                from repro.engine.pipeline import use_profiler
                from repro.obs.collectors import BusMetricsCollector
                from repro.obs.profiler import StageProfiler

                profiler = StageProfiler()
                BusMetricsCollector(registry=profiler.registry, bus=bus)
                # Installed before construction so both interval loops (and
                # the inject_faults stage spliced below) capture it.
                stack.enter_context(use_profiler(profiler))
            sim = CloudSimulation(
                machine,
                vms,
                manager,
                bus=bus,
                substrate=substrate_from_spec(fidelity_spec),
            )
            controller = manager.controller
            assert controller is not None
            injector = FaultInjector(plan).install(controller)
        checker = InvariantChecker(
            total_ways=controller.total_ways,
            config=controller.config,
            bus=bus,
            patience=patience,
        )
        steps = int(round(duration_s / machine.interval_s))
        parked: Dict[str, VirtualMachine] = {}
        crashed: Optional[str] = None
        try:
            for k in range(steps):
                for restart in restarts:
                    if restart.detach_interval == k:
                        parked[restart.vm] = sim.detach_vm(restart.vm)
                    if restart.attach_interval == k and restart.vm in parked:
                        sim.attach_vm(parked.pop(restart.vm))
                sim.step()
        except (PqosError, CounterReadError) as exc:
            crashed = f"{type(exc).__name__}: {exc}"
        checker.finalize()
        if profiler is not None and metrics is not None:
            from repro.obs.export import write_metrics

            write_metrics(profiler.registry, metrics)
    finally:
        if writer is not None:
            writer.close()

    gaps = checker.guarantee_gaps
    return ChaosReport(
        intervals=checker.intervals_checked,
        faulted_intervals=injector.faulted_intervals,
        faults_by_kind=injector.faults_by_kind(),
        recoveries_by_action=dict(sorted(recoveries.items())),
        invariant_violations=len(checker.violations),
        violation_details=tuple(
            f"[t={v.time_s:g}] {v.invariant}: {v.detail}"
            for v in checker.violations
        ),
        guarantee_retention=checker.guarantee_retention,
        recovery_latency_mean=(sum(gaps) / len(gaps)) if gaps else 0.0,
        recovery_latency_max=max(gaps) if gaps else 0,
        crashed=crashed,
        hardened=controller.config.hardened,
        plan_seed=plan.seed,
    )
