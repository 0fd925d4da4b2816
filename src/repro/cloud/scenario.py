"""Declarative churn scenarios: a fleet plus a tenant lifecycle stream.

The cloud-layer counterpart of :mod:`repro.harness.scenario_file`: one JSON
document describes the fleet (how many machines, which socket, seeds), the
management regime, the placement policy, and the tenant stream — scripted
entries, a Poisson stream, or both.  Workload descriptions use exactly the
same ``{"type": ...}`` vocabulary as plain scenario files.

Example::

    {
      "fleet": {"machines": 2, "socket": "xeon_d", "seed": 7},
      "manager": {"type": "dcat"},
      "placement": "sensitivity",
      "duration_s": 30,
      "tenants": [
        {"name": "db", "arrival_s": 0, "baseline_ways": 4,
         "lifetime_s": 20, "workload": {"type": "postgres"}}
      ],
      "poisson": {
        "rate_per_s": 0.25, "seed": 42,
        "mix": [
          {"weight": 2, "baseline_ways": 3, "mean_lifetime_s": 10,
           "workload": {"type": "mlr", "wss_mb": 8}},
          {"weight": 1, "baseline_ways": 3, "mean_lifetime_s": 10,
           "workload": {"type": "mload", "wss_mb": 60}}
        ]
      }
    }

An optional top-level ``"faults"`` section (a
:class:`~repro.faults.plan.FaultPlan` spec) turns on fault injection for
the whole fleet: each machine gets the same rules under a seed derived
from the plan seed and the machine name, so schedules differ per host but
the run stays deterministic.  Requires a ``dcat`` manager.

An optional top-level ``"policy"`` string picks the allocation strategy
for every machine's dcat manager (any name from
:func:`repro.core.policies.strategy_names`); the CLI's ``--policy``
overrides it.

Run from the CLI with ``dcat-experiment churn path/to/file.json``.  Every
validation error names the offending field with its entry context (e.g.
``tenants[2].baseline_ways``) and exits with status 2, like plain scenario
errors.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.cloud.fleet import CloudFleet, FleetMachine, FleetResult
from repro.cloud.lifecycle import MixEntry, TenantSpec, poisson_tenants
from repro.cloud.placement import build_policy, policy_names
from repro.core.policies import canonical_name, policy_name
from repro.engine.context import (
    RunContext,
    _get_int,
    _get_number,
    _get_str,
    _require_mapping,
    read_document,
)
from repro.engine.events import EventBus
from repro.engine.runner import derive_seed
from repro.harness.scenario_file import (
    ScenarioError,
    checked_workload,
    manager_factory,
    parse_fidelity,
    read_socket,
    substrate_from_spec,
)
from repro.platform.machine import Machine
from repro.platform.managers import CacheManager
from repro.platform.sim import whole_intervals

__all__ = [
    "ChurnScenarioError",
    "allocation_policy",
    "build_fleet",
    "build_fleet_machines",
    "load_churn_scenario",
    "run_churn_scenario",
]

class ChurnScenarioError(ScenarioError):
    """A churn-scenario file is malformed; the message carries the field
    path (e.g. ``tenants[2].workload.type``) so the entry is findable."""


def _parse_tenants(entries: Any) -> List[TenantSpec]:
    if not isinstance(entries, list):
        raise ChurnScenarioError("tenants: expected a list")
    return [
        TenantSpec.from_mapping(
            raw, f"tenants[{i}]", ChurnScenarioError, default_name=f"tenant-{i}"
        )
        for i, raw in enumerate(entries)
    ]


def _parse_poisson(spec: Any, duration_s: float) -> List[TenantSpec]:
    ctx, error = "poisson", ChurnScenarioError
    obj = _require_mapping(spec, ctx, error)
    rate = _get_number(obj, ctx, "rate_per_s", error, positive=True, required=True)
    seed = _get_int(obj, ctx, "seed", error, default=1234)
    prefix = _get_str(obj, ctx, "name_prefix", error, default="tenant")
    raw_mix = obj.get("mix")
    if not isinstance(raw_mix, list) or not raw_mix:
        raise error(f"{ctx}.mix: expected a non-empty list")
    mix: List[MixEntry] = []
    for i, raw in enumerate(raw_mix):
        entry_ctx = f"{ctx}.mix[{i}]"
        entry = _require_mapping(raw, entry_ctx, error)
        mix.append(
            MixEntry(
                weight=_get_number(
                    entry, entry_ctx, "weight", error, default=1.0, positive=True
                ),
                baseline_ways=_get_int(
                    entry, entry_ctx, "baseline_ways", error, default=3, minimum=1
                ),
                mean_lifetime_s=_get_number(
                    entry, entry_ctx, "mean_lifetime_s", error,
                    default=12.0, positive=True,
                ),
                workload=checked_workload(entry, entry_ctx, f"{prefix}-mix{i}", error),
            )
        )
    return poisson_tenants(
        rate_per_s=rate,
        duration_s=duration_s,
        mix=mix,
        seed=seed,
        name_prefix=prefix,
    )


def _scenario_managers(
    data: Dict[str, Any], ctx: RunContext, error: Type[ValueError]
) -> Callable[[], CacheManager]:
    """The builder of every machine's manager (see :func:`allocation_policy`
    for how the policy is chosen)."""
    policy = ctx.policy
    if policy is None and "policy" in data:
        policy = canonical_name(data["policy"], "policy", error)
    manager_spec = _require_mapping(
        data.get("manager", {"type": "dcat"}), "manager", error
    )
    return manager_factory(manager_spec, policy=policy, error=error)


def _policy_of(manager: CacheManager) -> Optional[str]:
    config = getattr(manager, "config", None)
    return None if config is None else policy_name(config.policy)


def allocation_policy(
    data: Dict[str, Any],
    ctx: RunContext,
    error: Type[ValueError] = ChurnScenarioError,
) -> Optional[str]:
    """The allocation strategy every dcat machine of ``data`` runs.

    Precedence, highest first: ``ctx.policy`` (``--policy``), the
    document's top-level ``policy``, the manager config's ``policy``,
    the ambient run context's (``run --policy``), ``max_fairness``.
    ``None`` for shared/static managers, which have no objective.

    Raises:
        error: For a malformed ``policy`` or ``manager``.
    """
    return _policy_of(_scenario_managers(data, ctx, error)())


def build_fleet_machines(
    data: Dict[str, Any],
    ctx: RunContext,
    machine_bus: Optional[Callable[[str], Any]] = None,
    only: Optional[Sequence[str]] = None,
    checkers: bool = False,
    error: Type[ValueError] = ChurnScenarioError,
) -> Tuple[List[FleetMachine], str, float]:
    """Build the machines a scenario's shared fleet vocabulary describes.

    Parses the ``fleet`` / ``manager`` / ``placement`` / ``slo`` /
    ``faults`` / ``fidelity`` / ``policy`` sections — the vocabulary churn
    scenarios and service configs share — and constructs one
    :class:`FleetMachine` per host with derived per-machine seeds.

    Args:
        data: The scenario document (already a mapping).
        ctx: The run's choices: ``fidelity`` wins over the file's
            ``fidelity`` (the ambient run context's never applies: every
            host gets an explicit substrate), and ``policy`` over the
            file's policy fields (see :func:`allocation_policy`).
        machine_bus: Optional factory giving each machine its own event
            bus; ``None`` leaves the process-default bus.
        only: When given, build only the named machines (a process-pool
            worker's shard); every section is still validated, so
            ``only=()`` validates the whole document while building
            nothing.
        checkers: Attach an
            :class:`~repro.faults.invariants.InvariantChecker` to each
            dcat machine's bus as ``FleetMachine.checker`` (the service's
            watchdogs).  Controller events carry no machine identity, so
            ``machine_bus`` must give each machine a bus of its own.
        error: The exception type to raise (the document's own).

    Returns:
        ``(machines, placement_name, slo_tolerance)``.
    """
    fleet_spec = _require_mapping(data.get("fleet", {}), "fleet", error)
    n_machines = _get_int(fleet_spec, "fleet", "machines", error, default=2, minimum=1)
    socket = read_socket(fleet_spec, "fleet", "xeon_d", error)
    seed = _get_int(fleet_spec, "fleet", "seed", error, default=1234)
    interval_s = _get_number(
        fleet_spec, "fleet", "interval_s", error, default=1.0, positive=True
    )
    vcpus_per_vm = _get_int(
        fleet_spec, "fleet", "vcpus_per_vm", error, default=2, minimum=1
    )

    placement = data.get("placement", "first_fit")
    if isinstance(placement, dict):
        placement = placement.get("policy", "first_fit")
    if not isinstance(placement, str) or placement not in policy_names():
        raise error(
            f"placement: unknown policy {placement!r}; use one of {policy_names()}"
        )

    slo_spec = _require_mapping(data.get("slo", {}), "slo", error)
    tolerance = _get_number(slo_spec, "slo", "tolerance", error, default=0.05)
    if not 0.0 <= tolerance < 1.0:
        raise error(f"slo.tolerance: must be within [0, 1), got {tolerance}")

    fidelity_spec = parse_fidelity(data, override=ctx.fidelity, error=error)

    # Validated and resolved once, up front (not per machine), so a
    # sharded build with an empty `only` still rejects a malformed document.
    new_manager = _scenario_managers(data, ctx, error)
    alloc_policy = _policy_of(new_manager())
    fleet_plan = None
    if "faults" in data:
        # Imported lazily: fault injection is opt-in per scenario.
        from repro.faults.plan import FaultPlan

        fleet_plan = FaultPlan.from_spec(data["faults"], error, section="faults")
        if alloc_policy is None:
            raise error(
                "faults: fault injection requires a dcat manager (other "
                "regimes have no control loop to fault)"
            )

    only_set = None if only is None else set(only)
    machines: List[FleetMachine] = []
    for i in range(n_machines):
        name = f"m{i}"
        if only_set is not None and name not in only_set:
            continue
        machine = Machine(
            spec=socket(),
            seed=derive_seed(seed, name),
            interval_s=interval_s,
        )
        manager = new_manager()
        machine_plan = None
        if fleet_plan is not None:
            machine_plan = replace(fleet_plan, seed=derive_seed(fleet_plan.seed, name))
        machine_fidelity = dict(fidelity_spec)
        if machine_fidelity["mode"] != "analytical":
            # Per-host substrate seed: streams differ per machine, runs
            # stay deterministic.
            base = int(machine_fidelity.get("seed", 2024))
            machine_fidelity["seed"] = derive_seed(base, name)
        fleet_machine = FleetMachine(
            name=name,
            machine=machine,
            manager=manager,
            bus=machine_bus(name) if machine_bus is not None else None,
            vcpus_per_vm=vcpus_per_vm,
            fault_plan=machine_plan,
            substrate=substrate_from_spec(machine_fidelity),
        )
        controller = getattr(manager, "controller", None)
        if checkers and controller is not None:
            from repro.faults.invariants import InvariantChecker

            fleet_machine.checker = InvariantChecker(
                total_ways=controller.total_ways,
                config=controller.config,
                bus=fleet_machine.sim.bus,
            )
        machines.append(fleet_machine)
    return machines, placement, tolerance


def build_fleet(
    data: Dict[str, Any],
    tenants: Sequence[TenantSpec],
    ctx: RunContext,
    bus: Optional[EventBus] = None,
    checkers: bool = False,
) -> CloudFleet:
    """The fleet ``data`` describes: serial, or sharded when ``ctx.fleet_jobs > 1``.

    A :class:`~repro.cloud.executor.ParallelCloudFleet` runs the machines
    in ``ctx.fleet_jobs`` worker processes with byte-identical results;
    call ``fleet.close()`` to release them (a no-op for the serial
    fleet).

    Args:
        data: The scenario or service-config document.
        tenants: The scripted lifecycle stream (empty for the service).
        ctx: The run's choices.
        bus: Event bus for lifecycle events (default: the process
            default bus).
        checkers: Watch every dcat machine with its own
            :class:`~repro.faults.invariants.InvariantChecker` (inside
            the workers for a parallel fleet); each machine then gets a
            bus of its own that forwards into ``bus``.  The tallies
            surface through :meth:`CloudFleet.checker_stats`.

    Raises:
        ChurnScenarioError: On any malformed fleet section.
    """
    if ctx.fleet_jobs > 1:
        # Imported lazily: the executor imports this module for its
        # worker-side shard builds.
        from repro.cloud.executor import ParallelCloudFleet

        return ParallelCloudFleet(data, tenants, ctx, bus=bus, checkers=checkers)

    def machine_bus(name: str) -> EventBus:
        mbus = EventBus()
        if bus is not None:
            mbus.subscribe(bus.emit)
        return mbus

    machines, placement, tolerance = build_fleet_machines(
        data, ctx, machine_bus=machine_bus if checkers else None, checkers=checkers
    )
    return CloudFleet(
        machines=machines,
        policy=build_policy(placement),
        tenants=tenants,
        bus=bus,
        slo_tolerance=tolerance,
    )


def load_churn_scenario(
    source: Union[str, Path, Dict[str, Any]],
    fidelity: Optional[str] = None,
    policy: Optional[str] = None,
    fleet_jobs: int = 1,
) -> Tuple[CloudFleet, float]:
    """Parse a churn scenario (dict, JSON string, or file path).

    A top-level ``fidelity`` field (string or ``{"mode": ..., **options}``
    object, see :func:`repro.harness.scenario_file.parse_fidelity`) selects
    the cache substrate for every machine; each host gets its own substrate
    instance under a seed derived from the substrate seed and the machine
    name, so exact tag-array streams differ per host but the run stays
    deterministic.  The ``fidelity`` argument (the CLI's ``--fidelity``)
    overrides the file's field, and the ``policy`` argument (the CLI's
    ``--policy``) likewise overrides the file's top-level ``policy`` and
    the manager config's ``policy``.

    ``fleet_jobs > 1`` builds a
    :class:`~repro.cloud.executor.ParallelCloudFleet` that shards the
    machines across that many worker processes; results and event streams
    are byte-identical to the serial fleet.  Call ``fleet.close()`` (or
    run via :func:`run_churn_scenario`) to release the workers.

    Returns:
        ``(fleet, duration_s)`` — a ready-to-run :class:`CloudFleet`.

    Raises:
        ChurnScenarioError: On any malformed field or argument, naming
            field and entry.
    """
    error = ChurnScenarioError
    ctx = RunContext.parse(fidelity, policy, fleet_jobs, error)
    data = read_document(source, "churn scenario", error)

    duration_s = _get_number(
        data, "scenario", "duration_s", error, default=30.0, positive=True
    )
    fleet_spec = _require_mapping(data.get("fleet", {}), "fleet", error)
    interval_s = _get_number(
        fleet_spec, "fleet", "interval_s", error, default=1.0, positive=True
    )
    if whole_intervals(duration_s, interval_s)[1]:
        raise error(
            f"scenario.duration_s: {duration_s} is not a whole number of "
            f"fleet.interval_s={interval_s} intervals (the fleet only "
            f"moves in whole intervals; it no longer rounds silently)"
        )

    tenants = _parse_tenants(data.get("tenants", []))
    if "poisson" in data:
        tenants = tenants + _parse_poisson(data["poisson"], duration_s)
    if not tenants:
        raise error(
            "scenario: needs a non-empty 'tenants' list and/or a 'poisson' stream"
        )
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise error(f"tenants: duplicate tenant names {dupes}")

    return build_fleet(data, tenants, ctx), duration_s


def run_churn_scenario(
    source: Union[str, Path, Dict[str, Any]],
    metrics: Optional[str] = None,
    trace: Optional[str] = None,
    fidelity: Optional[str] = None,
    policy: Optional[str] = None,
    fleet_jobs: int = 1,
) -> FleetResult:
    """Load and run a churn scenario end to end.

    Args:
        source: Scenario dict, JSON string, or file path.
        metrics: Optional path for a telemetry snapshot (Prometheus text
            plus a ``.json`` sibling): per-stage timings across every
            machine's loops, tenant lifecycle counters and per-tenant SLO
            ledgers.  The returned result is identical either way.
        trace: Optional path for a JSONL event trace of the fleet run
            (includes any ``FidelityDivergence`` stream from mixed mode).
        fidelity: Optional fidelity override (``--fidelity``); wins over
            the scenario file's own ``fidelity`` field.
        policy: Optional allocation-policy override (``--policy``); wins
            over the scenario file's ``policy`` fields.
        fleet_jobs: Worker processes for the fleet executor (``1`` runs
            serially); any value yields byte-identical results and traces.
    """
    if metrics is None and trace is None:
        fleet, duration_s = load_churn_scenario(
            source, fidelity=fidelity, policy=policy, fleet_jobs=fleet_jobs
        )
        try:
            return fleet.run(duration_s)
        finally:
            fleet.close()

    from contextlib import ExitStack

    from repro.engine.events import EventBus, JsonlTraceWriter, use_bus
    from repro.engine.pipeline import use_profiler
    from repro.obs.collectors import BusMetricsCollector, record_slo_stats
    from repro.obs.export import write_metrics
    from repro.obs.profiler import StageProfiler

    bus = EventBus()
    profiler: Optional[StageProfiler] = None
    if metrics is not None:
        profiler = StageProfiler()
        BusMetricsCollector(registry=profiler.registry, bus=bus)
    with ExitStack() as stack:
        if trace is not None:
            writer = stack.enter_context(JsonlTraceWriter(trace))
            bus.subscribe(writer)
        stack.enter_context(use_bus(bus))
        if profiler is not None:
            stack.enter_context(use_profiler(profiler))
        fleet, duration_s = load_churn_scenario(
            source, fidelity=fidelity, policy=policy, fleet_jobs=fleet_jobs
        )
        try:
            result = fleet.run(duration_s)
        finally:
            fleet.close()
    if profiler is not None and metrics is not None:
        record_slo_stats(profiler.registry, result.tenants)
        write_metrics(profiler.registry, metrics)
    return result
