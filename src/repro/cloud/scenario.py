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

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloud.fleet import CloudFleet, FleetMachine, FleetResult
from repro.cloud.lifecycle import MixEntry, TenantSpec, poisson_tenants
from repro.cloud.placement import build_policy, policy_names
from repro.engine.runner import derive_seed
from repro.harness.scenario_file import (
    ScenarioError,
    build_manager,
    build_workload,
    parse_fidelity,
    substrate_from_spec,
    workload_kinds,
)
from repro.platform.machine import Machine

__all__ = [
    "ChurnScenarioError",
    "build_fleet_machines",
    "load_churn_scenario",
    "run_churn_scenario",
]

_SOCKETS = {"xeon_e5", "xeon_d"}


class ChurnScenarioError(ScenarioError):
    """A churn-scenario file is malformed; the message carries the field
    path (e.g. ``tenants[2].workload.type``) so the entry is findable."""


def _require_mapping(value: Any, ctx: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ChurnScenarioError(f"{ctx}: expected an object, got {type(value).__name__}")
    return value


def _get_number(
    obj: Dict[str, Any],
    ctx: str,
    key: str,
    default: Optional[float] = None,
    positive: bool = False,
    required: bool = False,
) -> Optional[float]:
    if key not in obj:
        if required:
            raise ChurnScenarioError(f"{ctx}.{key}: missing required field")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChurnScenarioError(f"{ctx}.{key}: expected a number, got {value!r}")
    if positive and value <= 0:
        raise ChurnScenarioError(f"{ctx}.{key}: must be positive, got {value!r}")
    return float(value)


def _get_int(
    obj: Dict[str, Any],
    ctx: str,
    key: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
    required: bool = False,
) -> Optional[int]:
    if key not in obj:
        if required:
            raise ChurnScenarioError(f"{ctx}.{key}: missing required field")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ChurnScenarioError(f"{ctx}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ChurnScenarioError(f"{ctx}.{key}: must be >= {minimum}, got {value}")
    return value


def _checked_workload(obj: Dict[str, Any], ctx: str, name: str) -> Dict[str, Any]:
    """Validate a workload spec eagerly (by building it once)."""
    spec = _require_mapping(obj.get("workload"), f"{ctx}.workload")
    kind = spec.get("type")
    if kind not in workload_kinds():
        raise ChurnScenarioError(
            f"{ctx}.workload.type: unknown workload type {kind!r}; "
            f"use one of {workload_kinds()}"
        )
    try:
        build_workload(kind, name, dict(spec))
    except ScenarioError as exc:
        raise ChurnScenarioError(f"{ctx}.workload: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ChurnScenarioError(f"{ctx}.workload: {exc}") from None
    return dict(spec)


def _parse_tenants(entries: Any) -> List[TenantSpec]:
    if not isinstance(entries, list):
        raise ChurnScenarioError("tenants: expected a list")
    tenants: List[TenantSpec] = []
    for i, raw in enumerate(entries):
        ctx = f"tenants[{i}]"
        entry = _require_mapping(raw, ctx)
        name = entry.get("name", f"tenant-{i}")
        if not isinstance(name, str) or not name:
            raise ChurnScenarioError(f"{ctx}.name: expected a non-empty string")
        arrival = _get_number(entry, ctx, "arrival_s", default=0.0)
        if arrival < 0:
            raise ChurnScenarioError(f"{ctx}.arrival_s: must be >= 0, got {arrival}")
        lifetime = _get_number(entry, ctx, "lifetime_s", default=None, positive=True)
        baseline = _get_int(entry, ctx, "baseline_ways", default=3, minimum=1)
        workload = _checked_workload(entry, ctx, name)
        tenants.append(
            TenantSpec(
                name=name,
                arrival_s=arrival,
                baseline_ways=baseline,
                workload=workload,
                lifetime_s=lifetime,
            )
        )
    return tenants


def _parse_poisson(spec: Any, duration_s: float) -> List[TenantSpec]:
    ctx = "poisson"
    obj = _require_mapping(spec, ctx)
    rate = _get_number(obj, ctx, "rate_per_s", positive=True, required=True)
    seed = _get_int(obj, ctx, "seed", default=1234)
    prefix = obj.get("name_prefix", "tenant")
    if not isinstance(prefix, str) or not prefix:
        raise ChurnScenarioError(f"{ctx}.name_prefix: expected a non-empty string")
    raw_mix = obj.get("mix")
    if not isinstance(raw_mix, list) or not raw_mix:
        raise ChurnScenarioError(f"{ctx}.mix: expected a non-empty list")
    mix: List[MixEntry] = []
    for i, raw in enumerate(raw_mix):
        entry_ctx = f"{ctx}.mix[{i}]"
        entry = _require_mapping(raw, entry_ctx)
        weight = _get_number(entry, entry_ctx, "weight", default=1.0, positive=True)
        baseline = _get_int(entry, entry_ctx, "baseline_ways", default=3, minimum=1)
        lifetime = _get_number(
            entry, entry_ctx, "mean_lifetime_s", default=12.0, positive=True
        )
        workload = _checked_workload(entry, entry_ctx, f"{prefix}-mix{i}")
        mix.append(
            MixEntry(
                workload=workload,
                baseline_ways=baseline,
                weight=weight,
                mean_lifetime_s=lifetime,
            )
        )
    return poisson_tenants(
        rate_per_s=rate,
        duration_s=duration_s,
        mix=mix,
        seed=seed,
        name_prefix=prefix,
    )


def build_fleet_machines(
    data: Dict[str, Any],
    fidelity: Optional[str] = None,
    machine_bus: Optional[Callable[[str], Any]] = None,
    policy: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
) -> Tuple[List[FleetMachine], str, float]:
    """Build the machines a scenario's shared fleet vocabulary describes.

    Parses the ``fleet`` / ``manager`` / ``placement`` / ``slo`` /
    ``faults`` / ``fidelity`` / ``policy`` sections — the vocabulary churn
    scenarios and service configs share — and constructs one
    :class:`FleetMachine` per host with derived per-machine seeds.

    Args:
        data: The scenario document (already a mapping).
        fidelity: Optional CLI override for the file's ``fidelity``.
        machine_bus: Optional factory giving each machine its own event
            bus (the service uses per-machine buses so invariant
            checkers never conflate controllers); ``None`` leaves the
            process-default bus.
        policy: Optional CLI override for the allocation policy; wins
            over the file's top-level ``policy`` field, which in turn
            wins over the manager config's own ``policy``.
        only: When given, build only the named machines (a process-pool
            worker's shard); every section is still validated, so
            ``only=()`` validates the whole document while building
            nothing.

    Returns:
        ``(machines, placement_name, slo_tolerance)``.
    """
    fleet_spec = _require_mapping(data.get("fleet", {}), "fleet")
    n_machines = _get_int(fleet_spec, "fleet", "machines", default=2, minimum=1)
    socket = fleet_spec.get("socket", "xeon_d")
    if socket not in _SOCKETS:
        raise ChurnScenarioError(
            f"fleet.socket: unknown socket {socket!r}; use one of {sorted(_SOCKETS)}"
        )
    seed = _get_int(fleet_spec, "fleet", "seed", default=1234)
    interval_s = _get_number(fleet_spec, "fleet", "interval_s", default=1.0, positive=True)
    vcpus_per_vm = _get_int(fleet_spec, "fleet", "vcpus_per_vm", default=2, minimum=1)

    placement = data.get("placement", "first_fit")
    if isinstance(placement, dict):
        placement = placement.get("policy", "first_fit")
    if not isinstance(placement, str) or placement not in policy_names():
        raise ChurnScenarioError(
            f"placement: unknown policy {placement!r}; use one of {policy_names()}"
        )

    slo_spec = _require_mapping(data.get("slo", {}), "slo")
    tolerance = _get_number(slo_spec, "slo", "tolerance", default=0.05)
    if not 0.0 <= tolerance < 1.0:
        raise ChurnScenarioError(
            f"slo.tolerance: must be within [0, 1), got {tolerance}"
        )

    fleet_plan = None
    if "faults" in data:
        # Imported lazily: fault injection is opt-in per scenario.
        from repro.faults.plan import FaultPlan, FaultPlanError

        try:
            fleet_plan = FaultPlan.from_spec(
                _require_mapping(data["faults"], "faults")
            )
        except FaultPlanError as exc:
            raise ChurnScenarioError(f"faults: {exc}") from None

    try:
        fidelity_spec = parse_fidelity(data)
        if fidelity is not None:
            fidelity_spec = parse_fidelity({"fidelity": fidelity}, ctx="--fidelity")
    except ChurnScenarioError:
        raise
    except ScenarioError as exc:
        raise ChurnScenarioError(str(exc)) from None

    alloc_policy = policy
    if alloc_policy is None and "policy" in data:
        file_policy = data["policy"]
        if not isinstance(file_policy, str):
            raise ChurnScenarioError(
                f"policy: expected a string, got {type(file_policy).__name__}"
            )
        alloc_policy = file_policy
    if alloc_policy is not None:
        from repro.core.policies import canonical_name

        try:
            canonical_name(alloc_policy)
        except ValueError as exc:
            raise ChurnScenarioError(f"policy: {exc}") from None

    manager_spec = _require_mapping(
        data.get("manager", {"type": "dcat"}), "manager"
    )
    # Validate the manager spec up front (not per machine) so a sharded
    # build with an empty `only` still rejects a malformed document.
    try:
        build_manager(dict(manager_spec), policy=alloc_policy)
    except ScenarioError as exc:
        raise ChurnScenarioError(f"manager: {exc}") from None
    from repro.harness.scenario_file import _SOCKETS as SOCKET_FACTORIES

    only_set = None if only is None else set(only)
    machines: List[FleetMachine] = []
    for i in range(n_machines):
        name = f"m{i}"
        if only_set is not None and name not in only_set:
            continue
        machine = Machine(
            spec=SOCKET_FACTORIES[socket](),
            seed=derive_seed(seed, name),
            interval_s=interval_s,
        )
        try:
            manager = build_manager(dict(manager_spec), policy=alloc_policy)
        except ScenarioError as exc:
            raise ChurnScenarioError(f"manager: {exc}") from None
        machine_plan = None
        if fleet_plan is not None:
            from repro.faults.plan import FaultPlan

            machine_plan = FaultPlan(
                seed=derive_seed(fleet_plan.seed, name),
                rules=fleet_plan.rules,
            )
        machine_fidelity = dict(fidelity_spec)
        if machine_fidelity["mode"] != "analytical":
            # Per-host substrate seed: streams differ per machine, runs
            # stay deterministic.
            base = int(machine_fidelity.get("seed", 2024))
            machine_fidelity["seed"] = derive_seed(base, name)
        try:
            fleet_machine = FleetMachine(
                name=name,
                machine=machine,
                manager=manager,
                bus=machine_bus(name) if machine_bus is not None else None,
                vcpus_per_vm=vcpus_per_vm,
                fault_plan=machine_plan,
                substrate=substrate_from_spec(machine_fidelity),
            )
        except ValueError as exc:
            raise ChurnScenarioError(f"faults: {exc}") from None
        machines.append(fleet_machine)
    return machines, placement, tolerance


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
        ChurnScenarioError: On any malformed field, naming field and entry.
    """
    if isinstance(source, dict):
        data = source
    else:
        path = Path(source)
        try:
            is_file = path.exists()
        except OSError:
            is_file = False
        if is_file:
            data = json.loads(path.read_text())
        else:
            try:
                data = json.loads(str(source))
            except json.JSONDecodeError:
                raise ChurnScenarioError(
                    f"churn scenario {source!r} is neither a file nor valid JSON"
                ) from None
    data = _require_mapping(data, "scenario")

    if fleet_jobs < 1:
        raise ChurnScenarioError(f"fleet_jobs: must be >= 1, got {fleet_jobs}")

    duration_s = _get_number(data, "scenario", "duration_s", default=30.0, positive=True)
    fleet_spec = _require_mapping(data.get("fleet", {}), "fleet")
    interval_s = _get_number(
        fleet_spec, "fleet", "interval_s", default=1.0, positive=True
    )
    steps_exact = duration_s / interval_s
    if abs(steps_exact - round(steps_exact)) > 1e-9 * max(1.0, abs(steps_exact)):
        raise ChurnScenarioError(
            f"scenario.duration_s: {duration_s} is not a whole number of "
            f"fleet.interval_s={interval_s} intervals (the fleet only "
            f"moves in whole intervals; it no longer rounds silently)"
        )

    tenants = _parse_tenants(data.get("tenants", []))
    if "poisson" in data:
        tenants = tenants + _parse_poisson(data["poisson"], duration_s)
    if not tenants:
        raise ChurnScenarioError(
            "scenario: needs a non-empty 'tenants' list and/or a 'poisson' stream"
        )
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ChurnScenarioError(f"tenants: duplicate tenant names {dupes}")

    if fleet_jobs > 1:
        # Imported lazily: the executor imports this module for its
        # worker-side shard builds.
        from repro.cloud.executor import ParallelCloudFleet

        parallel = ParallelCloudFleet(
            data,
            jobs=fleet_jobs,
            tenants=tenants,
            fidelity=fidelity,
            policy=policy,
        )
        return parallel, duration_s

    machines, placement, tolerance = build_fleet_machines(
        data, fidelity=fidelity, policy=policy
    )

    fleet = CloudFleet(
        machines=machines,
        policy=build_policy(placement),
        tenants=tenants,
        slo_tolerance=tolerance,
    )
    return fleet, duration_s


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
