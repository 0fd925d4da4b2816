"""JSON scenario files: declarative multi-tenant experiments.

A downstream user should not need Python to ask "what would dCat do to *my*
mix?".  A scenario file describes the machine, the tenants and the
management regime; :func:`run_scenario_file` builds and runs it and returns
the standard :class:`~repro.platform.sim.SimulationResult`.

Example::

    {
      "machine": {"socket": "xeon_e5", "seed": 7},
      "manager": {"type": "dcat",
                  "config": {"llc_miss_rate_thr": 0.03,
                             "policy": "max_performance"}},
      "duration_s": 30,
      "vms": [
        {"name": "redis", "baseline_ways": 4, "workload": {"type": "redis"}},
        {"name": "noisy", "baseline_ways": 4,
         "workload": {"type": "mload", "wss_mb": 60}},
        {"name": "spin", "baseline_ways": 4, "workload": {"type": "lookbusy"}}
      ]
    }

Any workload spec may carry a ``declared_phases`` list — a declared
phase schedule (:class:`~repro.core.hints.DeclaredSchedule`) of
``{"start_s": ..., "preferred_ways": ..., "refs_per_instr": ...}``
objects with strictly increasing ``start_s``; ``refs_per_instr`` is the
optional signature the ``phase_hint`` allocation strategy verifies the
declaration against before trusting it (other strategies ignore hints
entirely)::

    "workload": {"type": "postgres",
                 "declared_phases": [
                   {"start_s": 0, "preferred_ways": 3},
                   {"start_s": 20, "preferred_ways": 6,
                    "refs_per_instr": 0.4}]}

Run from the CLI with ``dcat-experiment scenario path/to/file.json``.
The manager config's ``"policy"`` accepts any registered allocation
strategy name (see :mod:`repro.core.policies`); ``--policy`` on the CLI
overrides it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.config import DCatConfig
from repro.core.hints import DeclaredSchedule
from repro.core.policies import normalize_policy
from repro.cpu.socket import SocketSpec
from repro.mem.address import MB
from repro.platform.machine import Machine
from repro.platform.managers import (
    CacheManager,
    DCatManager,
    SharedCacheManager,
    StaticCatManager,
)
from repro.platform.sim import CloudSimulation, SimulationResult
from repro.platform.substrate import FIDELITIES, CacheSubstrate, build_substrate
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.base import Workload
from repro.workloads.database import PostgresWorkload
from repro.workloads.kvstore import RedisWorkload
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mload import MloadWorkload
from repro.workloads.mlr import MlrWorkload
from repro.workloads.search import ElasticsearchWorkload
from repro.workloads.spec import spec_workload

__all__ = [
    "ScenarioError",
    "build_manager",
    "build_workload",
    "load_scenario",
    "parse_fidelity",
    "run_scenario_file",
    "substrate_from_spec",
    "workload_kinds",
]


class ScenarioError(ValueError):
    """A scenario file is malformed; the message names the offending key."""


def _workload_mlr(name: str, spec: Dict[str, Any]) -> Workload:
    return MlrWorkload(
        int(spec.get("wss_mb", 8) * MB),
        start_delay_s=float(spec.get("start_delay_s", 0.0)),
        duration_s=spec.get("duration_s"),
        name=name,
    )


def _workload_mload(name: str, spec: Dict[str, Any]) -> Workload:
    return MloadWorkload(
        int(spec.get("wss_mb", 60) * MB),
        start_delay_s=float(spec.get("start_delay_s", 0.0)),
        duration_s=spec.get("duration_s"),
        name=name,
    )


def _workload_lookbusy(name: str, spec: Dict[str, Any]) -> Workload:
    return LookbusyWorkload(
        utilization=float(spec.get("utilization", 1.0)), name=name
    )


def _workload_spec(name: str, spec: Dict[str, Any]) -> Workload:
    try:
        benchmark = spec["benchmark"]
    except KeyError:
        raise ScenarioError("spec workloads need a 'benchmark' key") from None
    return spec_workload(
        benchmark,
        instructions=spec.get("instructions"),
        start_delay_s=float(spec.get("start_delay_s", 0.0)),
    )


def _workload_redis(name: str, spec: Dict[str, Any]) -> Workload:
    return RedisWorkload(
        records=int(spec.get("records", 1_000_000)),
        start_delay_s=float(spec.get("start_delay_s", 0.0)),
        name=name,
    )


def _workload_postgres(name: str, spec: Dict[str, Any]) -> Workload:
    return PostgresWorkload(
        tuples=int(spec.get("tuples", 10_000_000)),
        start_delay_s=float(spec.get("start_delay_s", 0.0)),
        name=name,
    )


def _workload_elasticsearch(name: str, spec: Dict[str, Any]) -> Workload:
    return ElasticsearchWorkload(
        documents=int(spec.get("documents", 100_000)),
        start_delay_s=float(spec.get("start_delay_s", 0.0)),
        name=name,
    )


_WORKLOADS: Dict[str, Callable[[str, Dict[str, Any]], Workload]] = {
    "mlr": _workload_mlr,
    "mload": _workload_mload,
    "lookbusy": _workload_lookbusy,
    "spec": _workload_spec,
    "redis": _workload_redis,
    "postgres": _workload_postgres,
    "elasticsearch": _workload_elasticsearch,
}

_SOCKETS = {
    "xeon_e5": SocketSpec.xeon_e5_2697v4,
    "xeon_d": SocketSpec.xeon_d,
}


def workload_kinds() -> List[str]:
    """The workload ``type`` values scenario and churn files accept."""
    return sorted(_WORKLOADS)


def build_workload(kind: str, name: str, spec: Dict[str, Any]) -> Workload:
    """Build one workload from its scenario-file ``workload`` spec.

    Shared by plain scenarios and the cloud layer's churn scenarios, so
    both file formats accept exactly the same workload descriptions —
    including the optional ``declared_phases`` schedule consumed by the
    ``phase_hint`` allocation strategy.

    Raises:
        ScenarioError: For an unknown ``kind`` or malformed ``spec``.
    """
    if kind not in _WORKLOADS:
        raise ScenarioError(
            f"unknown workload type {kind!r}; use one of {sorted(_WORKLOADS)}"
        )
    workload = _WORKLOADS[kind](name, spec)
    if "declared_phases" in spec:
        try:
            workload.declared_schedule = DeclaredSchedule.from_spec(
                spec["declared_phases"], ctx="workload.declared_phases"
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    return workload


def build_manager(
    spec: Dict[str, Any], policy: Optional[str] = None
) -> CacheManager:
    """Build the cache manager from a scenario's ``manager`` spec.

    Args:
        policy: Optional allocation-policy override (``--policy`` or a
            scenario's top-level ``policy``); wins over the manager
            config's own ``policy`` field.  Ignored by the shared/static
            managers, which have no allocation objective.

    Raises:
        ScenarioError: For an unknown manager type, policy, or config.
    """
    kind = spec.get("type", "dcat")
    if kind == "shared":
        return SharedCacheManager()
    if kind == "static":
        return StaticCatManager()
    if kind != "dcat":
        raise ScenarioError(
            f"unknown manager type {kind!r}; use shared/static/dcat"
        )
    config_spec = dict(spec.get("config", {}))
    if policy is not None:
        config_spec["policy"] = policy
    if "policy" in config_spec:
        try:
            config_spec["policy"] = normalize_policy(config_spec["policy"])
        except ValueError as exc:
            raise ScenarioError(f"policy: {exc}") from None
    try:
        config = DCatConfig(**config_spec)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad dcat config: {exc}") from None
    return DCatManager(config=config)


def parse_fidelity(data: Dict[str, Any], ctx: str = "fidelity") -> Dict[str, Any]:
    """Normalize a scenario's fidelity into ``{"mode": ..., **options}``.

    Accepts a plain string (``"fidelity": "mixed"``) or an object with a
    ``mode`` plus substrate options (``{"mode": "mixed", "sample_rate":
    0.5, "tolerance": 0.15}``).  A missing ``fidelity`` means analytical.
    The retired ``"exact": true`` flag is an error naming its replacement.
    Every problem is reported with its field path under ``ctx``.

    Raises:
        ScenarioError: Naming the offending field.
    """
    if "exact" in data:
        raise ScenarioError(
            'exact: the legacy flag is retired; use "fidelity": "exact" instead'
        )
    if "fidelity" not in data:
        return {"mode": "analytical"}
    raw = data["fidelity"]
    if isinstance(raw, str):
        spec: Dict[str, Any] = {"mode": raw}
    elif isinstance(raw, dict):
        spec = dict(raw)
        if "mode" not in spec:
            raise ScenarioError(
                f"{ctx}.mode: missing required field; use one of {list(FIDELITIES)}"
            )
    else:
        raise ScenarioError(
            f"{ctx}: expected a string or an object, got {type(raw).__name__}"
        )
    mode = spec["mode"]
    if mode not in FIDELITIES:
        raise ScenarioError(
            f"{ctx}.mode: unknown fidelity {mode!r}; use one of {list(FIDELITIES)}"
        )
    try:
        # Validate option names and values eagerly, with field context.
        build_substrate(mode, **{k: v for k, v in spec.items() if k != "mode"})
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{ctx}: {exc}") from None
    return spec


def substrate_from_spec(spec: Dict[str, Any]) -> CacheSubstrate:
    """Build a fresh substrate from a normalized fidelity spec."""
    return build_substrate(
        spec["mode"], **{k: v for k, v in spec.items() if k != "mode"}
    )


def load_scenario(
    source: Union[str, Path, Dict[str, Any]],
    policy: Optional[str] = None,
):
    """Parse a scenario (dict, JSON string, or file path) into build parts.

    Args:
        policy: Optional allocation-policy override (``--policy``); wins
            over the scenario's manager config.

    Returns:
        ``(machine, vms, manager, duration_s, fidelity_spec)`` — the last
        element is a normalized ``{"mode": ..., **options}`` dict (see
        :func:`parse_fidelity`).

    Raises:
        ScenarioError: On any malformed field, naming it.
    """
    if isinstance(source, dict):
        data = source
    else:
        path = Path(source)
        try:
            is_file = path.exists()
        except OSError:  # e.g. a JSON blob too long to be a filename
            is_file = False
        if is_file:
            data = json.loads(path.read_text())
        else:
            try:
                data = json.loads(str(source))
            except json.JSONDecodeError:
                raise ScenarioError(
                    f"scenario {source!r} is neither a file nor valid JSON"
                ) from None

    machine_spec = data.get("machine", {})
    socket_name = machine_spec.get("socket", "xeon_e5")
    if socket_name not in _SOCKETS:
        raise ScenarioError(
            f"unknown socket {socket_name!r}; use one of {sorted(_SOCKETS)}"
        )
    machine = Machine(
        spec=_SOCKETS[socket_name](),
        seed=int(machine_spec.get("seed", 1234)),
        interval_s=float(machine_spec.get("interval_s", 1.0)),
    )

    vm_specs = data.get("vms")
    if not vm_specs:
        raise ScenarioError("a scenario needs a non-empty 'vms' list")
    vms: List[VirtualMachine] = []
    for i, vm_spec in enumerate(vm_specs):
        workload_spec = vm_spec.get("workload")
        if not workload_spec or "type" not in workload_spec:
            raise ScenarioError(f"vms[{i}] needs a workload with a 'type'")
        kind = workload_spec["type"]
        if kind not in _WORKLOADS:
            raise ScenarioError(
                f"vms[{i}]: unknown workload type {kind!r}; "
                f"use one of {sorted(_WORKLOADS)}"
            )
        name = vm_spec.get("name", f"{kind}-{i}")
        try:
            workload = build_workload(kind, name, dict(workload_spec))
        except ScenarioError as exc:
            raise ScenarioError(f"vms[{i}].{exc}") from None
        vms.append(
            VirtualMachine(
                name=name,
                workload=workload,
                baseline_ways=int(vm_spec.get("baseline_ways", 3)),
            )
        )
    names = [vm.name for vm in vms]
    if len(set(names)) != len(names):
        raise ScenarioError(f"duplicate VM names: {names}")
    pin_vms(vms, machine.spec)

    manager = build_manager(data.get("manager", {}), policy=policy)
    duration = float(data.get("duration_s", 30.0))
    if duration <= 0:
        raise ScenarioError("duration_s must be positive")
    fidelity = parse_fidelity(data)
    return machine, vms, manager, duration, fidelity


def run_scenario_file(
    source: Union[str, Path, Dict[str, Any]],
    fidelity: Optional[str] = None,
    policy: Optional[str] = None,
) -> SimulationResult:
    """Build and run a scenario; returns the simulation result.

    Args:
        source: Scenario dict, JSON string, or file path.
        fidelity: Optional fidelity override (``--fidelity``); wins over
            the scenario file's own ``fidelity`` field.
        policy: Optional allocation-policy override (``--policy``); wins
            over the scenario's manager config.
    """
    machine, vms, manager, duration, spec = load_scenario(source, policy=policy)
    if fidelity is not None:
        spec = parse_fidelity({"fidelity": fidelity}, ctx="--fidelity")
    sim = CloudSimulation(
        machine, vms, manager, substrate=substrate_from_spec(spec)
    )
    return sim.run(duration)
