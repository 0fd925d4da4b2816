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

from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Type, Union

from repro.core.config import DCatConfig
from repro.core.hints import DeclaredSchedule
from repro.core.policies import canonical_name, normalize_policy
from repro.cpu.socket import SocketSpec
from repro.engine.context import (
    RunContext,
    _get_int,
    _get_number,
    _get_str,
    _require_mapping,
    read_document,
)
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
from repro.workloads.spec import SPEC_PROFILES, spec_workload

__all__ = [
    "ScenarioError",
    "build_manager",
    "build_workload",
    "checked_workload",
    "load_scenario",
    "manager_factory",
    "parse_fidelity",
    "read_socket",
    "run_scenario_file",
    "substrate_from_spec",
]


class ScenarioError(ValueError):
    """A scenario file is malformed; the message names the offending key."""


def _start_delay(spec: Dict[str, Any], path: str, error: Type[ValueError]) -> float:
    return _get_number(spec, path, "start_delay_s", error, default=0.0, minimum=0)


def _streaming(cls: Callable[..., Workload], default_mb: int) -> Callable[..., Workload]:
    """A builder for a working-set sweep (mlr, mload) of ``wss_mb`` MB."""

    def build(name, spec, path, error) -> Workload:
        wss_mb = _get_number(spec, path, "wss_mb", error, default=default_mb, minimum=0)
        return cls(
            int(wss_mb * MB),
            start_delay_s=_start_delay(spec, path, error),
            duration_s=_get_number(spec, path, "duration_s", error, positive=True),
            name=name,
        )

    return build


def _sized(cls: Callable[..., Workload], knob: str, default: int) -> Callable[..., Workload]:
    """A builder for a service (redis, postgres, ...) sized by one count."""

    def build(name, spec, path, error) -> Workload:
        size = _get_int(spec, path, knob, error, default=default, minimum=1)
        return cls(size, start_delay_s=_start_delay(spec, path, error), name=name)

    return build


def _workload_lookbusy(name, spec, path, error) -> Workload:
    return LookbusyWorkload(
        utilization=_get_number(
            spec, path, "utilization", error, default=1.0, positive=True, maximum=1
        ),
        name=name,
    )


def _workload_spec(name, spec, path, error) -> Workload:
    benchmark = _get_str(spec, path, "benchmark", error, required=True)
    if benchmark not in SPEC_PROFILES:
        raise error(
            f"{path}.benchmark: unknown SPEC benchmark {benchmark!r}; "
            f"use one of {sorted(SPEC_PROFILES)}"
        )
    return spec_workload(
        benchmark,
        instructions=_get_int(spec, path, "instructions", error, minimum=1),
        start_delay_s=_start_delay(spec, path, error),
    )


#: Each builder takes ``(name, spec, path, error)`` and reads its knobs
#: from ``spec`` with the field readers.
_WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "mlr": _streaming(MlrWorkload, 8),
    "mload": _streaming(MloadWorkload, 60),
    "lookbusy": _workload_lookbusy,
    "spec": _workload_spec,
    "redis": _sized(RedisWorkload, "records", 1_000_000),
    "postgres": _sized(PostgresWorkload, "tuples", 10_000_000),
    "elasticsearch": _sized(ElasticsearchWorkload, "documents", 100_000),
}

#: The one socket table; each document picks its own default.
_SOCKETS: Dict[str, Callable[[], SocketSpec]] = {
    "xeon_e5": SocketSpec.xeon_e5_2697v4,
    "xeon_d": SocketSpec.xeon_d,
}


def read_socket(
    obj: Dict[str, Any], path: str, default: str, error: Type[ValueError]
) -> Callable[[], SocketSpec]:
    """The factory of the socket ``obj["socket"]`` names (``default`` when
    absent); call it once per machine."""
    name = _get_str(obj, path, "socket", error, default=default)
    if name not in _SOCKETS:
        raise error(
            f"{path}.socket: unknown socket {name!r}; use one of {sorted(_SOCKETS)}"
        )
    return _SOCKETS[name]


def build_workload(
    kind: Any,
    name: str,
    spec: Dict[str, Any],
    path: str = "workload",
    error: Type[ValueError] = ScenarioError,
) -> Workload:
    """Build one workload from its scenario-file ``workload`` spec.

    Shared by plain scenarios, churn scenarios and the service's admits,
    so every input accepts exactly the same workload descriptions —
    including the optional ``declared_phases`` schedule consumed by the
    ``phase_hint`` allocation strategy.

    Args:
        path: The spec's field path (``vms[0].workload``), for messages.
        error: The exception type to raise (the document's own).

    Raises:
        error: For an unknown ``kind`` or a malformed knob, naming it.
    """
    if not isinstance(kind, str) or kind not in _WORKLOADS:
        raise error(
            f"{path}.type: unknown workload type {kind!r}; "
            f"set 'type' to one of {sorted(_WORKLOADS)}"
        )
    workload = _WORKLOADS[kind](name, spec, path, error)
    if "declared_phases" in spec:
        workload.declared_schedule = DeclaredSchedule.from_spec(
            spec["declared_phases"], f"{path}.declared_phases", error
        )
    return workload


def checked_workload(
    entry: Dict[str, Any], path: str, name: str, error: Type[ValueError]
) -> Dict[str, Any]:
    """A copy of ``entry["workload"]``, checked by building it once."""
    where = f"{path}.workload" if path else "workload"
    spec = dict(_require_mapping(entry.get("workload"), where, error))
    build_workload(spec.get("type"), name, spec, where, error)
    return spec


def manager_factory(
    spec: Dict[str, Any],
    policy: Optional[str] = None,
    error: Type[ValueError] = ScenarioError,
) -> Callable[[], CacheManager]:
    """Check a scenario's ``manager`` spec once; returns a builder of its
    managers.

    The spec and the allocation policy are resolved here, once: every
    manager the builder returns shares one :class:`DCatConfig` (the
    controller only reads it), so a fleet of hosts resolves its policy
    once, not once per host.

    Args:
        policy: Optional allocation-policy override (``--policy`` or a
            scenario's top-level ``policy``); wins over the manager
            config's own ``policy`` field.  Ignored by the shared/static
            managers, which have no allocation objective.
        error: The exception type to raise (the document's own).

    Raises:
        error: For an unknown manager type, policy, or config.
    """
    kind = spec.get("type", "dcat")
    if kind == "shared":
        return SharedCacheManager
    if kind == "static":
        return StaticCatManager
    if kind != "dcat":
        raise error(
            f"manager.type: unknown manager type {kind!r}; use shared/static/dcat"
        )
    config_spec = dict(
        _require_mapping(spec.get("config", {}), "manager.config", error)
    )
    if policy is not None:
        config_spec["policy"] = policy
    if "policy" in config_spec:
        config_spec["policy"] = normalize_policy(
            canonical_name(config_spec["policy"], "manager.config.policy", error)
        )
    try:
        config = DCatConfig(**config_spec)
    except (TypeError, ValueError) as exc:
        raise error(f"manager.config: bad dcat config: {exc}") from None
    return partial(DCatManager, config=config)


def build_manager(
    spec: Dict[str, Any],
    policy: Optional[str] = None,
    error: Type[ValueError] = ScenarioError,
) -> CacheManager:
    """The one cache manager a scenario's ``manager`` spec describes (see
    :func:`manager_factory`).

    Raises:
        error: For an unknown manager type, policy, or config.
    """
    return manager_factory(spec, policy, error)()


def parse_fidelity(
    data: Dict[str, Any],
    override: Optional[str] = None,
    error: Type[ValueError] = ScenarioError,
) -> Dict[str, Any]:
    """Normalize a scenario's fidelity into ``{"mode": ..., **options}``.

    Accepts a plain string (``"fidelity": "mixed"``) or an object with a
    ``mode`` plus substrate options (``{"mode": "mixed", "sample_rate":
    0.5, "tolerance": 0.15}``).  A missing ``fidelity`` means analytical.
    The retired ``"exact": true`` flag is an error naming its replacement.
    Every problem is reported with its field path.  ``override`` (an
    already-validated ``--fidelity`` mode) wins over the document's
    field, which is still validated.

    Raises:
        error: Naming the offending field.
    """
    if "exact" in data:
        raise error(
            'exact: the legacy flag is retired; use "fidelity": "exact" instead'
        )
    if "fidelity" not in data:
        return {"mode": override or "analytical"}
    raw = data["fidelity"]
    if isinstance(raw, str):
        spec: Dict[str, Any] = {"mode": raw}
    elif isinstance(raw, dict):
        spec = dict(raw)
        if "mode" not in spec:
            raise error(
                f"fidelity.mode: missing required field; use one of {list(FIDELITIES)}"
            )
    else:
        raise error(
            f"fidelity: expected a string or an object, got {type(raw).__name__}"
        )
    mode = spec["mode"]
    if mode not in FIDELITIES:
        raise error(
            f"fidelity.mode: unknown fidelity {mode!r}; use one of {list(FIDELITIES)}"
        )
    try:
        # Validate option names and values eagerly, with field context.
        build_substrate(mode, **{k: v for k, v in spec.items() if k != "mode"})
    except (TypeError, ValueError) as exc:
        raise error(f"fidelity: {exc}") from None
    return {"mode": override} if override is not None else spec


def substrate_from_spec(spec: Dict[str, Any]) -> CacheSubstrate:
    """Build a fresh substrate from a normalized fidelity spec."""
    return build_substrate(
        spec["mode"], **{k: v for k, v in spec.items() if k != "mode"}
    )


def load_scenario(
    source: Union[str, Path, Dict[str, Any]],
    ctx: RunContext = RunContext(),
):
    """Parse a scenario (dict, JSON string, or file path) into build parts.

    Args:
        ctx: The run's choices; its ``policy`` wins over the scenario's
            manager config and its ``fidelity`` over the scenario's own.

    Returns:
        ``(machine, vms, manager, duration_s, fidelity_spec)`` — the last
        element is a normalized ``{"mode": ..., **options}`` dict (see
        :func:`parse_fidelity`).

    Raises:
        ScenarioError: On any malformed field, naming it.
    """
    error = ScenarioError
    data = read_document(source, "scenario", error)

    machine_spec = _require_mapping(data.get("machine", {}), "machine", error)
    machine = Machine(
        spec=read_socket(machine_spec, "machine", "xeon_e5", error)(),
        seed=_get_int(machine_spec, "machine", "seed", error, default=1234, minimum=0),
        interval_s=_get_number(
            machine_spec, "machine", "interval_s", error, default=1.0, positive=True
        ),
    )

    vm_specs = data.get("vms")
    if not isinstance(vm_specs, list) or not vm_specs:
        raise error("vms: a scenario needs a non-empty 'vms' list")
    vms: List[VirtualMachine] = []
    for i, raw in enumerate(vm_specs):
        where = f"vms[{i}]"
        vm_spec = _require_mapping(raw, where, error)
        workload_spec = _require_mapping(
            vm_spec.get("workload"), f"{where}.workload", error
        )
        kind = workload_spec.get("type")
        name = _get_str(vm_spec, where, "name", error, default=f"{kind}-{i}")
        vms.append(
            VirtualMachine(
                name=name,
                workload=build_workload(
                    kind, name, dict(workload_spec), f"{where}.workload", error
                ),
                baseline_ways=_get_int(
                    vm_spec, where, "baseline_ways", error, default=3, minimum=1
                ),
            )
        )
    names = [vm.name for vm in vms]
    if len(set(names)) != len(names):
        raise error(f"vms: duplicate VM names: {names}")
    pin_vms(vms, machine.spec)

    manager_spec = _require_mapping(data.get("manager", {}), "manager", error)
    manager = build_manager(manager_spec, policy=ctx.policy)
    duration = _get_number(
        data, "", "duration_s", error, default=30.0, positive=True
    )
    fidelity = parse_fidelity(data, override=ctx.fidelity)
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
    ctx = RunContext.parse(fidelity=fidelity, policy=policy, error=ScenarioError)
    machine, vms, manager, duration, spec = load_scenario(source, ctx)
    sim = CloudSimulation(
        machine, vms, manager, substrate=substrate_from_spec(spec)
    )
    return sim.run(duration)
