"""Service config files: a fleet to serve, without a scripted lifecycle.

A service config reuses the churn scenario's fleet vocabulary —
``fleet`` / ``manager`` / ``placement`` / ``slo`` / ``faults`` /
``fidelity`` — but deliberately rejects ``tenants`` / ``poisson`` /
``duration_s``: the daemon owns the lifecycle (tenants arrive over
HTTP) and runs until stopped.  One extra section configures the clock::

    {
      "fleet": {"machines": 4, "socket": "xeon_d", "seed": 7},
      "manager": {"type": "dcat"},
      "placement": "least_loaded",
      "service": {"tick_interval_s": 0.05}
    }

``tick_interval_s`` is the *wall-clock* pause between fleet steps; each
step still advances ``fleet.interval_s`` of virtual time, so the daemon
can run the simulation faster or slower than real time.

:meth:`ServiceConfig.build` is deterministic — calling it twice yields
interchangeable fleets (same derived seeds, same substrates) — which is
what lets the load tester replay a recorded journal offline and demand
byte-identical snapshots.  Each dcat machine gets its **own** event bus
with an :class:`~repro.faults.invariants.InvariantChecker` attached
(controller events carry no machine identity, so a shared checker would
conflate hosts); every machine bus also forwards into the shared
service bus so traces and metrics see the whole fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.cloud.fleet import CloudFleet
from repro.cloud.scenario import (
    ChurnScenarioError,
    _get_int,
    _get_number,
    _require_mapping,
    build_fleet,
)
from repro.engine.context import RunContext, read_document
from repro.engine.events import EventBus
from repro.faults.invariants import InvariantChecker
from repro.harness.scenario_file import ScenarioError

__all__ = [
    "ServiceConfigError",
    "ServiceSetup",
    "ServiceConfig",
    "load_service_config",
]

#: Batch-scenario keys a service config must not carry.
_BATCH_ONLY_KEYS = ("tenants", "poisson", "duration_s")


class ServiceConfigError(ScenarioError):
    """A service config is malformed; the message names the field."""


@dataclass
class ServiceSetup:
    """One built service backend: the fleet and its invariant watchdogs."""

    fleet: CloudFleet

    @property
    def checkers(self) -> Dict[str, InvariantChecker]:
        """In-process checkers by machine (empty for a parallel fleet,
        whose checkers live in its workers)."""
        return {
            m.name: m.checker for m in self.fleet.machines if m.checker is not None
        }

    def violation_count(self) -> int:
        return self.fleet.checker_stats()[0]

    def intervals_checked(self) -> int:
        return self.fleet.checker_stats()[1]


@dataclass
class ServiceConfig:
    """A validated service config; :meth:`build` it as often as needed."""

    data: Dict[str, Any]
    tick_interval_s: float
    ctx: RunContext

    def build(self, bus: Optional[EventBus] = None) -> ServiceSetup:
        """Construct the fleet (and invariant checkers) this config describes.

        With ``ctx.fleet_jobs > 1`` the fleet is a
        :class:`~repro.cloud.executor.ParallelCloudFleet` whose invariant
        checkers run inside the workers.  The caller must
        :meth:`~repro.cloud.fleet.CloudFleet.close` the fleet.

        Args:
            bus: Optional shared service bus; tenant lifecycle events go
                there directly and every machine bus forwards into it.
        """
        try:
            fleet = build_fleet(self.data, [], self.ctx, bus=bus, checkers=True)
        except ChurnScenarioError as exc:
            raise ServiceConfigError(str(exc)) from None
        return ServiceSetup(fleet=fleet)


def load_service_config(
    source: Union[str, Path, Dict[str, Any]],
    fidelity: Optional[str] = None,
    policy: Optional[str] = None,
    fleet_jobs: Optional[int] = None,
) -> ServiceConfig:
    """Parse and validate a service config (dict, JSON string, or path).

    Args:
        fidelity: Optional fidelity override (``--fidelity``).
        policy: Optional allocation-policy override (``--policy``); wins
            over the config's top-level ``policy`` and the manager
            config's ``policy``, like in churn scenarios.
        fleet_jobs: Optional worker-process count override
            (``--fleet-jobs``); wins over ``service.fleet_jobs``.

    Raises:
        ServiceConfigError: On any malformed field or argument, naming
            the field.
    """
    data = read_document(source, "service config", ServiceConfigError)
    for key in _BATCH_ONLY_KEYS:
        if key in data:
            raise ServiceConfigError(
                f"{key}: not allowed in a service config — the daemon owns "
                f"the tenant lifecycle (use 'dcat-experiment churn' for "
                f"scripted streams)"
            )
    try:
        service_spec = _require_mapping(data.get("service", {}), "service")
        tick = _get_number(
            service_spec, "service", "tick_interval_s", default=0.05, positive=True
        )
        jobs = _get_int(
            service_spec, "service", "fleet_jobs", default=1, minimum=1
        )
    except ChurnScenarioError as exc:
        raise ServiceConfigError(str(exc)) from None
    try:
        ctx = RunContext.parse(
            fidelity, policy, jobs if fleet_jobs is None else fleet_jobs
        )
    except ValueError as exc:
        raise ServiceConfigError(str(exc)) from None
    config = ServiceConfig(data=dict(data), tick_interval_s=float(tick), ctx=ctx)
    # Validate the fleet vocabulary eagerly by building it once: config
    # errors surface at load time (CLI exit 2), not mid-serve.  The
    # validation build is always serial so loading never spawns (and
    # leaks) worker processes just to check the vocabulary.
    replace(config, ctx=replace(ctx, fleet_jobs=1)).build()
    return config
