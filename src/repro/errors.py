"""Cross-layer typed exceptions.

Kept dependency-free and at the package root so every layer — the
controller, the platform simulation, the cloud fleet, and the HTTP
service — can raise and catch the same types without import cycles.
"""

from __future__ import annotations

__all__ = ["UnknownTenantError", "FleetWorkerDied"]


class UnknownTenantError(ValueError, KeyError):
    """A tenant/workload id that no layer currently knows about.

    Raised by :meth:`~repro.platform.sim.CloudSimulation.detach_vm`,
    :meth:`~repro.core.controller.DCatController.deregister_workload`,
    :meth:`~repro.cloud.fleet.FleetMachine.depart` and the
    :class:`~repro.cloud.handle.FleetHandle` lifecycle ops when asked
    about an id that is not attached/registered/resident.  The HTTP
    service maps it to a 404 instead of a 500.

    Subclasses both :class:`ValueError` (the historical type these
    paths raised, so existing ``except ValueError`` callers keep
    working) and :class:`KeyError` (the shape dict-backed callers
    expect).
    """

    def __str__(self) -> str:
        # KeyError.__str__ reprs its single argument ("'msg'"); keep the
        # plain ValueError-style message instead.
        return str(self.args[0]) if self.args else ""


class FleetWorkerDied(RuntimeError):
    """A fleet executor worker process died while the parent talked to it.

    Raised by :class:`~repro.cloud.executor.ParallelCloudFleet` instead of
    the raw pipe error, naming the machines the dead worker simulated and
    its exit code (negative: killed by that signal; ``None``: not reaped).
    """

    def __init__(self, shard, exitcode) -> None:
        self.shard = tuple(shard)
        self.exitcode = exitcode
        super().__init__(
            f"fleet worker for machines {', '.join(self.shard)} died "
            f"(exit code {exitcode})"
        )
