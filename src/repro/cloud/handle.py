"""A serialized command interface around :class:`~repro.cloud.fleet.CloudFleet`.

The HTTP daemon (:mod:`repro.service`) mutates a fleet from an asyncio
event loop — concurrent requests, a background clock — while the
simulation itself is single-threaded and deterministic.  The
:class:`FleetHandle` is the bridge: every mutation (``admit``,
``detach``, ``tick``) is a synchronous critical section applied in one
total order, and every applied command is appended to a **journal**.
Replaying the journal against a freshly built, identically seeded fleet
reproduces the run byte-for-byte: :meth:`snapshot_json` of the live
handle and of the replayed handle compare equal.  That is the service's
determinism contract — async ingress decides only the *order* commands
enter the journal, never what any command does.

Reads (:meth:`tenant_stats`, :meth:`fleet_state`, :meth:`snapshot_json`,
:meth:`snapshot_digest`) are not journaled; they never mutate and so
cannot perturb a replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.cloud.admission import RejectReason
from repro.cloud.fleet import CloudFleet
from repro.cloud.lifecycle import TenantSpec
from repro.errors import UnknownTenantError

__all__ = [
    "CommandRecord",
    "AdmitOutcome",
    "FleetHandle",
    "replay_journal",
]

#: Ops a journal may contain; anything else is a corrupt journal.
_OPS = ("admit", "detach", "tick")

#: Encodes one piece of the canonical snapshot: sorted keys, no spaces.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class CommandRecord:
    """One applied mutation: its sequence number, op, and JSON-ready args."""

    seq: int
    op: str
    args: Dict[str, Any]

    def payload(self) -> Dict[str, Any]:
        return {"seq": self.seq, "op": self.op, "args": dict(self.args)}


@dataclass(frozen=True)
class AdmitOutcome:
    """What one admission command decided.

    ``cos_id`` is the class of service the host's controller assigned
    (``None`` for non-dcat managers or rejected tenants).
    """

    admitted: bool
    tenant_id: str
    machine: Optional[str]
    reason: str
    baseline_ways: int
    cos_id: Optional[int] = None

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "tenant_id": self.tenant_id,
            "admitted": self.admitted,
            "reason": self.reason,
            "baseline_ways": self.baseline_ways,
        }
        if self.machine is not None:
            body["machine"] = self.machine
        if self.cos_id is not None:
            body["cos_id"] = self.cos_id
        return body


class FleetHandle:
    """Owns a fleet; applies admit/detach/tick commands in one total order.

    The handle itself is not thread-safe — the daemon guarantees
    serialization by funnelling every mutation through one asyncio queue
    consumed by a single worker.  What the handle guarantees is that the
    *same command sequence* (the journal) always produces the same fleet,
    so the worker's applied order is the whole story.
    """

    def __init__(self, fleet: CloudFleet) -> None:
        self.fleet = fleet
        self.journal: List[CommandRecord] = []
        self.ticks = 0

    # -- mutations (journaled) --------------------------------------------

    def admit(
        self,
        name: str,
        baseline_ways: int,
        workload: Mapping[str, Any],
        lifetime_s: Optional[float] = None,
    ) -> AdmitOutcome:
        """Admit one tenant now (or reject it), journaling the command.

        Raises:
            ValueError: On an invalid spec (bad ways/lifetime/workload);
                invalid commands never reach the fleet or the journal.
        """
        spec = TenantSpec(
            name=name,
            arrival_s=self.fleet.now,
            baseline_ways=baseline_ways,
            workload=dict(workload),
            lifetime_s=lifetime_s,
        )
        spec.build_workload()  # validate eagerly: journal only sane commands
        if name in self.fleet.accountant.tenants:
            # The SLO ledger is forever (departed tenants keep theirs), so
            # ids are single-use.  Decided before the fleet is touched and
            # re-decided identically on replay from the replayed ledger.
            return AdmitOutcome(
                admitted=False,
                tenant_id=name,
                machine=None,
                reason=RejectReason.DUPLICATE_TENANT.value,
                baseline_ways=baseline_ways,
            )
        self._journal(
            "admit",
            {
                "name": name,
                "baseline_ways": baseline_ways,
                "workload": dict(workload),
                "lifetime_s": lifetime_s,
            },
        )
        record = self.fleet.admit_tenant(spec)
        if record.machine is None:
            return AdmitOutcome(
                admitted=False,
                tenant_id=name,
                machine=None,
                reason=record.reason,
                baseline_ways=baseline_ways,
            )
        return AdmitOutcome(
            admitted=True,
            tenant_id=name,
            machine=record.machine,
            reason=record.reason,
            baseline_ways=baseline_ways,
            cos_id=self.fleet.tenant_cos(name),
        )

    def detach(self, tenant_id: str) -> Dict[str, Any]:
        """Detach one resident tenant, journaling the command.

        Raises:
            UnknownTenantError: If the tenant is not resident (the command
                is not journaled — it would not mutate anything).
        """
        machine = self.fleet.machine_of(tenant_id)
        if machine is None:
            raise UnknownTenantError(
                f"tenant {tenant_id!r} is not resident in the fleet"
            )
        self._journal("detach", {"tenant_id": tenant_id})
        self.fleet.depart_tenant(tenant_id, reason="detached")
        return {
            "tenant_id": tenant_id,
            "machine": machine.name,
            "reason": "detached",
        }

    def tick(self) -> float:
        """Advance the whole fleet one interval; returns the new clock."""
        self._journal("tick", {})
        self.fleet.step()
        self.ticks += 1
        return self.fleet.now

    def _journal(self, op: str, args: Dict[str, Any]) -> None:
        self.journal.append(
            CommandRecord(seq=len(self.journal), op=op, args=args)
        )

    # -- replay ------------------------------------------------------------

    def apply(self, record: Union[CommandRecord, Mapping[str, Any]]) -> Any:
        """Apply one journaled command (replay path).

        Dispatches to the same :meth:`admit`/:meth:`detach`/:meth:`tick`
        the live daemon uses, so the command re-journals itself and the
        replayed handle's journal matches the source journal.
        """
        if isinstance(record, CommandRecord):
            op, args = record.op, record.args
        else:
            op, args = record["op"], record["args"]
        if op == "admit":
            return self.admit(
                name=args["name"],
                baseline_ways=args["baseline_ways"],
                workload=args["workload"],
                lifetime_s=args.get("lifetime_s"),
            )
        if op == "detach":
            return self.detach(args["tenant_id"])
        if op == "tick":
            return self.tick()
        raise ValueError(f"unknown journal op {op!r}; expected one of {_OPS}")

    # -- reads (not journaled) ---------------------------------------------

    def tenant_stats(self, tenant_id: str) -> Dict[str, Any]:
        """One tenant's SLO ledger as a JSON-ready dict.

        Raises:
            UnknownTenantError: If no ledger exists (never admitted).
        """
        stats = self.fleet.accountant.tenants.get(tenant_id)
        if stats is None:
            raise UnknownTenantError(f"tenant {tenant_id!r} has no SLO ledger")
        return {
            "tenant_id": stats.tenant_id,
            "machine": stats.machine,
            "admitted_s": stats.admitted_s,
            "departed_s": stats.departed_s,
            "resident": self.fleet.machine_of(tenant_id) is not None,
            "active_intervals": stats.active_intervals,
            "violation_intervals": stats.violation_intervals,
            "violation_fraction": stats.violation_fraction,
            "mean_normalized_ipc": stats.mean_normalized_ipc,
            "violation_spans": [list(span) for span in stats.violation_spans],
        }

    def fleet_state(self) -> Dict[str, Any]:
        """Machine occupancy and controller state populations."""
        populations = self.fleet.state_populations()
        machines = []
        for machine in self.fleet.machines:
            entry: Dict[str, Any] = {
                "name": machine.name,
                "residents": sorted(machine.residents),
                "reserved_ways": machine.reserved_ways,
                "free_ways": machine.free_ways,
                "free_thread_slots": machine.free_thread_slots,
            }
            states = populations.get(machine.name)
            if states is not None:
                entry["states"] = states
            machines.append(entry)
        return {
            "now": self.fleet.now,
            "ticks": self.ticks,
            "policy": self.fleet.policy.name,
            "machines": machines,
            "summary": self.fleet.accountant.fleet_summary(),
        }

    # -- snapshots ----------------------------------------------------------

    def _snapshot_pieces(self) -> Iterator[str]:
        """Everything determinism-relevant the run produced, canonically.

        Pure simulation state: per-machine per-tenant interval timelines,
        the placement log, SLO ledgers and the fleet clock.  Deliberately
        excludes wall-clock data (request latencies live only in loadgen
        reports), so online and replayed runs can compare equal.

        Yields the text of ``json.dumps(snapshot, sort_keys=True,
        separators=(",", ":"))`` in pieces (one per timeline, placement
        row and tenant ledger), so no reader holds the whole document as
        objects.  Keys come in sorted order: ``machines``, ``now``,
        ``placements``, ``tenants``, ``ticks``, and machine names sort as
        strings (``m10`` before ``m2``).
        """
        encode = _CANONICAL
        results = self.fleet.machine_results()
        yield '{"machines":{'
        names = sorted(machine.name for machine in self.fleet.machines)
        for m, name in enumerate(names):
            records = results[name].records
            yield ("," if m else "") + encode(name) + ":{"
            for t, tid in enumerate(sorted(records)):
                yield ("," if t else "") + encode(tid) + ":" + encode([
                    [
                        rec.time_s,
                        rec.phase_name,
                        rec.ways,
                        rec.llc_hit_rate,
                        rec.ipc,
                        rec.instructions,
                        rec.cycles,
                        rec.state.value if rec.state is not None else None,
                    ]
                    for rec in records[tid]
                ])
            yield "}"
        yield '},"now":' + encode(self.fleet.now) + ',"placements":['
        for i, p in enumerate(self.fleet.placements):
            yield ("," if i else "") + encode([p.time_s, p.tenant_id, p.machine, p.reason])
        yield '],"tenants":{'
        for t, tid in enumerate(sorted(self.fleet.accountant.tenants)):
            yield ("," if t else "") + encode(tid) + ":" + encode(self.tenant_stats(tid))
        yield '},"ticks":' + encode(self.ticks) + "}"

    def snapshot_json(self) -> bytes:
        """The canonical snapshot encoding byte-identity is judged on."""
        return "".join(self._snapshot_pieces()).encode("utf-8")

    def snapshot_digest(self) -> str:
        """sha256 of :meth:`snapshot_json`, hashed piece by piece."""
        digest = hashlib.sha256()
        for piece in self._snapshot_pieces():
            digest.update(piece.encode("utf-8"))
        return digest.hexdigest()


def replay_journal(
    build_fleet: Callable[[], CloudFleet],
    journal: Iterable[Union[CommandRecord, Mapping[str, Any]]],
) -> FleetHandle:
    """Rebuild a fleet and drive it through a recorded journal.

    ``build_fleet`` must construct the fleet exactly as the original was
    built (same machine seeds, manager, placement policy, substrate) —
    the service config's builder is deterministic, so calling it twice
    yields interchangeable fleets.  Returns the replayed handle; compare
    :meth:`FleetHandle.snapshot_json` against the original's for the
    byte-identity check.
    """
    handle = FleetHandle(build_fleet())
    for record in journal:
        handle.apply(record)
    return handle
