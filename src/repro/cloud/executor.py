"""The process-pool fleet executor: 1k machines without 1k× the wall clock.

:class:`ParallelCloudFleet` shards a churn scenario's machines across
persistent worker processes.  Each worker rebuilds its shard from the same
scenario document with the same crc32-derived per-machine seeds
(:func:`repro.engine.runner.derive_seed` via
:func:`~repro.cloud.scenario.build_fleet_machines`), so a machine's
simulation is bit-identical wherever it runs — the discipline
``run_experiments --jobs`` established, applied one layer down.

The parent keeps a **mirror** of every machine: a real
:class:`~repro.cloud.fleet.FleetMachine` with a shared-cache manager and
no fault injectors, built from a transformed copy of the scenario.  The
mirror tracks exactly the state global decisions read — thread slots,
COS capacity, reserved ways, resident specs, workload phase schedules —
so placement policies, admission control, and SLO accounting run in the
parent unchanged, while the worker's replica does the actual simulation.
Mirror workloads never advance and mirror sims never step.

A worker that dies mid-conversation surfaces as
:class:`~repro.errors.FleetWorkerDied` naming its machines and exit code;
:meth:`ParallelCloudFleet.close` still returns afterwards.

Determinism contract (the serial fleet is the spec):

* one host interval: the worker's ``step`` runs the same
  :meth:`~repro.cloud.fleet.FleetMachine.step_interval` the serial fleet
  runs, and the parent's ``step`` *is* :meth:`CloudFleet.step
  <repro.cloud.fleet.CloudFleet.step>` — only the ``_step_hosts`` hook
  differs, returning the workers' reports instead of stepping locally;
* one ``step`` barrier per fleet interval; per-machine interval events
  are re-emitted in fleet order, then the base class folds the
  observations into the :class:`~repro.cloud.slo.SloAccountant` in fleet
  order, so ``SloViolated`` lands after all interval events, as in serial;
* one "finished" rule: the tenants whose workload finished in the last
  interval (reported by the hosts, never read off the mirrors) drive both
  the next interval's departures and ``depart_tenant``'s default reason;
* every lifecycle op dispatches to the owning worker immediately, and the
  worker's control-plane events are re-emitted on the parent bus between
  the parent's own ``TenantPlaced``/``TenantAdmitted`` (or before
  ``TenantDeparted``) — the exact slots the serial fleet fills;
* events cross the pipe as pickled :class:`~repro.engine.events.Event`
  dataclasses — exact float and tuple round-trip, no re-parsing.

The result: JSONL traces, placements, SLO ledgers, and
:class:`~repro.cloud.fleet.FleetResult` are byte-identical for any
``--fleet-jobs`` value.

perfbench's traced run wraps ``step``, ``_ask`` and ``_broadcast``
through ``vars(ParallelCloudFleet)``, so all three stay in this class's
own dict (``step`` as an alias of the base method, not an override).
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cloud.fleet import CloudFleet, FleetMachine, ResidentTenant, checker_totals
from repro.cloud.lifecycle import TenantSpec
from repro.cloud.placement import build_policy
from repro.engine.context import RunContext
from repro.engine.events import NULL_BUS, Event, EventBus, set_default_bus
from repro.errors import FleetWorkerDied
from repro.platform.sim import SimulationResult

__all__ = ["ParallelCloudFleet"]


class _WorkerFailure:
    """An exception crossing the pipe; the parent re-raises it."""

    def __init__(self, message: str) -> None:
        self.message = message


#: What a dead worker's pipe raises on ``send``/``recv``.
_PIPE_ERRORS = (BrokenPipeError, EOFError, ConnectionResetError)


class _Worker(NamedTuple):
    """One worker process, the parent's end of its pipe, and its shard."""

    proc: Any
    conn: Any
    shard: Tuple[str, ...]

    def send(self, msg: Tuple) -> None:
        try:
            self.conn.send(msg)
        except _PIPE_ERRORS:
            raise self._died() from None

    def recv(self) -> Any:
        try:
            reply = self.conn.recv()
        except _PIPE_ERRORS:
            raise self._died() from None
        if isinstance(reply, _WorkerFailure):
            raise RuntimeError(f"fleet worker failed:\n{reply.message}")
        return reply

    def _died(self) -> FleetWorkerDied:
        self.proc.join(timeout=5)  # reap it, so the exit code is known
        return FleetWorkerDied(self.shard, self.proc.exitcode)


class _SliceRecorder:
    """Collects events between :meth:`take` calls (one op's slice)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def take(self) -> List[Event]:
        taken, self.events = self.events, []
        return taken


def _worker_main(
    conn,
    data: Dict[str, Any],
    shard: Sequence[str],
    ctx: RunContext,
    capture: bool,
    checkers: bool,
) -> None:
    """One worker: build the shard, then serve commands until ``stop``.

    The first act is dropping any fork-inherited default bus — a parent
    trace writer must see each event exactly once, re-emitted by the
    parent, never directly from a worker.  Every machine gets an explicit
    bus: a captured one when the parent traces, the null bus otherwise.
    """
    set_default_bus(None)
    from repro.cloud.scenario import build_fleet_machines

    recorder = _SliceRecorder() if capture else None

    def machine_bus(name: str) -> EventBus:
        mbus = EventBus()
        if recorder is not None:
            mbus.subscribe(recorder)
        return mbus

    factory = machine_bus if (capture or checkers) else (lambda name: NULL_BUS)
    machines, _, _ = build_fleet_machines(
        data, ctx, machine_bus=factory, only=shard, checkers=checkers
    )
    by_name = {m.name: m for m in machines}

    def take_events() -> List[Event]:
        return recorder.take() if recorder is not None else []

    # The construction slice: controller initialization emits events
    # (e.g. MasksProgrammed) while the shard is built; ship them so the
    # parent can re-emit them in fleet order before any lifecycle op.
    conn.send(take_events())

    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        try:
            cmd = msg[0]
            if cmd == "stop":
                conn.send(None)
                break
            elif cmd == "admit":
                _, tick, name, spec, now = msg
                machine = by_name[name]
                machine.catch_up(tick)
                machine.admit(spec, spec.build_workload(), now)
                conn.send((take_events(), machine.cos_of(spec.name)))
            elif cmd == "depart":
                _, tick, name, tenant_id = msg
                by_name[name].depart(tenant_id)
                conn.send(take_events())
            elif cmd == "step":
                _, tick = msg
                out = []
                for machine in machines:
                    if machine.should_step:
                        report = machine.step_interval(tick)
                        out.append((take_events(), report))
                conn.send(out)
            elif cmd == "result":
                _, tick = msg
                payload = {}
                for machine in machines:
                    machine.catch_up(tick)
                    faults = (
                        machine.injector.faults_by_kind()
                        if machine.injector is not None
                        else None
                    )
                    payload[machine.name] = (machine.sim.result, faults)
                conn.send(payload)
            elif cmd == "states":
                conn.send({m.name: m.state_counts() for m in machines})
            elif cmd == "checker_stats":
                conn.send(checker_totals(machines))
            else:
                conn.send(_WorkerFailure(f"unknown command {cmd!r}"))
        except Exception:
            conn.send(_WorkerFailure(traceback.format_exc()))
    conn.close()


class ParallelCloudFleet(CloudFleet):
    """A :class:`CloudFleet` whose machines simulate in worker processes.

    Drop-in for the serial fleet: same constructor vocabulary (via a
    scenario document), same ``run``/``step``/``admit_tenant``/
    ``depart_tenant``/result surface, byte-identical outputs.  Call
    :meth:`close` when done (``run_churn_scenario`` and the service
    daemon do) to release the workers.

    Args:
        data: The churn-scenario/service-config document (the fleet
            vocabulary sections; ``tenants``/``poisson`` are ignored here
            — pass the parsed stream via ``tenants``).
        tenants: The scripted lifecycle stream (empty for the service).
        ctx: The run's choices, shipped to the workers;
            ``ctx.fleet_jobs`` worker processes (capped at the machine
            count) run the machines.
        bus: Event bus for lifecycle events (defaults to the process
            default; when it is active, workers capture and ship their
            event streams for in-order re-emission).
        checkers: Build an :class:`~repro.faults.invariants.InvariantChecker`
            per dcat machine inside the workers (the service's watchdogs);
            query the fold with :meth:`checker_stats`.
    """

    def __init__(
        self,
        data: Dict[str, Any],
        tenants: Sequence[TenantSpec],
        ctx: RunContext,
        bus: Optional[EventBus] = None,
        checkers: bool = False,
    ) -> None:
        from repro.cloud.scenario import allocation_policy, build_fleet_machines

        # Validate the full document once, building zero machines.
        _, placement, tolerance = build_fleet_machines(data, ctx, only=())
        # A spawned worker starts without this process's ambient run
        # context, so ship the policy it resolves to here.
        ctx = replace(ctx, policy=allocation_policy(data, ctx))
        mirror_data = dict(data)
        mirror_data["manager"] = {"type": "shared"}
        mirror_data.pop("faults", None)
        mirror_data.pop("fidelity", None)
        mirror_data.pop("policy", None)
        mirrors, _, _ = build_fleet_machines(
            mirror_data, RunContext(), machine_bus=lambda name: NULL_BUS
        )
        super().__init__(
            machines=mirrors,
            policy=build_policy(placement),
            tenants=tenants,
            bus=bus,
            slo_tolerance=tolerance,
        )
        self._has_faults = "faults" in data
        self._capture = self.bus.active
        self._cos_cache: Dict[str, int] = {}
        self._results_cache: Optional[
            Tuple[int, Dict[str, SimulationResult], Dict[str, Dict[str, int]]]
        ] = None
        self._workers: List[_Worker] = []  # in fleet order
        self._worker_of: Dict[str, _Worker] = {}
        self._spawn(data, ctx, checkers)

    # -- worker plumbing ---------------------------------------------------

    def _spawn(self, data: Dict[str, Any], ctx: RunContext, checkers: bool) -> None:
        names = [m.name for m in self.machines]
        jobs = min(ctx.fleet_jobs, len(names))
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        mp = multiprocessing.get_context(method)
        base, extra = divmod(len(names), jobs)
        start = 0
        for w in range(jobs):
            size = base + (1 if w < extra else 0)
            shard = tuple(names[start : start + size])
            start += size
            if not shard:
                continue
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    data,
                    shard,
                    ctx,
                    self._capture,
                    checkers,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            worker = _Worker(proc, parent_conn, shard)
            self._workers.append(worker)
            for name in shard:
                self._worker_of[name] = worker
        # Shards are contiguous and built in fleet order, so draining the
        # construction slices worker by worker re-emits machine-build
        # events exactly as the serial fleet's constructor would.
        for worker in self._workers:
            self._emit_events(worker.recv())

    def _ask(self, machine_name: str, msg: Tuple) -> Any:
        worker = self._worker_of[machine_name]
        worker.send(msg)
        return worker.recv()

    def _broadcast(self, msg: Tuple) -> List[Any]:
        for worker in self._workers:
            worker.send(msg)
        return [worker.recv() for worker in self._workers]

    def _emit_events(self, events: Sequence[Event]) -> None:
        if events and self.bus.active:
            for event in events:
                self.bus.emit(event)

    # -- overridden fleet machinery ----------------------------------------

    def _admit_on(
        self, machine: FleetMachine, spec: TenantSpec, workload, now: float
    ) -> None:
        """Admit on the mirror, then on the worker's replica.

        Called between the base class's lifecycle-event emissions, so the
        worker's control-plane events re-emit in exactly the serial
        slots.  The mirror never catches up: its sim (with VMs attached)
        must never skip; the replica catches up on dispatch.
        """
        machine.admit(spec, workload, now)
        events, cos_id = self._ask(
            machine.name, ("admit", self._tick, machine.name, spec, now)
        )
        self._emit_events(events)
        if cos_id is not None:
            self._cos_cache[spec.name] = cos_id
        self._results_cache = None

    def _depart_from(self, machine: FleetMachine, tenant_id: str) -> ResidentTenant:
        """Depart from the mirror, then from the worker's replica."""
        resident = machine.depart(tenant_id)
        events = self._ask(
            machine.name, ("depart", self._tick, machine.name, tenant_id)
        )
        self._emit_events(events)
        self._cos_cache.pop(tenant_id, None)
        self._results_cache = None
        return resident

    # perfbench's traced run wraps methods found in each class's own
    # ``vars()``; ``step`` must be in this class dict, and an overriding
    # ``def step`` calling ``super().step()`` would nest two spans.
    step = CloudFleet.step

    def _step_hosts(self) -> List[Tuple[List, List[str]]]:
        """The workers' ``step_interval`` reports, their interval events
        re-emitted in fleet order (replies arrive shard by shard, and the
        shards are contiguous in fleet order)."""
        reports = []
        for reply in self._broadcast(("step", self._tick)):
            for events, report in reply:
                self._emit_events(events)
                reports.append(report)
        return reports

    def _fleet_quiescent(self) -> bool:
        # Mirrors carry no injectors: with a fault plan in play every
        # host steps every interval, so the clock never bulk-skips.
        return not self._has_faults and super()._fleet_quiescent()

    # -- overridden state hooks --------------------------------------------

    def _collect_results(
        self,
    ) -> Tuple[Dict[str, SimulationResult], Dict[str, Dict[str, int]]]:
        if (
            self._results_cache is not None
            and self._results_cache[0] == self._tick
        ):
            return self._results_cache[1], self._results_cache[2]
        merged: Dict[str, Tuple] = {}
        for reply in self._broadcast(("result", self._tick)):
            merged.update(reply)
        results: Dict[str, SimulationResult] = {}
        faults: Dict[str, Dict[str, int]] = {}
        for machine in self.machines:
            sim_result, machine_faults = merged[machine.name]
            results[machine.name] = sim_result
            if machine_faults is not None:
                faults[machine.name] = machine_faults
        self._results_cache = (self._tick, results, faults)
        return results, faults

    def machine_results(self) -> Dict[str, SimulationResult]:
        return self._collect_results()[0]

    def fault_counts(self) -> Dict[str, Dict[str, int]]:
        return self._collect_results()[1]

    def tenant_cos(self, tenant_id: str) -> Optional[int]:
        return self._cos_cache.get(tenant_id)

    def state_populations(self) -> Dict[str, Optional[Dict[str, int]]]:
        merged: Dict[str, Optional[Dict[str, int]]] = {}
        for reply in self._broadcast(("states",)):
            merged.update(reply)
        return merged

    def checker_stats(self) -> Tuple[int, int]:
        violations = 0
        intervals = 0
        for reply in self._broadcast(("checker_stats",)):
            violations += reply[0]
            intervals += reply[1]
        return (violations, intervals)

    def close(self) -> None:
        """Stop and reap the worker processes (idempotent)."""
        workers, self._workers = self._workers, []
        self._worker_of = {}
        for _, conn, _ in workers:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc, conn, _ in workers:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=10)
