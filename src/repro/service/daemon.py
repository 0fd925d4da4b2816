"""The asyncio controller daemon: tenant lifecycle over HTTP.

Process model
-------------

The daemon owns one :class:`~repro.cloud.handle.FleetHandle`.  Every
mutation — ``POST /v1/tenants``, ``DELETE /v1/tenants/{id}``, and the
background clock's ticks — travels through **one** :class:`asyncio.Queue`
consumed by a single worker task.  The worker applies commands strictly
serially, so concurrent HTTP ingress decides only the order commands
enter the journal; each command's effect is the deterministic simulation
code the batch paths run.  Reads (``/healthz``, ``/metrics``,
``/v1/fleet``, stats) bypass the queue: every mutation is a synchronous
critical section with no interior ``await``, so the event loop never
observes a half-applied command.

Endpoints
---------

==========================  =====================================================
``POST /v1/tenants``        Admit (201), reject (409 + structured reason)
``DELETE /v1/tenants/{id}`` Detach + reclaim (200), unknown tenant (404)
``GET /v1/tenants/{id}/stats``  Per-tenant SLO ledger (404 when unknown)
``GET /v1/fleet``           Machine occupancy + controller state populations
``GET /v1/trace``           The command journal + current snapshot digest
``GET /metrics``            Prometheus 0.0.4 text of the metrics registry
``GET /healthz``            Clock, tick count, invariant violation count
==========================  =====================================================

Shutdown (:meth:`ControllerDaemon.stop`, which ``dcat-experiment serve``
calls on SIGTERM/SIGINT) is graceful: the listener closes, queued
commands drain, invariant checkers finalize, the JSONL trace sink is
flushed and closed, and the metrics snapshot is written.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Optional, Tuple

from repro.cloud.handle import FleetHandle
from repro.cloud.lifecycle import TenantSpec
from repro.engine.events import EventBus, JsonlTraceWriter
from repro.errors import UnknownTenantError
from repro.obs.collectors import BusMetricsCollector
from repro.obs.export import render_prometheus
from repro.obs.registry import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.service.config import ServiceConfig, ServiceSetup
from repro.service.http import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    render_response,
)

__all__ = ["ControllerDaemon"]

#: The queue sentinel that tells the worker to exit after the backlog.
_STOP = "__stop__"


class ControllerDaemon:
    """One service instance: fleet, command queue, clock, HTTP listener.

    Args:
        config: A validated :class:`~repro.service.config.ServiceConfig`.
        host: Listen address (default loopback).
        port: Listen port; ``0`` picks an ephemeral one (read
            :attr:`port` after :meth:`start`).
        registry: Metrics registry to wire into (fresh one by default).
        trace_path: Optional JSONL event-trace path (closed on shutdown).
        metrics_path: Optional Prometheus/JSON snapshot written on
            shutdown.
    """

    def __init__(
        self,
        config: ServiceConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
    ) -> None:
        self.config = config
        self.host = host
        self.port = port
        self.tick_interval_s = config.tick_interval_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self.bus = EventBus()
        BusMetricsCollector(registry=self.registry, bus=self.bus)
        self._trace_writer: Optional[JsonlTraceWriter] = None
        if trace_path is not None:
            self._trace_writer = JsonlTraceWriter(trace_path)
            self.bus.subscribe(self._trace_writer)
        self._metrics_path = metrics_path
        self.setup: ServiceSetup = config.build(bus=self.bus)
        self.handle = FleetHandle(self.setup.fleet)
        self._http_requests = self.registry.counter(
            "dcat_http_requests_total",
            "HTTP requests served, by route, method and status.",
            labels=("route", "method", "status"),
        )
        self._http_seconds = self.registry.histogram(
            "dcat_http_request_seconds",
            "Wall-clock request handling latency, by route.",
            labels=("route",),
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._admissions = self.registry.counter(
            "dcat_admissions_total",
            "Admission decisions, by structured outcome.",
            labels=("outcome",),
        )
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._ticker_task: Optional[asyncio.Task] = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and launch the worker and clock tasks."""
        self._queue = asyncio.Queue()
        self._worker_task = asyncio.create_task(self._worker(), name="fleet-worker")
        self._ticker_task = asyncio.create_task(self._ticker(), name="fleet-clock")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: drain, finalize, flush every sink."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._ticker_task is not None:
            self._ticker_task.cancel()
            try:
                await self._ticker_task
            except asyncio.CancelledError:
                pass
        if self._worker_task is not None:
            # The sentinel queues *behind* any in-flight commands, so the
            # backlog drains before the worker exits.
            await self._submit(_STOP)
            await self._worker_task
        for checker in self.setup.checkers.values():
            checker.finalize()
        self.handle.fleet.close()
        if self._trace_writer is not None:
            self._trace_writer.close()
        if self._metrics_path is not None:
            from repro.obs.export import write_metrics

            write_metrics(self.registry, self._metrics_path)

    # -- the serialized command queue --------------------------------------

    async def _submit(self, op: str, **kwargs: Any) -> Any:
        """Enqueue one command and await its result (worker-applied)."""
        assert self._queue is not None
        future = asyncio.get_running_loop().create_future()
        await self._queue.put((op, kwargs, future))
        return await future

    async def _worker(self) -> None:
        """The single consumer: applies commands in arrival order."""
        assert self._queue is not None
        while True:
            op, kwargs, future = await self._queue.get()
            if op == _STOP:
                future.set_result(None)
                return
            try:
                if op == "admit":
                    result: Any = self.handle.admit(**kwargs)
                elif op == "detach":
                    result = self.handle.detach(**kwargs)
                elif op == "tick":
                    result = self.handle.tick()
                else:  # pragma: no cover - internal misuse
                    raise ValueError(f"unknown command {op!r}")
            except Exception as exc:
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)

    async def _ticker(self) -> None:
        """Advance the fleet clock through the same queue as requests."""
        while True:
            await asyncio.sleep(self.tick_interval_s)
            await self._submit("tick")

    # -- HTTP --------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = perf_counter()
        route = "unknown"
        status = 500
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                route, status, response = await self._dispatch(request)
                method = request.method
            except HttpError as exc:
                status = exc.status
                method = "?"
                response = json_response(status, {"error": str(exc)})
            except Exception as exc:  # unexpected: answer 500, keep serving
                status = 500
                method = "?"
                response = json_response(
                    status, {"error": f"{type(exc).__name__}: {exc}"}
                )
            writer.write(response)
            await writer.drain()
            self._http_requests.labels(
                route=route, method=method, status=str(status)
            ).inc()
            self._http_seconds.labels(route=route).observe(
                perf_counter() - started
            )
        except (ConnectionError, OSError):  # pragma: no cover - client bailed
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: HttpRequest) -> Tuple[str, int, bytes]:
        """Route one request; returns ``(route_label, status, response)``."""
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return "/healthz", 405, json_response(405, {"error": "GET only"})
            body = {
                "status": "ok",
                "now": self.handle.fleet.now,
                "ticks": self.handle.ticks,
                "invariant_violations": self.setup.violation_count(),
                "intervals_checked": self.setup.intervals_checked(),
            }
            return "/healthz", 200, json_response(200, body)
        if path == "/metrics":
            if method != "GET":
                return "/metrics", 405, json_response(405, {"error": "GET only"})
            text = render_prometheus(self.registry).encode("utf-8")
            return (
                "/metrics",
                200,
                render_response(200, text, "text/plain; version=0.0.4"),
            )
        if path == "/v1/fleet":
            if method != "GET":
                return "/v1/fleet", 405, json_response(405, {"error": "GET only"})
            return "/v1/fleet", 200, json_response(200, self.handle.fleet_state())
        if path == "/v1/trace":
            if method != "GET":
                return "/v1/trace", 405, json_response(405, {"error": "GET only"})
            body = {
                "journal": self.handle.journal_payload(),
                "snapshot_sha256": self.handle.snapshot_digest(),
            }
            return "/v1/trace", 200, json_response(200, body)
        if path == "/v1/tenants":
            if method != "POST":
                return "/v1/tenants", 405, json_response(405, {"error": "POST only"})
            return await self._admit(request)
        if path.startswith("/v1/tenants/"):
            rest = path[len("/v1/tenants/"):]
            if rest.endswith("/stats") and method == "GET":
                return self._stats(rest[: -len("/stats")].rstrip("/"))
            if "/" not in rest and method == "DELETE":
                return await self._detach(rest)
            return (
                "/v1/tenants/{id}",
                405,
                json_response(405, {"error": f"unsupported {method} {path}"}),
            )
        return path, 404, json_response(404, {"error": f"no route {path}"})

    async def _admit(self, request: HttpRequest) -> Tuple[str, int, bytes]:
        route = "/v1/tenants"
        try:
            spec = TenantSpec.from_mapping(request.json(), "", ValueError)
            outcome = await self._submit(
                "admit",
                name=spec.name,
                baseline_ways=spec.baseline_ways,
                workload=spec.workload,
                lifetime_s=spec.lifetime_s,
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        self._admissions.labels(outcome=outcome.reason).inc()
        status = 201 if outcome.admitted else 409
        return route, status, json_response(status, outcome.payload())

    async def _detach(self, tenant_id: str) -> Tuple[str, int, bytes]:
        route = "/v1/tenants/{id}"
        try:
            result = await self._submit("detach", tenant_id=tenant_id)
        except UnknownTenantError as exc:
            return route, 404, json_response(404, {"error": str(exc)})
        return route, 200, json_response(200, result)

    def _stats(self, tenant_id: str) -> Tuple[str, int, bytes]:
        route = "/v1/tenants/{id}/stats"
        try:
            stats = self.handle.tenant_stats(tenant_id)
        except UnknownTenantError as exc:
            return route, 404, json_response(404, {"error": str(exc)})
        return route, 200, json_response(200, stats)
