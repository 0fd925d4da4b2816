"""ControllerDaemon tests: HTTP lifecycle, shutdown, concurrent ingress.

Tests drive the real asyncio server on an ephemeral loopback port via
the stdlib client helper; no HTTP library is involved on either side.
The concurrency test is the serialization contract's teeth: N tasks
admit and detach simultaneously while the clock ticks, and the journal,
invariant checkers and COS pools must all come out coherent.
"""

import asyncio
import json

from repro.cloud.handle import replay_journal
from repro.service.config import load_service_config
from repro.service.daemon import ControllerDaemon
from repro.service.http import json_response, request_once

CONFIG = {
    "fleet": {"machines": 2, "socket": "xeon_d", "seed": 7, "interval_s": 1.0},
    "manager": {"type": "dcat"},
    "placement": "least_loaded",
    # Slow wall-clock ticks so tests control the clock:request ratio.
    "service": {"tick_interval_s": 0.02},
}

MLR = {"type": "mlr", "wss_mb": 8}


async def _with_daemon(body, config=CONFIG, **daemon_kwargs):
    config = load_service_config(config)
    daemon = ControllerDaemon(config, port=0, **daemon_kwargs)
    await daemon.start()
    try:
        await body(daemon)
    finally:
        await daemon.stop()
    return daemon


def run_with_daemon(body, **daemon_kwargs):
    return asyncio.run(_with_daemon(body, **daemon_kwargs))


async def call(daemon, method, path, payload=None):
    return await request_once("127.0.0.1", daemon.port, method, path, payload)


async def raw_get(daemon, path):
    """Every byte the daemon sends back for one GET, head included."""
    reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
    writer.write(f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


class TestHttpLifecycle:
    def test_admit_stats_detach_roundtrip(self):
        async def body(daemon):
            status, health = await call(daemon, "GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")

            status, admitted = await call(
                daemon, "POST", "/v1/tenants",
                {"name": "t1", "baseline_ways": 3, "workload": MLR},
            )
            assert status == 201
            assert admitted["admitted"] is True
            assert admitted["machine"] in ("m0", "m1")
            assert isinstance(admitted["cos_id"], int)

            status, dup = await call(
                daemon, "POST", "/v1/tenants",
                {"name": "t1", "baseline_ways": 3, "workload": MLR},
            )
            assert status == 409
            assert dup["reason"] == "duplicate-tenant"

            status, stats = await call(daemon, "GET", "/v1/tenants/t1/stats")
            assert status == 200
            assert stats["resident"] is True

            status, fleet = await call(daemon, "GET", "/v1/fleet")
            assert status == 200
            assert any("t1" in m["residents"] for m in fleet["machines"])

            status, gone = await call(daemon, "DELETE", "/v1/tenants/t1")
            assert status == 200
            assert gone["reason"] == "detached"

            status, err = await call(daemon, "DELETE", "/v1/tenants/t1")
            assert status == 404
            assert "t1" in err["error"]

            status, err = await call(daemon, "GET", "/v1/tenants/ghost/stats")
            assert status == 404

        run_with_daemon(body)

    def test_metrics_and_trace_endpoints(self):
        async def body(daemon):
            await call(
                daemon, "POST", "/v1/tenants",
                {"name": "t1", "baseline_ways": 3, "workload": MLR},
            )
            status, text = await call(daemon, "GET", "/metrics")
            assert status == 200
            assert "dcat_http_requests_total" in text
            assert 'dcat_admissions_total{outcome="placed"} 1' in text

            status, trace = await call(daemon, "GET", "/v1/trace")
            assert status == 200
            ops = [record["op"] for record in trace["journal"]]
            assert "admit" in ops
            assert len(trace["snapshot_sha256"]) == 64

        run_with_daemon(body)

    def test_trace_bytes_match_the_dict_rendering(self):
        # A clock that never fires, so the journal holds only what the
        # test applies.
        quiet = dict(CONFIG, service={"tick_interval_s": 3600.0})

        def rendered(handle):
            return json_response(200, {
                "journal": [record.payload() for record in handle.journal],
                "snapshot_sha256": handle.snapshot_digest(),
            })

        async def body(daemon):
            assert daemon.handle.journal == []
            assert await raw_get(daemon, "/v1/trace") == rendered(daemon.handle)
            for name in ("t1", "t2"):
                await call(
                    daemon, "POST", "/v1/tenants",
                    {"name": name, "baseline_ways": 3, "workload": MLR,
                     "lifetime_s": 5.0},
                )
            daemon.handle.tick()
            await call(daemon, "DELETE", "/v1/tenants/t1")
            assert [r.op for r in daemon.handle.journal] == [
                "admit", "admit", "tick", "detach"
            ]
            assert await raw_get(daemon, "/v1/trace") == rendered(daemon.handle)

        run_with_daemon(body, config=quiet)

    def test_request_validation_and_routing_errors(self):
        async def body(daemon):
            cases = [
                ("POST", "/v1/tenants", {"workload": MLR}, 400),  # no name
                ("POST", "/v1/tenants", {"name": "x", "workload": MLR,
                                         "baseline_ways": 0}, 400),
                ("POST", "/v1/tenants", {"name": "x", "workload": MLR,
                                         "lifetime_s": -1}, 400),
                ("POST", "/v1/tenants", {"name": "x",
                                         "workload": {"type": "quake"}}, 400),
                ("POST", "/v1/tenants", ["not", "an", "object"], 400),
                ("GET", "/v1/tenants", None, 405),
                ("POST", "/healthz", None, 405),
                ("PATCH", "/v1/tenants/t1", None, 405),
                ("GET", "/nope", None, 404),
            ]
            for method, path, payload, expected in cases:
                status, _ = await call(daemon, method, path, payload)
                assert status == expected, (method, path, status)
            # Validation failures never reach the fleet or the journal.
            assert all(r.op == "tick" for r in daemon.handle.journal)

        run_with_daemon(body)

    def test_malformed_workload_knobs_answer_400_naming_the_field(self):
        async def body(daemon):
            cases = [
                ({"type": "mlr", "wss_mb": [1]}, "workload.wss_mb"),
                ({"type": "redis", "records": None}, "workload.records"),
                ({"type": "lookbusy", "utilization": "hi"}, "workload.utilization"),
            ]
            for workload, field in cases:
                status, reply = await call(
                    daemon, "POST", "/v1/tenants",
                    {"name": "x", "workload": workload},
                )
                assert status == 400, (workload, status, reply)
                assert reply["error"].startswith(f"{field}: "), reply
            assert all(r.op == "tick" for r in daemon.handle.journal)

        run_with_daemon(body)

    def test_background_clock_advances_fleet(self):
        async def body(daemon):
            await asyncio.sleep(0.15)
            status, health = await call(daemon, "GET", "/healthz")
            assert status == 200
            assert health["ticks"] >= 3
            assert health["now"] == float(health["ticks"])  # interval_s=1.0

        run_with_daemon(body)


class TestGracefulShutdown:
    def test_shutdown_flushes_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "svc.prom"

        async def body(daemon):
            await call(
                daemon, "POST", "/v1/tenants",
                {"name": "t1", "baseline_ways": 3, "workload": MLR},
            )
            await asyncio.sleep(0.1)

        daemon = run_with_daemon(
            body, trace_path=str(trace), metrics_path=str(metrics)
        )
        events = [json.loads(line)["event"]
                  for line in trace.read_text().splitlines()]
        assert "TenantAdmitted" in events
        assert metrics.exists()
        sibling = metrics.with_suffix(".prom.json")
        payload = json.loads(sibling.read_text())
        assert payload["format"] == "dcat-metrics/v1"
        # Checkers finalized, zero violations on a clean run.
        assert daemon.setup.violation_count() == 0
        assert daemon.setup.intervals_checked() > 0

    def test_stop_is_idempotent(self):
        async def main():
            daemon = ControllerDaemon(load_service_config(CONFIG), port=0)
            await daemon.start()
            await daemon.stop()
            await daemon.stop()

        asyncio.run(main())

    def test_trace_writer_drops_events_after_close(self, tmp_path):
        # The sink contract: close() is terminal, late events are dropped
        # rather than crashing a handler that fires during teardown.
        from repro.engine.events import JsonlTraceWriter

        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(str(path))
        writer.mark(note="alive")
        writer.flush()
        writer.close()
        writer.mark(note="late")
        writer.close()  # idempotent
        lines = path.read_text().splitlines()
        assert len(lines) == 1


class TestConcurrentIngress:
    N = 24

    def test_concurrent_admits_and_detaches_stay_coherent(self):
        """Satellite: N simultaneous mutations through the command queue."""

        async def body(daemon):
            async def admit(i):
                return await call(
                    daemon, "POST", "/v1/tenants",
                    {"name": f"c{i}", "baseline_ways": 2, "workload": MLR},
                )

            results = await asyncio.gather(*(admit(i) for i in range(self.N)))
            statuses = [status for status, _ in results]
            assert set(statuses) <= {201, 409}
            admitted = [body["tenant_id"] for status, body in results
                        if status == 201]
            assert admitted, "some admissions must land"

            # COS-pool invariants while fully loaded: per machine, every
            # resident holds a distinct allocatable COS and reservations
            # fit the LLC.
            for machine in daemon.handle.fleet.machines:
                controller = machine.sim.manager.controller
                cos_ids = [rec.cos_id for rec in controller.records.values()]
                assert len(cos_ids) == len(set(cos_ids))
                assert 0 not in cos_ids  # COS0 stays unmanaged
                assert machine.reserved_ways <= machine.machine.num_ways

            await asyncio.sleep(0.1)  # let the clock interleave ticks

            detaches = await asyncio.gather(
                *(call(daemon, "DELETE", f"/v1/tenants/{tid}")
                  for tid in admitted)
            )
            assert all(status in (200, 404) for status, _ in detaches)

            status, fleet = await call(daemon, "GET", "/v1/fleet")
            assert status == 200
            assert all(not m["residents"] for m in fleet["machines"])
            assert all(m["reserved_ways"] == 0 for m in fleet["machines"])

        daemon = run_with_daemon(body)
        # The watchdogs saw the whole run: zero invariant violations.
        assert daemon.setup.violation_count() == 0
        assert daemon.setup.intervals_checked() > 0
        # And the serialized journal replays byte-identically offline.
        config = load_service_config(CONFIG)
        replayed = replay_journal(
            lambda: config.build().fleet, daemon.handle.journal
        )
        assert replayed.snapshot_json() == daemon.handle.snapshot_json()
