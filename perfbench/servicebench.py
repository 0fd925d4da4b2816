"""The ``service_mixed`` workload: a daemon process under HTTP load.

The daemon runs in its own process (``daemon.py``).  This process is the
only load generator.  It sends a seeded open-loop plan with at most
``nproc`` requests in flight, timing each request from its due time, then
runs a closed-loop saturation phase with the same connection cap.  Its
own lateness (due time to the moment it got round to the request, before
waiting for a connection slot) is reported as ``loadgen.lag_p99_ms``; a
run whose generator ran later than :data:`MAX_LAG_P99_MS` measured the
generator, not the daemon, and is marked invalid.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from metrics import percentile
from spans import (
    FLEET_SPANS,
    HANDLE_SPANS,
    OUT_DIR,
    RECONCILE_TOLERANCE,
    ReconcileError,
    layer_metrics,
    require_spans,
)
from workloads import Request, service_config, service_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The admit-p99 limit ``dcat-experiment loadtest`` uses.
ADMIT_P99_LIMIT_S = 0.25
MAX_LAG_P99_MS = 50.0
REQUEST_TIMEOUT_S = 10.0
CONNECTIONS = len(os.sched_getaffinity(0))

_ROUTES = {
    "admit": "/v1/tenants",
    "detach": "/v1/tenants/{id}",
    "stats": "/v1/tenants/{id}/stats",
    "fleet": "/v1/fleet",
}


class Daemon:
    """One daemon process; ``stop()`` always reaps it."""

    def __init__(self, config: Dict[str, Any], trace: Optional[Path] = None) -> None:
        cmd = [sys.executable, str(HERE / "daemon.py"), json.dumps(config)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = self.proc.stdout.readline()
            self.port = int(json.loads(line)["port"])
        except (ValueError, KeyError, TypeError):
            self.stop()
            raise RuntimeError(f"daemon did not start (stdout: {line!r})") from None
        self.boot_s = perf_counter() - started

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


@dataclass
class Load:
    """What the generator measured (wall-clock side only)."""

    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {k: [] for k in _ROUTES}
    )
    lag: List[float] = field(default_factory=list)
    admitted: int = 0
    admits: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class Client:
    """Bounded HTTP client: at most ``CONNECTIONS`` requests in flight."""

    def __init__(self, port: int, load: Load) -> None:
        from repro.cloud.admission import RejectReason

        self.port = port
        self.load = load
        self.sem = asyncio.Semaphore(CONNECTIONS)
        self.reasons = {r.value for r in RejectReason}

    async def send(self, method: str, path: str, payload: Any = None) -> Tuple[int, Any]:
        from repro.service.http import request_once

        self.load.attempted += 1
        async with self.sem:
            try:
                status, body = await asyncio.wait_for(
                    request_once("127.0.0.1", self.port, method, path, payload),
                    REQUEST_TIMEOUT_S,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                self.load.failed += 1
                self.load.problems.append(f"{method} {path}: {type(exc).__name__}")
                return 0, None
        if status >= 500:
            self.load.failed += 1
            self.load.problems.append(f"{method} {path}: HTTP {status}")
        return status, body

    async def admit(self, name: str, ways: int, workload: Any) -> bool:
        self.load.admits += 1
        status, body = await self.send(
            "POST", "/v1/tenants",
            {"name": name, "baseline_ways": ways, "workload": workload},
        )
        if status == 201:
            self.load.admitted += 1
            return True
        if status != 409 or (body or {}).get("reason") not in self.reasons:
            self.load.problems.append(f"admit {name}: HTTP {status} {body}")
        return False

    async def detach(self, name: str) -> None:
        status, body = await self.send("DELETE", f"/v1/tenants/{name}")
        if status not in (200, 404):
            self.load.problems.append(f"detach {name}: HTTP {status} {body}")

    async def stats(self, name: str) -> None:
        status, body = await self.send("GET", f"/v1/tenants/{name}/stats")
        if status == 200 and body.get("tenant_id") != name:
            self.load.problems.append(f"stats {name}: wrong tenant {body}")
        elif status not in (200, 404):
            self.load.problems.append(f"stats {name}: HTTP {status} {body}")

    async def fleet(self) -> Dict[str, Any]:
        status, body = await self.send("GET", "/v1/fleet")
        if status != 200:
            self.load.problems.append(f"fleet: HTTP {status} {body}")
            return {}
        return body

    async def get(self, path: str) -> Any:
        status, body = await self.send("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status} {body}")
        return body


async def open_loop(client: Client, plan: List[Request]) -> None:
    """Fire the plan on schedule; latency counts from each due time."""
    loop = asyncio.get_running_loop()
    latency, lag = client.load.latency, client.load.lag
    epoch = loop.time()

    async def timed(kind: str, due: float, call) -> Any:
        lag.append(loop.time() - due)
        result = await call
        latency[kind].append(loop.time() - due)
        return result

    async def admit_then_detach(req: Request, due: float) -> None:
        if await timed("admit", due, client.admit(req.tenant, req.ways, req.workload)):
            await asyncio.sleep(req.hold_s)
            await timed("detach", loop.time(), client.detach(req.tenant))

    tasks = []
    for req in plan:
        due = epoch + req.due_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if req.kind == "admit":
            coro = admit_then_detach(req, due)
        elif req.kind == "stats":
            coro = timed("stats", due, client.stats(req.tenant))
        else:
            coro = timed("fleet", due, client.fleet())
        tasks.append(asyncio.ensure_future(coro))
    await asyncio.gather(*tasks)


async def closed_loop(client: Client, seconds: float, prefix: str) -> Tuple[float, List[float]]:
    """``CONNECTIONS`` callers cycling admit -> stats -> detach; returns
    (median requests/s over one-second windows, admit latencies)."""
    loop = asyncio.get_running_loop()
    admits: List[float] = []
    done: List[float] = []
    end = loop.time() + seconds

    async def caller(c: int) -> None:
        n = 0
        while loop.time() < end:
            name = f"{prefix}-{c}-{n}"
            n += 1
            start = loop.time()
            ok = await client.admit(name, 2, {"type": "mlr", "wss_mb": 4})
            admits.append(loop.time() - start)
            done.append(loop.time())
            if ok:
                await client.stats(name)
                done.append(loop.time())
                await client.detach(name)
                done.append(loop.time())

    started = loop.time()
    await asyncio.gather(*(caller(c) for c in range(CONNECTIONS)))
    per_window = [0] * int(seconds)
    for t in done:
        if int(t - started) < len(per_window):
            per_window[int(t - started)] += 1
    if not per_window:
        return len(done) / seconds, admits
    return statistics.median(per_window), admits


async def _drive(port: int, plan: List[Request], sat_s: float, prefix: str,
                 want_metrics: bool) -> Dict[str, Any]:
    load = Load()
    client = Client(port, load)
    before = await client.get("/healthz")
    started = perf_counter()
    await open_loop(client, plan)
    open_wall = perf_counter() - started
    after = await client.get("/healthz")
    rps, sat_admits = await closed_loop(client, sat_s, prefix)
    out = {
        "load": load,
        "sim_speed": (after["now"] - before["now"]) / open_wall,
        "max_rps": rps,
        "sat_admit_p99": percentile(sat_admits, 99),
        "health": await client.get("/healthz"),
        "fleet": await client.get("/v1/fleet"),
        "trace": await client.get("/v1/trace"),
    }
    if want_metrics:
        out["metrics"] = await client.get("/metrics")
    return out


def _replay_matches(config: Dict[str, Any], trace: Dict[str, Any]) -> bool:
    from repro.cloud.handle import replay_journal
    from repro.service.config import load_service_config

    cfg = load_service_config(config)
    replayed = replay_journal(lambda: cfg.build().fleet, trace["journal"])
    try:
        return replayed.snapshot_digest() == trace["snapshot_sha256"]
    finally:
        replayed.fleet.close()


def _session(config, plan, sat_s, prefix, trace_path=None, metrics=False):
    daemon = Daemon(config, trace=trace_path)
    try:
        out = asyncio.run(_drive(daemon.port, plan, sat_s, prefix, metrics))
        out["peak_rss_mb"] = daemon.peak_rss_mb()
        out["boot_s"] = daemon.boot_s
    finally:
        code = daemon.stop()
    if code != 0:
        raise RuntimeError(f"daemon exited with code {code}")
    return out


def _problems(config: Dict[str, Any], out: Dict[str, Any]) -> List[str]:
    load: Load = out["load"]
    problems = list(load.problems)
    if out["health"].get("invariant_violations") != 0:
        problems.append(f"/healthz: {out['health']}")
    if not _replay_matches(config, out["trace"]):
        problems.append("journal replay diverged from the live snapshot")
    lag_p99_ms = percentile(load.lag, 99) * 1e3
    if lag_p99_ms > MAX_LAG_P99_MS:
        problems.append(
            f"invalid run: generator lag p99 {lag_p99_ms:.1f} ms > {MAX_LAG_P99_MS} ms"
        )
    if out["sat_admit_p99"] > ADMIT_P99_LIMIT_S:
        problems.append("closed-loop admit p99 exceeded the 250 ms limit")
    return problems


def _boot_times(config: Dict[str, Any], extra: int) -> List[float]:
    times = []
    for _ in range(extra):
        daemon = Daemon(config)
        times.append(daemon.boot_s)
        if daemon.stop() != 0:
            raise RuntimeError("daemon exited uncleanly")
    return times


def _latencies(load: Load) -> Tuple[List[float], List[float]]:
    """(admit latencies, read latencies) of the open loop."""
    return load.latency["admit"], load.latency["stats"] + load.latency["fleet"]


def client_metrics(out: Dict[str, Any]) -> Dict[str, float]:
    """Open-loop latencies from due time, and the closed loop's rate."""
    admits, reads = _latencies(out["load"])
    return {
        "client.admit_p50_ms": percentile(admits, 50) * 1e3,
        "client.admit_p99_ms": percentile(admits, 99) * 1e3,
        "client.read_p50_ms": percentile(reads, 50) * 1e3,
        "client.read_p99_ms": percentile(reads, 99) * 1e3,
        "client.max_rps": out["max_rps"],
    }


def e2e(seed: int, seconds: float, size: Dict[str, Any]):
    config = service_config(seed, size)
    boots = _boot_times(config, size["boots"] - 1)
    plan = service_plan(seed, size, seconds * 0.75)
    out = _session(config, plan, seconds * 0.25, f"sat{seed}")
    load: Load = out["load"]
    admits, reads = _latencies(load)
    summary = out["fleet"]["summary"]
    values = {
        "setup_s": statistics.median(boots + [out["boot_s"]]),
        "sim_speed": out["sim_speed"],
        "peak_rss_mb": out["peak_rss_mb"],
        "mean_norm_ipc": summary["mean_normalized_ipc"],
        "slo_met_frac": 1.0 - summary["violation_fraction"],
        "admit_frac": load.admitted / load.admits,
    }
    report = {
        "digest": out["trace"]["snapshot_sha256"],
        "admits": len(admits),
        "reads": len(reads),
        **client_metrics(out),
        "loadgen.lag_p99_ms": percentile(load.lag, 99) * 1e3,
        "problems": _problems(config, out),
        "attempted": load.attempted,
        "failed": load.failed,
    }
    return values, report


def _http_seconds(text: str) -> Dict[str, Tuple[int, float]]:
    """``route -> (count, seconds)`` from the daemon's ``/metrics``."""
    sums, counts = {}, {}
    for m in re.finditer(
        r'^dcat_http_request_seconds_(sum|count)\{route="([^"]+)"\} (\S+)$', text, re.M
    ):
        (sums if m.group(1) == "sum" else counts)[m.group(2)] = float(m.group(3))
    return {r: (int(counts.get(r, 0)), sums.get(r, 0.0)) for r in sums}


def traced_run(seed: int, seconds: float, size: Dict[str, Any]):
    """An untraced and a traced daemon under the same plan."""
    config = service_config(seed, size)
    plan = service_plan(seed, size, seconds * 0.4)
    sat_s = seconds * 0.1
    plain = _session(config, plan, sat_s, f"sat{seed}")
    summary_path = OUT_DIR / "service_mixed.trace.json"
    out = _session(config, plan, sat_s, f"sat{seed}", trace_path=summary_path, metrics=True)
    summary = json.loads(summary_path.read_text())
    stats = {k: tuple(v) for k, v in summary["stats"].items()}
    require_spans(stats, FLEET_SPANS + HANDLE_SPANS)
    wall = summary["wall_s"]
    coverage = sum(s for _, s, _ in stats.values()) / summary["cpu_s"]
    if coverage > 1.0 + RECONCILE_TOLERANCE:
        raise ReconcileError(
            f"span self times exceed the daemon's CPU time: {coverage:.3f}"
        )
    values: Dict[str, float] = layer_metrics(stats, wall)
    http = _http_seconds(out["metrics"])
    handle_incl = {k: stats.get(f"handle.{k}", (0, 0.0, 0.0))[2] for k in ("admit", "detach")}
    for kind, route in _ROUTES.items():
        calls, server_s = http.get(route, (0, 0.0))
        if calls == 0:
            raise RuntimeError(f"/metrics reports no {route} requests")
        self_s = server_s - handle_incl.get(kind, 0.0)
        values[f"http.{kind}.calls"] = calls
        values[f"http.{kind}.self_s"] = self_s
        values[f"http.{kind}.share"] = self_s / wall
    writes = values["http.admit.calls"] + values["http.detach.calls"]
    journal = out["trace"]["journal"]
    load: Load = out["load"]
    plain_p50 = percentile(plain["load"].latency["admit"], 50) * 1e3
    traced_p50 = percentile(load.latency["admit"], 50) * 1e3
    values.update({
        "cache.llc_hit_rate": summary["cache.llc_hit_rate"],
        "sim.host_intervals": stats.get("sim.update_dram", (0,))[0],
        "ctl.phase_changes": summary["ctl.phase_changes"],
        "ctl.moved_ratio": summary["ctl.moved_ratio"],
        "slo.violation_frac": out["fleet"]["summary"]["violation_fraction"],
        "fleet.admit_ratio": load.admitted / load.admits,
        "executor.overhead_s": 0.0,
        "queue.wait_s": (values["http.admit.self_s"] + values["http.detach.self_s"]) / writes,
        "journal.records": len(journal),
        "journal.bytes": len(json.dumps(journal)),
        "engine.events": summary["events"],
        "loadgen.lag_p99_ms": percentile(plain["load"].lag, 99) * 1e3,
        **client_metrics(plain),
        "trace.wall_s": wall,
        "trace.coverage": coverage,
        "trace.e2e_untraced_ms": plain_p50,
        "trace.e2e_traced_ms": traced_p50,
        "trace.overhead": traced_p50 / plain_p50 - 1.0,
    })
    report = {
        "digest": out["trace"]["snapshot_sha256"],
        "problems": _problems(config, plain) + _problems(config, out),
        "attempted": plain["load"].attempted + load.attempted,
        "failed": plain["load"].failed + load.failed,
    }
    return values, report
