"""Closed-loop load generators and application-level metrics.

The paper's application results (Redis+memtier, PostgreSQL+pgbench,
Elasticsearch+YCSB) are measured at the client: throughput and average/p99
latency over a 10 Gbps LAN.  All three clients are *closed-loop*: a fixed
population of outstanding requests (threads x pipeline depth) cycles between
thinking (network + client time) and being served.

We model the server as a multi-server queueing station (one server per
vCPU), the client as a delay station, and solve the closed network with
approximate Mean Value Analysis.  Service time comes straight from the cache
model: ``instructions-per-op x CPI / clock`` — so when dCat raises the LLC
hit rate, CPI falls, service time falls, and the client sees exactly the
throughput/latency movement the paper reports.

Latency percentiles use an exponential-tail approximation on the waiting
time (documented on :meth:`ClosedLoopClient.solve`); the reproduction
targets the *ordering and rough magnitude* of the paper's table rows, which
depend on mean behaviour, not on precise tail shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AppMetrics", "ClosedLoopClient"]


@dataclass(frozen=True)
class AppMetrics:
    """Client-observed application metrics for one interval."""

    throughput_ops: float
    avg_latency_s: float
    p99_latency_s: float
    utilization: float

    def scaled(self, factor: float) -> "AppMetrics":
        """Scale throughput (e.g. ops -> requests) preserving latencies."""
        return AppMetrics(
            throughput_ops=self.throughput_ops * factor,
            avg_latency_s=self.avg_latency_s,
            p99_latency_s=self.p99_latency_s,
            utilization=self.utilization,
        )


@dataclass(frozen=True)
class ClosedLoopClient:
    """A memtier/pgbench/YCSB-style fixed-population load generator.

    Attributes:
        concurrency: Outstanding requests (threads x pipeline depth).
        think_time_s: Per-request client-side delay, network RTT included.
    """

    concurrency: int
    think_time_s: float

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.think_time_s < 0:
            raise ValueError("think time cannot be negative")

    def solve(self, service_time_s: float, servers: int) -> AppMetrics:
        """Solve the closed network with approximate MVA.

        Args:
            service_time_s: Mean per-request service demand at the server.
            servers: Parallel servers (the VM's vCPUs).

        The MVA recursion treats the multi-server station with the standard
        approximation: a new arrival waits only for the queue beyond the
        ``servers - 1`` requests that can be in service alongside it.  The
        p99 is estimated as ``service * (1 + 2.3 * cv)`` plus an
        exponential-tail multiple of the mean wait (ln(100) ~ 4.6), with
        cv = 1 (exponential service).
        """
        if service_time_s <= 0:
            raise ValueError("service time must be positive")
        if servers < 1:
            raise ValueError("need at least one server")
        # Runs once per VM per interval, up to ``concurrency`` steps each:
        # invariants are hoisted, but every float op stays as written.
        think = self.think_time_s
        in_service = servers - 1
        queue = 0.0
        response = service_time_s
        for n in range(1, self.concurrency + 1):
            ahead = queue - in_service
            waiting_ahead = ahead if ahead > 0.0 else 0.0  # max(0.0, ahead)
            response = service_time_s * (1.0 + waiting_ahead / servers)
            queue = n / (think + response) * response
        throughput = self.concurrency / (think + response)
        utilization = min(1.0, throughput * service_time_s / servers)
        wait = max(0.0, response - service_time_s)
        p99 = service_time_s * (1.0 + 2.3) + wait * math.log(100.0)
        return AppMetrics(
            throughput_ops=throughput,
            avg_latency_s=response,
            p99_latency_s=max(p99, response),
            utilization=utilization,
        )
