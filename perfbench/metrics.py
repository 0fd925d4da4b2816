"""The benchmark's metric catalogue: the single source of ``BENCHMARK.json``.

Run ``python3 perfbench/metrics.py`` from the repository root to rewrite
``BENCHMARK.json`` from this file; the benchmark's tests check the two agree.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Sequence

from spans import SPAN_NAMES

WORKLOADS = (
    ("fleet_dense",
     "every host of a serial 48-host fleet full from t=0 with a phased mix: "
     "per-busy-host CloudSimulation.step (substrate, cpu, PMU feed, "
     "controller, CAT) dominates"),
    ("fleet_churn",
     "1000 mostly idle hosts, 50 arrivals/s with ~2 s leases, least_loaded: "
     "placement, admission and SLO ledgers dominate; the traced run adds "
     "fleet_jobs=2 for executor round trips"),
    ("service_mixed",
     "daemon in its own process under an open-loop admit/detach/read mix "
     "then a closed-loop burst: HTTP, command queue, journal and ticks "
     "sharing one event loop"),
)

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("sim_speed", "s/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("mean_norm_ipc", "ratio", "higher", 0.05),
    ("slo_met_frac", "ratio", "higher", 0.05),
    ("admit_frac", "ratio", "higher", 0.05),
)

#: Per-layer extras beside the span triples: (name, unit, better).
LAYER_EXTRAS = (
    ("cache.llc_hit_rate", "ratio", "higher"),
    ("sim.host_intervals", "count", "higher"),
    ("ctl.phase_changes", "count", "lower"),
    ("ctl.moved_ratio", "ratio", "lower"),
    ("slo.violation_frac", "ratio", "lower"),
    ("fleet.admit_ratio", "ratio", "higher"),
    ("executor.overhead_s", "s", "lower"),
    ("http.admit.calls", "count", "higher"),
    ("http.admit.self_s", "s", "lower"),
    ("http.admit.share", "ratio", "lower"),
    ("http.detach.calls", "count", "higher"),
    ("http.detach.self_s", "s", "lower"),
    ("http.detach.share", "ratio", "lower"),
    ("http.stats.calls", "count", "higher"),
    ("http.stats.self_s", "s", "lower"),
    ("http.stats.share", "ratio", "lower"),
    ("http.fleet.calls", "count", "higher"),
    ("http.fleet.self_s", "s", "lower"),
    ("http.fleet.share", "ratio", "lower"),
    ("queue.wait_s", "s", "lower"),
    ("journal.records", "count", "lower"),
    ("journal.bytes", "bytes", "lower"),
    ("engine.events", "count", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("client.admit_p50_ms", "ms", "lower"),
    ("client.admit_p99_ms", "ms", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.read_p99_ms", "ms", "lower"),
    ("client.max_rps", "1/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.e2e_untraced_ms", "ms", "lower"),
    ("trace.e2e_traced_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Layers only the service workload crosses; 0 on the fleet workloads.
SERVICE_ONLY = tuple(
    name for name, _, _ in LAYER_EXTRAS
    if name.startswith(("http.", "queue.", "journal.", "engine.", "loadgen."))
)

SPAN_FIELDS = (("calls", "count", "higher"), ("self_s", "s", "lower"), ("share", "ratio", "lower"))


def per_layer() -> List[tuple]:
    rows = [
        (f"{span}.{field}", unit, better)
        for span in SPAN_NAMES
        for field, unit, better in SPAN_FIELDS
    ]
    return rows + list(LAYER_EXTRAS)


def benchmark_spec() -> Dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], trace: bool) -> str:
    """The final stdout line: exactly the catalogue's metrics for the mode."""
    rows = per_layer() if trace else END_TO_END
    metrics = {}
    for row in rows:
        name, unit = row[0], row[1]
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
    print(f"wrote {path}")
