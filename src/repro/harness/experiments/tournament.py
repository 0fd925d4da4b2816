"""The policy tournament: race every allocation strategy under churn.

The paper evaluates its two §3.5 objectives on fixed VM mixes; the
tournament races *every* registered strategy (see
:mod:`repro.core.policies`) across churn scenarios, with and without
fault injection, and reports four axes per cell:

* **throughput** — fleet normalized-IPC-seconds per wall second (how much
  entitled performance the fleet actually delivered);
* **jain_fairness** — Jain's index over per-tenant mean normalized IPC
  (1.0 = perfectly even outcomes);
* **slo_violation_s** — total seconds tenants spent below their SLO;
* **realloc_churn** — total way-allocation changes across all timelines
  (actuation cost: mask reprogramming plus way flushes).

No single number ranks policies — a strategy can buy throughput with
churn, or fairness with violations — so the summary marks the Pareto
frontier over per-policy aggregates instead of electing a winner.

The JSON payload is schema-versioned (:data:`TOURNAMENT_SCHEMA`) and
checked by :func:`validate_tournament_report`, so the smoke suite and
downstream tooling can rely on its shape.  Per-cell metrics also
flow through a :class:`repro.obs.registry.MetricsRegistry` as one labeled
gauge per (policy, scenario, faults, metric) combination.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.harness.results import ExperimentResult, TableResult

__all__ = [
    "TOURNAMENT_SCHEMA",
    "METRIC_KEYS",
    "tournament_scenario_names",
    "build_tournament_report",
    "render_tournament_markdown",
    "run_policy_tournament",
    "validate_tournament_report",
    "jain_fairness",
    "pareto_frontier",
]

#: Version marker stamped into every report; bump on shape changes.
TOURNAMENT_SCHEMA = "dcat-tournament/v1"

#: The four per-cell metric axes, in report order.
METRIC_KEYS = ("throughput", "jain_fairness", "slo_violation_s", "realloc_churn")

#: Metrics where larger is better; the rest are costs.
_HIGHER_IS_BETTER = ("throughput", "jain_fairness")

#: Policies raced by ``--quick`` (CI smoke): the two paper objectives
#: plus one rival, keeping the sweep under a minute.
_QUICK_POLICIES = ("max_fairness", "max_performance", "lfoc_clustering")


def _steady_mix_scenario(seed: int, faults: bool, quick: bool) -> Dict[str, Any]:
    """Anchored databases plus a Poisson mlr/mload/lookbusy stream.

    The postgres anchor declares its phase schedule, so the ``phase_hint``
    strategy has a hint to act on while everyone else ignores it.
    """
    duration = 12 if quick else 30
    scenario: Dict[str, Any] = {
        "fleet": {"machines": 2, "socket": "xeon_d", "seed": seed},
        "manager": {"type": "dcat"},
        "placement": "sensitivity",
        "duration_s": duration,
        "slo": {"tolerance": 0.05},
        "tenants": [
            {
                "name": "db-anchor",
                "arrival_s": 0,
                "baseline_ways": 4,
                "lifetime_s": duration - 2,
                "workload": {
                    "type": "postgres",
                    "declared_phases": [
                        {"start_s": 0, "preferred_ways": 5}
                    ],
                },
            },
            {
                "name": "kv-anchor",
                "arrival_s": 1,
                "baseline_ways": 4,
                "lifetime_s": duration - 2,
                "workload": {"type": "redis"},
            },
        ],
        "poisson": {
            "rate_per_s": 0.45,
            "seed": seed + 1,
            "mix": [
                {
                    "weight": 2,
                    "baseline_ways": 3,
                    "mean_lifetime_s": 10,
                    "workload": {"type": "mlr", "wss_mb": 8},
                },
                {
                    "weight": 1,
                    "baseline_ways": 3,
                    "mean_lifetime_s": 10,
                    "workload": {"type": "mload", "wss_mb": 60},
                },
                {
                    "weight": 1,
                    "baseline_ways": 3,
                    "mean_lifetime_s": 10,
                    "workload": {"type": "lookbusy"},
                },
            ],
        },
    }
    if faults:
        scenario["faults"] = _fault_section(seed)
    return scenario


def _bursty_streamers_scenario(seed: int, faults: bool, quick: bool) -> Dict[str, Any]:
    """Short-lived, streamer-heavy arrivals: the squanderer-pressure case."""
    duration = 12 if quick else 30
    scenario: Dict[str, Any] = {
        "fleet": {"machines": 2, "socket": "xeon_d", "seed": seed + 7},
        "manager": {"type": "dcat"},
        "placement": "first_fit",
        "duration_s": duration,
        "slo": {"tolerance": 0.05},
        "tenants": [
            {
                "name": "search-anchor",
                "arrival_s": 0,
                "baseline_ways": 4,
                "lifetime_s": duration - 2,
                "workload": {"type": "elasticsearch"},
            },
        ],
        "poisson": {
            "rate_per_s": 0.6,
            "seed": seed + 8,
            "mix": [
                {
                    "weight": 3,
                    "baseline_ways": 3,
                    "mean_lifetime_s": 6,
                    "workload": {"type": "mload", "wss_mb": 60},
                },
                {
                    "weight": 1,
                    "baseline_ways": 3,
                    "mean_lifetime_s": 8,
                    "workload": {"type": "mlr", "wss_mb": 12},
                },
            ],
        },
    }
    if faults:
        scenario["faults"] = _fault_section(seed + 7)
    return scenario


def _fault_section(seed: int) -> Dict[str, Any]:
    """The faults-on plan: noisy counters, flaky writes, read errors."""
    return {
        "seed": seed + 99,
        "rules": [
            {"kind": "counter_noise", "magnitude": 3.0, "probability": 0.08},
            {"kind": "l3ca_set_fail", "probability": 0.08},
            {"kind": "counter_read_error", "probability": 0.05},
        ],
    }


_SCENARIOS = {
    "steady_mix": _steady_mix_scenario,
    "bursty_streamers": _bursty_streamers_scenario,
}


def tournament_scenario_names() -> List[str]:
    """The churn scenarios every policy is raced on, sorted."""
    return sorted(_SCENARIOS)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n · Σx²)``; 1.0 when empty."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 1.0
    square_sum = sum(v * v for v in vals)
    if square_sum == 0:
        return 1.0
    return (sum(vals) ** 2) / (len(vals) * square_sum)


def _cell_metrics(result: Any, duration_s: float) -> Dict[str, float]:
    """The four tournament axes for one fleet run."""
    interval = result.interval_s
    throughput = (
        sum(s.normalized_sum for s in result.tenants.values())
        * interval
        / duration_s
    )
    fairness = jain_fairness(
        [
            s.mean_normalized_ipc
            for s in result.tenants.values()
            if s.active_intervals
        ]
    )
    violation_s = (
        sum(s.violation_intervals for s in result.tenants.values()) * interval
    )
    churn = 0
    for sim in result.machines.values():
        for timeline in sim.records.values():
            for prev, cur in zip(timeline, timeline[1:]):
                if cur.ways != prev.ways:
                    churn += 1
    return {
        "throughput": throughput,
        "jain_fairness": fairness,
        "slo_violation_s": violation_s,
        "realloc_churn": float(churn),
    }


def pareto_frontier(
    aggregates: Mapping[str, Mapping[str, float]],
) -> Dict[str, bool]:
    """Which policies no other policy dominates on all four axes.

    ``a`` dominates ``b`` when it is at least as good on every metric
    (higher throughput/fairness, lower violations/churn) and strictly
    better on at least one.
    """

    def _dominates(a: Mapping[str, float], b: Mapping[str, float]) -> bool:
        at_least_as_good = all(
            a[m] >= b[m] if m in _HIGHER_IS_BETTER else a[m] <= b[m]
            for m in METRIC_KEYS
        )
        strictly_better = any(a[m] != b[m] for m in METRIC_KEYS)
        return at_least_as_good and strictly_better

    return {
        name: not any(
            _dominates(other, agg)
            for other_name, other in aggregates.items()
            if other_name != name
        )
        for name, agg in aggregates.items()
    }


def build_tournament_report(
    seed: int = 1234,
    quick: bool = False,
    registry: Optional[Any] = None,
    fleet_jobs: int = 1,
) -> Dict[str, Any]:
    """Run the full sweep and return the schema-versioned payload.

    Args:
        seed: Base seed; every cell derives its own machine/arrival seeds
            from it, so the same seed gives a byte-identical report.
        quick: Race only :data:`_QUICK_POLICIES` (the CI smoke sweep);
            the full run races every registered strategy.
        registry: Optional :class:`repro.obs.registry.MetricsRegistry`;
            when given, each cell lands as a ``dcat_tournament_metric``
            gauge labeled (policy, scenario, faults, metric).
        fleet_jobs: Worker processes per cell's fleet (``--fleet-jobs``);
            cell results are byte-identical regardless of the value.
    """
    from repro.cloud.scenario import run_churn_scenario
    from repro.core.policies import strategy_names

    policies = (
        [p for p in _QUICK_POLICIES] if quick else strategy_names()
    )
    scenarios = tournament_scenario_names()
    fault_modes = ["off", "on"]

    family = None
    if registry is not None:
        family = registry.gauge(
            "dcat_tournament_metric",
            "Policy-tournament cell metrics",
            labels=("policy", "scenario", "faults", "metric"),
        )

    cells: List[Dict[str, Any]] = []
    totals: Dict[str, Dict[str, float]] = {
        p: {m: 0.0 for m in METRIC_KEYS} for p in policies
    }
    for policy in policies:
        for scenario_name in scenarios:
            for faults in fault_modes:
                scenario = _SCENARIOS[scenario_name](
                    seed, faults == "on", quick
                )
                result = run_churn_scenario(
                    scenario, policy=policy, fleet_jobs=fleet_jobs
                )
                metrics = _cell_metrics(result, float(scenario["duration_s"]))
                cell: Dict[str, Any] = {
                    "policy": policy,
                    "scenario": scenario_name,
                    "faults": faults,
                    "admitted": len(result.admitted),
                    "rejected": len(result.rejected),
                }
                cell.update(metrics)
                cells.append(cell)
                for metric, value in metrics.items():
                    totals[policy][metric] += value
                    if family is not None:
                        family.labels(
                            policy=policy,
                            scenario=scenario_name,
                            faults=faults,
                            metric=metric,
                        ).set(value)

    n_cells_per_policy = len(scenarios) * len(fault_modes)
    aggregates = {
        policy: {
            # Means for the quality axes, totals for the cost axes.
            "throughput": sums["throughput"] / n_cells_per_policy,
            "jain_fairness": sums["jain_fairness"] / n_cells_per_policy,
            "slo_violation_s": sums["slo_violation_s"],
            "realloc_churn": sums["realloc_churn"],
        }
        for policy, sums in totals.items()
    }
    frontier = pareto_frontier(aggregates)
    summary = {
        policy: dict(aggregates[policy], pareto=frontier[policy])
        for policy in policies
    }
    return {
        "schema": TOURNAMENT_SCHEMA,
        "seed": seed,
        "quick": quick,
        "policies": list(policies),
        "scenarios": scenarios,
        "fault_modes": fault_modes,
        "cells": cells,
        "summary": summary,
    }


def validate_tournament_report(payload: Any) -> None:
    """Check a tournament payload against the v1 schema.

    Raises:
        ValueError: Naming the first offending field.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"report: expected an object, got {type(payload).__name__}")
    if payload.get("schema") != TOURNAMENT_SCHEMA:
        raise ValueError(
            f"schema: expected {TOURNAMENT_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for key in ("seed", "quick", "policies", "scenarios", "fault_modes", "cells", "summary"):
        if key not in payload:
            raise ValueError(f"{key}: missing required field")
    policies = payload["policies"]
    scenarios = payload["scenarios"]
    fault_modes = payload["fault_modes"]
    for key, val in (("policies", policies), ("scenarios", scenarios), ("fault_modes", fault_modes)):
        if not isinstance(val, list) or not val or not all(isinstance(v, str) for v in val):
            raise ValueError(f"{key}: expected a non-empty list of strings")
    cells = payload["cells"]
    if not isinstance(cells, list):
        raise ValueError("cells: expected a list")
    expected = {
        (p, s, f) for p in policies for s in scenarios for f in fault_modes
    }
    seen = set()
    for i, cell in enumerate(cells):
        ctx = f"cells[{i}]"
        if not isinstance(cell, dict):
            raise ValueError(f"{ctx}: expected an object")
        key = (cell.get("policy"), cell.get("scenario"), cell.get("faults"))
        if key not in expected:
            raise ValueError(f"{ctx}: unexpected combination {key!r}")
        if key in seen:
            raise ValueError(f"{ctx}: duplicate combination {key!r}")
        seen.add(key)
        for metric in METRIC_KEYS:
            value = cell.get(metric)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{ctx}.{metric}: expected a number, got {value!r}")
        for count in ("admitted", "rejected"):
            value = cell.get(count)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"{ctx}.{count}: expected a non-negative integer, got {value!r}"
                )
    missing = expected - seen
    if missing:
        raise ValueError(f"cells: missing combinations {sorted(missing)}")
    summary = payload["summary"]
    if not isinstance(summary, dict) or set(summary) != set(policies):
        raise ValueError("summary: expected one entry per policy")
    for policy, agg in summary.items():
        ctx = f"summary[{policy!r}]"
        if not isinstance(agg, dict):
            raise ValueError(f"{ctx}: expected an object")
        for metric in METRIC_KEYS:
            value = agg.get(metric)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{ctx}.{metric}: expected a number, got {value!r}")
        if not isinstance(agg.get("pareto"), bool):
            raise ValueError(f"{ctx}.pareto: expected a boolean")


def render_tournament_markdown(payload: Dict[str, Any]) -> str:
    """The payload as two markdown tables: Pareto summary, then cells."""
    lines = [
        f"# Policy tournament (seed {payload['seed']}"
        + (", quick)" if payload["quick"] else ")"),
        "",
        "## Pareto summary",
        "",
        "| policy | throughput | jain_fairness | slo_violation_s "
        "| realloc_churn | pareto |",
        "|---|---|---|---|---|---|",
    ]
    for policy in payload["policies"]:
        agg = payload["summary"][policy]
        lines.append(
            f"| {policy} | {agg['throughput']:.4f} | {agg['jain_fairness']:.4f} "
            f"| {agg['slo_violation_s']:.1f} | {agg['realloc_churn']:.0f} "
            f"| {'yes' if agg['pareto'] else 'no'} |"
        )
    lines += [
        "",
        "## Cells",
        "",
        "| policy | scenario | faults | throughput | jain_fairness "
        "| slo_violation_s | realloc_churn | admitted | rejected |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for cell in payload["cells"]:
        lines.append(
            f"| {cell['policy']} | {cell['scenario']} | {cell['faults']} "
            f"| {cell['throughput']:.4f} | {cell['jain_fairness']:.4f} "
            f"| {cell['slo_violation_s']:.1f} | {cell['realloc_churn']:.0f} "
            f"| {cell['admitted']} | {cell['rejected']} |"
        )
    return "\n".join(lines) + "\n"


def run_policy_tournament(
    seed: int = 1234, quick: bool = False, **_: Any
) -> ExperimentResult:
    """Registry entry point: the tournament as an ExperimentResult."""
    payload = build_tournament_report(seed=seed, quick=quick)
    validate_tournament_report(payload)
    out = ExperimentResult(
        experiment_id="policy_tournament",
        title="Allocation-policy tournament: strategies x churn x faults",
    )
    pareto = TableResult(
        headers=["policy", *METRIC_KEYS, "pareto"]
    )
    for policy in payload["policies"]:
        agg = payload["summary"][policy]
        pareto.add_row(
            policy,
            *(agg[m] for m in METRIC_KEYS),
            "yes" if agg["pareto"] else "no",
        )
    out.add("pareto", pareto)
    cells = TableResult(
        headers=["policy", "scenario", "faults", *METRIC_KEYS, "admitted", "rejected"]
    )
    for cell in payload["cells"]:
        cells.add_row(
            cell["policy"],
            cell["scenario"],
            cell["faults"],
            *(cell[m] for m in METRIC_KEYS),
            cell["admitted"],
            cell["rejected"],
        )
    out.add("cells", cells)
    frontier = [p for p in payload["policies"] if payload["summary"][p]["pareto"]]
    out.note(
        f"{len(payload['policies'])} policies x {len(payload['scenarios'])} "
        f"scenarios x faults on/off; Pareto frontier: {', '.join(frontier)}"
    )
    return out
