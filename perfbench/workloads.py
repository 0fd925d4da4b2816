"""Seeded input generators: scenario dicts and HTTP request plans.

Every function here is a pure function of its arguments; the program under
test only ever sees what they return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List

#: Sizes per workload; ``smoke`` shrinks each for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fleet_dense": {"hosts": 48, "warmup": 1, "horizon": 40, "reads": 8,
                        "lifetimes": (20, 80)},
        "fleet_churn": {"hosts": 1000, "rate": 50.0, "lifetime": 2.0,
                        "warmup": 2, "horizon": 20, "reads": 8},
        "service_mixed": {"hosts": 8, "admit_rps": 50.0, "read_rps": 50.0,
                          "hold_s": 0.3, "tick_s": 0.05, "boots": 3},
    },
    "smoke": {
        "fleet_dense": {"hosts": 4, "warmup": 1, "horizon": 6, "reads": 4,
                        "lifetimes": (2, 6)},
        "fleet_churn": {"hosts": 40, "rate": 10.0, "lifetime": 2.0,
                        "warmup": 2, "horizon": 6, "reads": 4},
        "service_mixed": {"hosts": 2, "admit_rps": 20.0, "read_rps": 20.0,
                          "hold_s": 0.2, "tick_s": 0.05, "boots": 1},
    },
}

#: One dense host's slots: reserved ways per tenant, 12 ways in all — the
#: whole xeon_d LLC — over 5 of its 8 two-thread slots.
DENSE_SLOT_WAYS = (3, 3, 2, 2, 2)

#: The phased mix: each tenant idles for a drawn delay, then runs.
DENSE_MIX = (
    {"type": "mlr", "wss_mb": 4},
    {"type": "mlr", "wss_mb": 8},
    {"type": "mlr", "wss_mb": 16},
    {"type": "mload", "wss_mb": 60},
    {"type": "lookbusy"},
    {"type": "redis"},
    {"type": "postgres"},
)

CHURN_MIX = (
    {"weight": 2, "baseline_ways": 3, "workload": {"type": "mlr", "wss_mb": 8}},
    {"weight": 1, "baseline_ways": 2, "workload": {"type": "mload", "wss_mb": 60}},
    {"weight": 1, "baseline_ways": 2, "workload": {"type": "lookbusy"}},
    {"weight": 1, "baseline_ways": 3, "workload": {"type": "redis"}},
)


def dense_scenario(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    """Every host filled to its way limit at t=0, with slot replacement.

    Each host slot runs a chain of tenants: a successor arrives in the
    interval its predecessor's lease ends, asking for the same ways.  The
    mix rotates through the slots, so every seed runs the same
    composition; the seed draws start delays, leases and machine seeds.
    """
    rng = random.Random(seed)
    horizon = size["warmup"] + size["horizon"]
    tenants: List[Dict[str, Any]] = []
    for host in range(size["hosts"]):
        for slot, ways in enumerate(DENSE_SLOT_WAYS):
            t, n = 0, 0
            while t < horizon:
                pick = host * len(DENSE_SLOT_WAYS) + slot + n
                workload = dict(DENSE_MIX[pick % len(DENSE_MIX)])
                workload["start_delay_s"] = float(rng.randint(0, 5))
                lifetime = rng.randint(*size["lifetimes"])
                tenants.append({
                    "name": f"d{host}-{slot}-{n}",
                    "arrival_s": float(t),
                    "baseline_ways": ways,
                    "lifetime_s": float(lifetime),
                    "workload": workload,
                })
                t += lifetime
                n += 1
    return {
        "fleet": {"machines": size["hosts"], "socket": "xeon_d", "seed": seed},
        "manager": {"type": "dcat"},
        "placement": "first_fit",
        "slo": {"tolerance": 0.05},
        "duration_s": float(horizon),
        "tenants": tenants,
    }


def churn_scenario(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    """A large, mostly idle fleet under high-rate short-lived arrivals."""
    mix = [dict(entry, mean_lifetime_s=size["lifetime"]) for entry in CHURN_MIX]
    return {
        "fleet": {"machines": size["hosts"], "socket": "xeon_d", "seed": seed},
        "manager": {"type": "dcat"},
        "placement": "least_loaded",
        "slo": {"tolerance": 0.05},
        "duration_s": float(size["warmup"] + size["horizon"]),
        "poisson": {"rate_per_s": size["rate"], "seed": seed, "mix": mix},
    }


def service_config(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "fleet": {"machines": size["hosts"], "socket": "xeon_d", "seed": seed,
                  "interval_s": 1.0},
        "manager": {"type": "dcat"},
        "placement": "least_loaded",
        "slo": {"tolerance": 0.05},
        "service": {"tick_interval_s": size["tick_s"]},
    }


SERVICE_MIX = (
    {"type": "mlr", "wss_mb": 2},
    {"type": "mlr", "wss_mb": 8},
    {"type": "mload", "wss_mb": 60},
    {"type": "lookbusy"},
)


@dataclass(frozen=True)
class Request:
    """One open-loop request: due offset, kind and payload."""

    due_s: float
    kind: str  # "admit" | "stats" | "fleet"
    tenant: str = ""
    ways: int = 0
    workload: Any = None
    hold_s: float = 0.0


def service_plan(seed: int, size: Dict[str, Any], duration_s: float) -> List[Request]:
    """Admits (each detached after its hold) and reads, due-time ordered.

    Workloads and reservations rotate, so every seed asks for the same
    mix; the seed draws arrival times, holds and read targets.
    """
    rng = random.Random(seed)
    plan: List[Request] = []
    t, n = 0.0, 0
    while True:
        t += rng.expovariate(size["admit_rps"])
        if t >= duration_s:
            break
        plan.append(Request(
            due_s=t, kind="admit", tenant=f"s{seed}-{n}",
            ways=2 + n % 2, workload=dict(SERVICE_MIX[n % len(SERVICE_MIX)]),
            hold_s=rng.expovariate(1.0 / size["hold_s"]),
        ))
        n += 1
    admits = [r for r in plan if r.kind == "admit"]
    t = 0.0
    while admits:
        t += rng.expovariate(size["read_rps"])
        if t >= duration_s:
            break
        earlier = admits[: max(1, int(len(admits) * t / duration_s))]
        if rng.random() < 0.75:
            plan.append(Request(due_s=t, kind="stats", tenant=rng.choice(earlier).tenant))
        else:
            plan.append(Request(due_s=t, kind="fleet"))
    plan.sort(key=lambda r: r.due_s)
    return plan
