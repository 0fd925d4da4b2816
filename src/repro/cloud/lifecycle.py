"""Tenant lifecycle: who arrives, when, and for how long.

dCat's setting is IaaS — tenants come and go while the controller defends
baselines — so the cloud layer is driven by a stream of
:class:`TenantSpec` entries ordered by arrival time.  Two generators
produce such streams:

* :func:`poisson_tenants` — open-loop Poisson arrivals with exponential
  lifetimes drawn from a seeded :class:`random.Random`, so the same seed
  always yields the same tenant trace (the determinism contract every
  experiment relies on);
* :func:`scripted_tenants` — explicit entries, typically parsed from a
  churn-scenario file (see :mod:`repro.cloud.scenario`).

A tenant's workload is described in the same declarative ``{"type": ...}``
shape scenario files use (:func:`repro.harness.scenario_file.build_workload`),
so one vocabulary covers fixed-VM scenarios and churn traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Type

from repro.engine.context import _get_int, _get_number, _get_str, _require_mapping
from repro.workloads.base import Workload

__all__ = ["TenantSpec", "MixEntry", "poisson_tenants", "scripted_tenants"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's lifecycle entry.

    Attributes:
        name: Unique tenant id (becomes the VM / workload id everywhere).
        arrival_s: Virtual time at which the tenant asks for admission.
        baseline_ways: Contracted LLC ways (the reservation admission
            control and SLO accounting are defined against).
        workload: Scenario-file style workload description
            (``{"type": "mlr", "wss_mb": 8, ...}``).
        lifetime_s: Lease length; the tenant departs ``lifetime_s`` after
            admission.  ``None`` means it stays until its workload finishes
            (or the simulation ends).
    """

    name: str
    arrival_s: float
    baseline_ways: int
    workload: Mapping[str, Any] = field(default_factory=dict)
    lifetime_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError(f"tenant {self.name!r}: arrival_s must be >= 0")
        if self.baseline_ways < 1:
            raise ValueError(f"tenant {self.name!r}: baseline_ways must be >= 1")
        if self.lifetime_s is not None and self.lifetime_s <= 0:
            raise ValueError(f"tenant {self.name!r}: lifetime_s must be positive")
        if "type" not in self.workload:
            raise ValueError(f"tenant {self.name!r}: workload needs a 'type'")

    @classmethod
    def from_mapping(
        cls, entry: Any, path: str, error: Type[ValueError],
        default_name: Optional[str] = None,
    ) -> "TenantSpec":
        """A tenant from its document form — a churn scenario's
        ``tenants[i]`` or an HTTP admit body — raising ``error`` at the
        offending field.  ``name`` is required unless ``default_name`` is
        given; the workload is built once, so a bad knob fails here."""
        from repro.harness.scenario_file import checked_workload

        entry = _require_mapping(entry, path, error)
        name = _get_str(
            entry, path, "name", error, default=default_name, required=default_name is None
        )
        return cls(
            name=name,
            arrival_s=_get_number(entry, path, "arrival_s", error, default=0.0, minimum=0),
            lifetime_s=_get_number(entry, path, "lifetime_s", error, positive=True),
            baseline_ways=_get_int(entry, path, "baseline_ways", error, default=3, minimum=1),
            workload=checked_workload(entry, path, name, error),
        )

    def build_workload(self) -> Workload:
        """Instantiate the tenant's workload (fresh on every call)."""
        from repro.harness.scenario_file import build_workload

        spec = dict(self.workload)
        return build_workload(spec["type"], self.name, spec)


@dataclass(frozen=True)
class MixEntry:
    """One option of a Poisson stream's workload mix.

    Attributes:
        workload: Scenario-file style workload description.
        baseline_ways: Reservation tenants drawn from this entry request.
        weight: Relative draw probability within the mix.
        mean_lifetime_s: Mean of the exponential lease length; ``None``
            means tenants from this entry run until their workload finishes.
    """

    workload: Mapping[str, Any]
    baseline_ways: int = 3
    weight: float = 1.0
    mean_lifetime_s: Optional[float] = 12.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("mix entry weight must be positive")
        if self.baseline_ways < 1:
            raise ValueError("mix entry baseline_ways must be >= 1")
        if self.mean_lifetime_s is not None and self.mean_lifetime_s <= 0:
            raise ValueError("mix entry mean_lifetime_s must be positive")
        if "type" not in self.workload:
            raise ValueError("mix entry workload needs a 'type'")


def poisson_tenants(
    rate_per_s: float,
    duration_s: float,
    mix: Sequence[MixEntry],
    seed: int = 1234,
    name_prefix: str = "tenant",
) -> List[TenantSpec]:
    """A Poisson arrival stream over ``[0, duration_s)``.

    Inter-arrival gaps are exponential with mean ``1 / rate_per_s``; each
    arrival draws a :class:`MixEntry` weighted by ``weight`` and, when the
    entry has a mean lifetime, an exponential lease.  Everything comes from
    one ``random.Random(seed)``, so the stream is a pure function of its
    arguments.

    Raises:
        ValueError: For a non-positive rate/duration or an empty mix.
    """
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if not mix:
        raise ValueError("the workload mix cannot be empty")
    rng = random.Random(seed)
    total_weight = sum(entry.weight for entry in mix)
    tenants: List[TenantSpec] = []
    t = rng.expovariate(rate_per_s)
    index = 0
    while t < duration_s:
        pick = rng.random() * total_weight
        cursor = 0.0
        chosen = mix[-1]
        for entry in mix:
            cursor += entry.weight
            if pick < cursor:
                chosen = entry
                break
        lifetime = (
            rng.expovariate(1.0 / chosen.mean_lifetime_s)
            if chosen.mean_lifetime_s is not None
            else None
        )
        tenants.append(
            TenantSpec(
                name=f"{name_prefix}-{index}",
                arrival_s=t,
                baseline_ways=chosen.baseline_ways,
                workload=dict(chosen.workload),
                lifetime_s=lifetime,
            )
        )
        index += 1
        t += rng.expovariate(rate_per_s)
    return tenants


def scripted_tenants(entries: Sequence[TenantSpec]) -> List[TenantSpec]:
    """Validate and order an explicit tenant trace by (arrival, name).

    Raises:
        ValueError: On duplicate tenant names.
    """
    names = [t.name for t in entries]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate tenant names: {dupes}")
    return sorted(entries, key=lambda t: (t.arrival_s, t.name))
