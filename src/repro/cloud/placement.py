"""Placement policies: which machine gets an arriving tenant.

A policy sees the arriving tenant (spec plus its already-built workload)
and the fleet's machines, and returns the chosen machine or ``None`` when
nothing fits (the fleet then rejects the tenant).  Three policies are
provided:

* :class:`FirstFitPolicy` — the first machine whose reserved-way, vCPU and
  COS budgets all fit; the classic baseline.
* :class:`LeastLoadedPolicy` — the fitting machine with the lowest
  reserved-way utilization, spreading reservations evenly.
* :class:`SensitivityAwarePolicy` — LFOC-style: estimate how much the
  tenant's hit rate would improve beyond its reservation (the curvature of
  its hit-rate-vs-ways curve, the same quantity dCat's performance tables
  learn online) and route cache-sensitive tenants to the machine with the
  most spare ways while packing insensitive ones tightly, keeping headroom
  for the tenants that can use it.

Every policy walks a :class:`CapacityIndex` — the machines bucketed by
the policy's key, fleet order inside each bucket — and takes the first
machine that fits, so a placement costs O(1) in the typical case instead
of a scan over every host.  The walk picks exactly the machine a
``min``/``max`` over the fitting machines in fleet order would: ties break
on fleet order.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterable, List, Optional, Sequence

from repro.cache.analytical import AccessPattern
from repro.cloud.lifecycle import TenantSpec
from repro.core.grouping import curvature_score
from repro.workloads.base import PhasedWorkload, Workload

if TYPE_CHECKING:  # placement sees machines; fleet imports placement
    from repro.cloud.fleet import FleetMachine

__all__ = [
    "CapacityIndex",
    "PlacementPolicy",
    "FirstFitPolicy",
    "LeastLoadedPolicy",
    "SensitivityAwarePolicy",
    "cache_sensitivity",
    "build_policy",
    "policy_names",
]


def cache_sensitivity(
    workload: Workload, machine: "FleetMachine", baseline_ways: int
) -> float:
    """Mean per-way hit-rate gain beyond the reservation (curve curvature).

    Evaluates the analytical LLC model on the workload's largest-footprint
    phase at ``baseline_ways`` and at the full LLC; the slope between the
    two — :func:`repro.core.grouping.curvature_score`, the same figure the
    LFOC allocation strategy computes from learned performance tables — is
    how much each extra way is worth.  A streaming scan or a working set
    that already fits in the reservation scores ~0, exactly the tenants
    LFOC packs tightly.
    """
    if isinstance(workload, PhasedWorkload):
        phases = workload.peek_phases()
    else:
        phase = workload.current_phase()
        phases = [phase] if phase is not None else []
    candidates = [
        p for p in phases if p.pattern is not AccessPattern.NONE and p.wss_bytes > 0
    ]
    if not candidates:
        return 0.0
    phase = max(candidates, key=lambda p: p.wss_bytes)
    analytic = machine.machine.analytic
    total = machine.machine.num_ways
    ways = min(baseline_ways, total)
    return curvature_score(
        lambda w: analytic.hit_rate_fp(phase.footprint, w), ways, total
    )


class CapacityIndex:
    """The fleet's machines bucketed by one placement key.

    Buckets hold fleet positions in ascending order, and the bucket keys
    are kept sorted, so :meth:`first_fitting` visits machines in (key,
    fleet position) order and stops at the first one that fits.  Only the
    key needs to be current: thread and COS budgets are checked by
    :meth:`FleetMachine.fits <repro.cloud.fleet.FleetMachine.fits>` on the
    live machine during the walk.  The owner calls :meth:`update` after
    every admit or depart on a machine (:class:`~repro.cloud.fleet.CloudFleet`
    does it in ``admit_tenant`` and ``depart_tenant``).

    Args:
        machines: The machines, in fleet order.
        key: The policy's bucket key of one machine (hashable, ordered).
    """

    def __init__(
        self,
        machines: Iterable["FleetMachine"],
        key: Callable[["FleetMachine"], Hashable],
    ) -> None:
        self.machines: List["FleetMachine"] = list(machines)
        self.key = key
        self._position = {m: pos for pos, m in enumerate(self.machines)}
        self._key_of = [key(m) for m in self.machines]
        self._buckets: Dict[Hashable, List[int]] = {}
        for pos, k in enumerate(self._key_of):
            self._buckets.setdefault(k, []).append(pos)
        self._keys = sorted(self._buckets)

    def __iter__(self):
        return iter(self.machines)

    def buckets(self) -> Dict[Hashable, List[str]]:
        """Machine names per key, keys ascending (for inspection and tests)."""
        return {
            k: [self.machines[pos].name for pos in self._buckets[k]]
            for k in self._keys
        }

    def update(self, machine: "FleetMachine") -> None:
        """Re-bucket ``machine`` after its reservations changed."""
        pos = self._position[machine]
        old, new = self._key_of[pos], self.key(machine)
        if new == old:
            return
        bucket = self._buckets[old]
        del bucket[bisect_left(bucket, pos)]
        if not bucket:
            del self._buckets[old]
            del self._keys[bisect_left(self._keys, old)]
        bucket = self._buckets.get(new)
        if bucket is None:
            self._buckets[new] = [pos]
            insort(self._keys, new)
        else:
            insort(bucket, pos)
        self._key_of[pos] = new

    def first_fitting(
        self,
        baseline_ways: int,
        descending: bool = False,
        min_key: Optional[Hashable] = None,
    ) -> Optional["FleetMachine"]:
        """The first machine that fits ``baseline_ways`` in walk order.

        Keys ascend (or descend); fleet positions always ascend inside a
        bucket.  Buckets keyed below ``min_key`` are skipped — a caller
        whose key bounds the fit (free ways) passes it to prune them.
        """
        keys = self._keys
        if min_key is not None:
            keys = keys[bisect_left(keys, min_key):]
        machines = self.machines
        for k in reversed(keys) if descending else keys:
            for pos in self._buckets[k]:
                machine = machines[pos]
                if machine.fits(baseline_ways):
                    return machine
        return None


class PlacementPolicy(abc.ABC):
    """Chooses a machine for an arriving tenant (or ``None`` to reject).

    ``place`` walks a :class:`CapacityIndex` built on this policy's
    :meth:`bucket_key` (the fleet's ``capacity``, or :meth:`index` over
    a list of machines).
    """

    name: str = "policy"

    @staticmethod
    def bucket_key(machine: "FleetMachine") -> Hashable:
        """The index key of one machine: one bucket, fleet order."""
        return 0

    def index(self, machines: Iterable["FleetMachine"]) -> CapacityIndex:
        """A :class:`CapacityIndex` of ``machines`` on this policy's key."""
        return CapacityIndex(machines, self.bucket_key)

    @abc.abstractmethod
    def place(
        self,
        tenant: TenantSpec,
        workload: Workload,
        machines: CapacityIndex,
    ) -> Optional["FleetMachine"]:
        """The machine that should host ``tenant``, or ``None``."""


class FirstFitPolicy(PlacementPolicy):
    """First machine (in fleet order) with room for the reservation."""

    name = "first_fit"

    def place(self, tenant, workload, machines):
        return machines.first_fitting(tenant.baseline_ways)


class LeastLoadedPolicy(PlacementPolicy):
    """Fitting machine with the lowest reserved-way utilization."""

    name = "least_loaded"

    @staticmethod
    def bucket_key(machine):
        # The exact float ratio, so heterogeneous hosts compare as such.
        return machine.reserved_ways / machine.machine.num_ways

    def place(self, tenant, workload, machines):
        return machines.first_fitting(tenant.baseline_ways)


class SensitivityAwarePolicy(PlacementPolicy):
    """Give cache-sensitive tenants headroom; pack insensitive ones tight.

    Args:
        threshold: Per-way hit-rate gain above which a tenant counts as
            cache-sensitive (defaults to 1% per way).
    """

    name = "sensitivity"

    def __init__(self, threshold: float = 0.01) -> None:
        if threshold < 0:
            raise ValueError("threshold cannot be negative")
        self.threshold = threshold

    @staticmethod
    def bucket_key(machine):
        return machine.free_ways

    def place(self, tenant, workload, machines):
        ways = tenant.baseline_ways
        # Sensitivity depends on the host geometry (total ways, way size),
        # so judge it against the would-be placement — the machine with the
        # most spare reserved ways — not against whichever machine happens
        # to be first in fleet order.  Both walks start at ``min_key=ways``:
        # a machine with fewer free ways cannot fit the reservation.
        headroom = machines.first_fitting(ways, descending=True, min_key=ways)
        if headroom is None:
            return None
        if cache_sensitivity(workload, headroom, ways) >= self.threshold:
            # Most spare reserved ways first: room to grow beyond baseline.
            return headroom
        # Insensitive: fill the fullest machine that still fits.
        return machines.first_fitting(ways, min_key=ways)


_POLICIES = {
    FirstFitPolicy.name: FirstFitPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    SensitivityAwarePolicy.name: SensitivityAwarePolicy,
}


def policy_names() -> Sequence[str]:
    """The placement policy names churn scenarios accept."""
    return sorted(_POLICIES)


def build_policy(name: str) -> PlacementPolicy:
    """Instantiate a policy by name (``first_fit``/``least_loaded``/``sensitivity``).

    Raises:
        ValueError: For an unknown name.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; use one of {sorted(_POLICIES)}"
        ) from None
    return cls()
