"""Tests for indexed placement and the single-use tenant-id guard.

Every built-in policy walks the fleet's :class:`CapacityIndex` instead of
scanning the fleet.  The property test below drives admit/depart
sequences through :meth:`CloudFleet.admit_tenant` and
:meth:`CloudFleet.depart_tenant` (the index's only update points) and
checks each policy's walk against the ``min``/``max`` expressions over the
fitting machines that placement used before the index existed.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CloudFleet,
    FirstFitPolicy,
    FleetMachine,
    LeastLoadedPolicy,
    SensitivityAwarePolicy,
    cache_sensitivity,
)
from repro.cloud.lifecycle import TenantSpec
from repro.cloud.placement import CapacityIndex
from repro.cpu.socket import SocketSpec
from repro.engine.events import EventBus, NULL_BUS
from repro.platform.machine import Machine
from repro.platform.managers import SharedCacheManager

POLICIES = (FirstFitPolicy, LeastLoadedPolicy, SensitivityAwarePolicy)

#: xeon_d: 8 two-thread slots, 12 ways (threads run out first with 1-way
#: tenants); xeon_e5_2697v4: 18 slots, 15 allocatable COS, 20 ways (COS
#: runs out first with 1-way tenants).
SOCKETS = {"d": SocketSpec.xeon_d, "e5": SocketSpec.xeon_e5_2697v4}

WORKLOADS = ({"type": "lookbusy"}, {"type": "mlr", "wss_mb": 8})


def make_machines(kinds):
    return [
        FleetMachine(
            f"m{i}-{kind}",
            Machine(spec=SOCKETS[kind](), seed=i),
            SharedCacheManager(),
            bus=NULL_BUS,
        )
        for i, kind in enumerate(kinds)
    ]


def make_fleet(policy, kinds=("d", "e5"), bus=NULL_BUS):
    return CloudFleet(make_machines(kinds), policy, tenants=[], bus=bus)


def brute_force(policy, tenant, workload, machines):
    """Placement as a full scan: the expressions the index replaced."""
    fitting = [m for m in machines if m.fits(tenant.baseline_ways)]
    if not fitting:
        return None
    if isinstance(policy, FirstFitPolicy):
        return fitting[0]
    if isinstance(policy, LeastLoadedPolicy):
        return min(fitting, key=lambda m: (m.reserved_ways / m.machine.num_ways,))
    headroom = max(fitting, key=lambda m: (m.free_ways, -machines.index(m)))
    if cache_sensitivity(workload, headroom, tenant.baseline_ways) >= policy.threshold:
        return headroom
    return min(fitting, key=lambda m: (m.free_ways, machines.index(m)))


def snapshot(fleet):
    return [
        (m.name, m.reserved_ways, sorted(m.residents), m.free_thread_slots)
        for m in fleet.machines
    ]


class TestCapacityIndex:
    def test_buckets_keep_fleet_order_and_sorted_keys(self):
        machines = make_machines(["d", "d", "e5"])
        index = CapacityIndex(machines, key=lambda m: len(m.name) % 2)
        assert index.buckets() == {0: ["m0-d", "m1-d"], 1: ["m2-e5"]}
        assert list(index) == machines

    def test_update_rebuckets_and_drops_empty_keys(self):
        fleet = make_fleet(LeastLoadedPolicy(), kinds=("d", "d"))
        spec = TenantSpec("a", 0.0, 3, {"type": "lookbusy"})
        fleet.admit_tenant(spec)
        assert fleet.capacity.buckets() == {0.0: ["m1-d"], 0.25: ["m0-d"]}
        fleet.depart_tenant("a")
        assert fleet.capacity.buckets() == {0.0: ["m0-d", "m1-d"]}

    def test_sensitivity_walk_skips_buckets_without_enough_free_ways(self):
        fleet = make_fleet(SensitivityAwarePolicy(), kinds=("d", "d"))
        fleet.admit_tenant(TenantSpec("big", 0.0, 10, {"type": "lookbusy"}))
        spec = TenantSpec("t", 0.0, 3, {"type": "lookbusy"})
        # m0 (2 free ways) cannot take 3 ways; the packing walk lands on m1.
        assert fleet.policy.place(spec, spec.build_workload(), fleet.capacity) is (
            fleet.machines[1]
        )


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.integers(min_value=1, max_value=12),
            st.sampled_from(range(len(WORKLOADS))),
        ),
        st.tuples(st.just("admit"), st.just(1), st.just(0)),  # fills slots/COS
        st.tuples(st.just("depart"), st.integers(min_value=0, max_value=1_000)),
    ),
    min_size=1,
    max_size=60,
)


class TestIndexedPlacementMatchesScan:
    @settings(max_examples=40, deadline=None)
    # Thread-exhausted xeon_d, COS-exhausted xeon_e5, then a rejection,
    # departures and a refill.
    @example(
        kinds=["d", "e5"],
        steps=[("admit", 1, 0)] * 24 + [("depart", 5), ("admit", 3, 1)] * 3,
        probe_ways=[1, 4],
    )
    # A way-exhausted host next to a free one, then a whole-LLC rejection.
    @example(
        kinds=["d", "d"],
        steps=[("admit", 12, 0), ("admit", 12, 1), ("admit", 1, 0)],
        probe_ways=[1, 12],
    )
    @given(
        kinds=st.lists(st.sampled_from(sorted(SOCKETS)), min_size=1, max_size=5),
        steps=ops,
        probe_ways=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
    )
    def test_every_policy_picks_what_the_scan_picks(self, kinds, steps, probe_ways):
        fleets = [make_fleet(cls(), kinds=kinds) for cls in POLICIES]
        probes = [
            (TenantSpec("probe", 0.0, ways, dict(WORKLOADS[i % len(WORKLOADS)])))
            for i, ways in enumerate(probe_ways)
        ]
        probe_workloads = [spec.build_workload() for spec in probes]
        for n, step in enumerate(steps):
            for fleet in fleets:
                if step[0] == "admit":
                    _, ways, w = step
                    spec = TenantSpec(f"t{n}", 0.0, ways, dict(WORKLOADS[w]))
                    expected = brute_force(
                        fleet.policy, spec, spec.build_workload(), fleet.machines
                    )
                    record = fleet.admit_tenant(spec)
                    assert record.machine == (expected and expected.name)
                else:
                    residents = sorted(fleet._hosts)
                    if residents:
                        fleet.depart_tenant(residents[step[1] % len(residents)])
                rebuilt = fleet.policy.index(fleet.machines)
                assert fleet.capacity.buckets() == rebuilt.buckets()
                for spec, workload in zip(probes, probe_workloads):
                    for cls in POLICIES:
                        policy = cls()
                        if cls is type(fleet.policy):
                            index = fleet.capacity  # the live, incrementally kept one
                        else:
                            index = policy.index(fleet.machines)
                        got = policy.place(spec, workload, index)
                        want = brute_force(policy, spec, workload, fleet.machines)
                        assert got is want, (policy.name, spec.baseline_ways)

    def test_exhausted_budgets_are_reached(self):
        # The first explicit example above reaches each budget: 8 one-way
        # tenants fill a xeon_d's threads, 15 fill a xeon_e5's COS classes.
        fleet = make_fleet(FirstFitPolicy(), kinds=("d", "e5"))
        for i in range(8 + 15):
            fleet.admit_tenant(TenantSpec(f"t{i}", 0.0, 1, {"type": "lookbusy"}))
        d, e5 = fleet.machines
        assert d.free_thread_slots == 0 and d.free_ways > 0
        assert len(e5.residents) == 15 and e5.free_thread_slots > 0
        record = fleet.admit_tenant(TenantSpec("x", 0.0, 1, {"type": "lookbusy"}))
        assert record.machine is None and record.reason == "no-capacity"


class TestSingleUseTenantIds:
    def admitted_fleet(self):
        seen = []
        bus = EventBus()
        bus.subscribe(seen.append)
        fleet = make_fleet(LeastLoadedPolicy(), kinds=("d", "d"), bus=bus)
        fleet.admit_tenant(TenantSpec("a", 0.0, 3, {"type": "lookbusy"}))
        return fleet, seen

    def assert_refused_untouched(self, fleet, seen):
        def state():
            return (
                snapshot(fleet),
                fleet.capacity.buckets(),
                list(fleet.placements),
                len(seen),
                dict(fleet._hosts),
            )

        before = state()
        with pytest.raises(ValueError, match="tenant 'a' already has a ledger"):
            fleet.admit_tenant(TenantSpec("a", 0.0, 3, {"type": "lookbusy"}))
        assert state() == before

    def test_readmitting_a_departed_id_touches_nothing(self):
        fleet, seen = self.admitted_fleet()
        fleet.depart_tenant("a")
        self.assert_refused_untouched(fleet, seen)
        assert fleet.machine_of("a") is None
        assert all(m.reserved_ways == 0 for m in fleet.machines)

    def test_readmitting_a_resident_id_leaves_no_phantom(self):
        fleet, seen = self.admitted_fleet()
        self.assert_refused_untouched(fleet, seen)
        assert fleet.machine_of("a") is fleet.machines[0]
        assert [m.reserved_ways for m in fleet.machines] == [3, 0]
