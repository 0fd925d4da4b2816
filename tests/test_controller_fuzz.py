"""Property-based fuzzing of the controller's safety invariants.

Whatever counter streams the hardware feeds it — noisy, idle, phase-churny,
adversarial — after every control step the controller must uphold:

* every workload holds at least ``min_ways``;
* the masks programmed into CAT are contiguous and pairwise disjoint
  (dCat's isolation guarantee);
* allocations sum to at most the socket's ways;
* the plan equals what CAT actually has programmed (no controller/hardware
  divergence).
"""

from hypothesis import given, settings, strategies as st

from repro.cat.cat import CacheAllocationTechnology
from repro.cat.cos import is_contiguous, mask_way_count
from repro.cat.pqos import PqosLibrary
from repro.core.config import DCatConfig
from repro.core.controller import DCatController
from repro.hwcounters.events import (
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
)
from repro.hwcounters.msr import CorePmu
from repro.hwcounters.perfmon import PerfMonitor

CYCLES = 1_000_000

# One interval of one workload's behaviour, as raw rate knobs.
interval_strategy = st.fixed_dictionaries(
    {
        "busy": st.floats(min_value=0.0, max_value=1.0),
        "ipc": st.floats(min_value=0.01, max_value=2.0),
        "refs_per_instr": st.sampled_from([0.05, 0.25, 0.35, 0.6]),
        "llc_intensity": st.floats(min_value=0.0, max_value=1.0),
        "miss_rate": st.floats(min_value=0.0, max_value=1.0),
    }
)


def build_rig(num_workloads, policy="max_fairness"):
    cat = CacheAllocationTechnology(num_ways=20, num_cores=2 * num_workloads)
    pqos = PqosLibrary(cat, way_size_bytes=2359296)
    pmus = {c: CorePmu() for c in range(2 * num_workloads)}
    controller = DCatController(
        pqos=pqos,
        perfmon=PerfMonitor(pmus),
        config=DCatConfig(policy=policy),
        nominal_cycles_per_core=CYCLES,
    )
    for i in range(num_workloads):
        controller.register_workload(f"w{i}", [2 * i, 2 * i + 1], baseline_ways=3)
    controller.initialize()
    return controller, cat, pmus


def feed(pmu, knobs):
    cycles = int(CYCLES * knobs["busy"])
    instructions = int(cycles * knobs["ipc"])
    l1_ref = int(instructions * knobs["refs_per_instr"])
    llc_ref = int(l1_ref * knobs["llc_intensity"])
    llc_miss = int(llc_ref * knobs["miss_rate"])
    pmu.advance(
        instructions,
        cycles,
        {
            L1_CACHE_HITS: max(l1_ref - llc_ref, 0),
            L1_CACHE_MISSES: llc_ref,
            LLC_REFERENCES: llc_ref,
            LLC_MISSES: llc_miss,
        },
    )


def check_invariants(controller, cat, num_workloads):
    masks = []
    total = 0
    for i in range(num_workloads):
        record = controller.records[f"w{i}"]
        mask = cat.cos_mask(record.cos_id)
        assert is_contiguous(mask), f"non-contiguous mask {mask:#x}"
        assert mask_way_count(mask) >= 1
        assert record.ways == mask_way_count(mask), "controller/CAT divergence"
        masks.append(mask)
        total += record.ways
    assert total <= 20, f"allocations sum to {total} > 20 ways"
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            assert a & b == 0, "overlapping tenant masks"


@settings(max_examples=30, deadline=None)
@given(
    script=st.lists(
        st.lists(interval_strategy, min_size=4, max_size=4),
        min_size=3,
        max_size=10,
    )
)
def test_invariants_hold_under_arbitrary_counter_streams(script):
    controller, cat, pmus = build_rig(num_workloads=4)
    for step_knobs in script:
        for i, knobs in enumerate(step_knobs):
            feed(pmus[2 * i], knobs)
            feed(pmus[2 * i + 1], knobs)
        controller.step()
        check_invariants(controller, cat, num_workloads=4)


@settings(max_examples=15, deadline=None)
@given(
    script=st.lists(
        st.lists(interval_strategy, min_size=6, max_size=6),
        min_size=3,
        max_size=8,
    )
)
def test_invariants_hold_under_max_performance_policy(script):
    controller, cat, pmus = build_rig(num_workloads=6, policy="max_performance")
    for step_knobs in script:
        for i, knobs in enumerate(step_knobs):
            feed(pmus[2 * i], knobs)
            feed(pmus[2 * i + 1], knobs)
        controller.step()
        check_invariants(controller, cat, num_workloads=6)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_invariants_at_the_cos_limit(data):
    """Fourteen tenants on 20 ways: the tightest legal configuration."""
    n = 14
    cat = CacheAllocationTechnology(num_ways=20, num_cores=n)
    pqos = PqosLibrary(cat, way_size_bytes=2359296)
    pmus = {c: CorePmu() for c in range(n)}
    controller = DCatController(
        pqos=pqos,
        perfmon=PerfMonitor(pmus),
        config=DCatConfig(),
        nominal_cycles_per_core=CYCLES,
    )
    for i in range(n):
        controller.register_workload(f"w{i}", [i], baseline_ways=1)
    controller.initialize()
    for _ in range(4):
        for i in range(n):
            feed(pmus[i], data.draw(interval_strategy))
        controller.step()
        total = sum(controller.records[f"w{i}"].ways for i in range(n))
        assert total <= 20
        assert all(controller.records[f"w{i}"].ways >= 1 for i in range(n))
