"""Contracts of the controller's per-interval fast paths.

The control loop runs for every workload every interval, so it reuses what
did not change instead of rebuilding it: the last mask layout while the plan
and the masks stand still, each distinct CBM's validation, and the phase
signature while the reference holds.  Its per-interval values are
``NamedTuple``s.  These tests pin that each shortcut gives exactly what the
long way gives, and that the writes the fault layer counts on still happen.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.controller as controller_mod
from repro.cat.cat import CacheAllocationTechnology
from repro.cat.layout import pack_contiguous
from repro.cat.pqos import PqosError, PqosL3Ca, PqosLibrary
from repro.core.allocation import AllocationInput
from repro.core.classifier import Decision
from repro.core.config import DCatConfig
from repro.core.controller import L3CA_MAX_RETRIES, DCatController, WorkloadStatus
from repro.core.phase import PhaseDetector, PhaseSignature
from repro.core.states import WorkloadState
from repro.faults.injectors import FaultyPqosLibrary
from repro.hwcounters.events import (
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
)
from repro.hwcounters.msr import CorePmu
from repro.hwcounters.perfmon import CounterSample, PerfMonitor

NUM_WAYS = 20
NUM_CORES = 16
CYCLES = 1_000_000


class CountingPqos:
    """A ``PqosLibrary``-shaped double that counts writes and read-backs."""

    def __init__(self, inner):
        self._inner = inner
        self.sets = 0
        self.readbacks = 0

    def cap_get(self):
        return self._inner.cap_get()

    def l3ca_set(self, entries):
        self.sets += 1
        self._inner.l3ca_set(entries)

    def l3ca_masks(self):
        self.readbacks += 1
        return self._inner.l3ca_masks()

    def alloc_assoc_set(self, core, cos_id):
        self._inner.alloc_assoc_set(core, cos_id)

    def alloc_assoc_get(self, core):
        return self._inner.alloc_assoc_get(core)


def build(pqos_wrapper=CountingPqos):
    cat = CacheAllocationTechnology(num_ways=NUM_WAYS, num_cores=NUM_CORES)
    pqos = pqos_wrapper(PqosLibrary(cat, way_size_bytes=1 << 20))
    pmus = {c: CorePmu() for c in range(NUM_CORES)}
    ctl = DCatController(
        pqos=pqos,
        perfmon=PerfMonitor(pmus),
        config=DCatConfig(),
        nominal_cycles_per_core=CYCLES,
    )
    return ctl, pqos, pmus


def feed_steady(pmus, cores):
    """One interval of identical, cache-insensitive activity per core."""
    for core in cores:
        instructions = CYCLES // 2
        pmus[core].advance(
            instructions,
            CYCLES,
            {
                L1_CACHE_HITS: instructions // 4,
                L1_CACHE_MISSES: 0,
                LLC_REFERENCES: 0,
                LLC_MISSES: 0,
            },
        )


class CountingPack:
    """Counts calls into ``pack_contiguous`` from the controller module."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return pack_contiguous(*args, **kwargs)


# -- layout reuse ------------------------------------------------------------

#: One operation: admit a workload (names come from a small pool, so a
#: departed name comes back), deregister one, make the next write fail past
#: its retries, or apply a plan (``None`` repeats the last plan, so the reuse
#: path runs often).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, 5), st.integers(1, 4)),
        st.tuples(st.just("deregister"), st.integers(0, 7), st.none()),
        st.tuples(st.just("fail"), st.none(), st.none()),
        st.tuples(st.just("plan"), st.none(), st.none()),
        st.tuples(
            st.just("plan"),
            st.lists(st.integers(1, 5), min_size=6, max_size=6),
            st.none(),
        ),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_reused_layout_equals_a_fresh_pack(ops):
    ctl, pqos, _ = build(FaultyPqosLibrary)
    sizes = [2] * 6
    for op, arg, ways in ops:
        live = list(ctl.records)
        if op == "admit":
            name = f"w{arg}"
            if name in live:
                continue
            used = {core for rec in ctl.records.values() for core in rec.cores}
            try:
                ctl.admit_workload(name, [min(set(range(NUM_CORES)) - used)], ways)
            except (ValueError, PqosError):
                pass  # did not fit, or the write failed: nothing was admitted
        elif op == "deregister":
            if live:
                ctl.deregister_workload(live[arg % len(live)])
        elif op == "fail":
            pqos.arm(l3ca_failures=L3CA_MAX_RETRIES + 1, assoc_drops=0)
        else:
            sizes = arg if arg is not None else sizes
            plan = {wid: sizes[int(wid[1:])] for wid in live}
            while sum(plan.values()) > NUM_WAYS:
                plan[max(plan, key=lambda w: (plan[w], w))] -= 1
            before = dict(ctl._masks)
            expected = pack_contiguous(plan, NUM_WAYS, previous=before)
            try:
                moved = ctl._apply_plan(plan)
            except PqosError:
                assert ctl._masks == before  # a failed write changes nothing
                continue
            assert moved == expected.moved
            assert ctl._masks == expected.masks
            table = pqos.l3ca_masks()
            for wid, mask in expected.masks.items():
                assert table[ctl.records[wid].cos_id] == mask


def test_deregistration_gap_is_repacked_not_reused():
    ctl, _, _ = build()
    for i, ways in enumerate((3, 4, 5)):
        ctl.admit_workload(f"w{i}", [i], baseline_ways=ways)
    plan = {"w0": 3, "w1": 4, "w2": 5}
    ctl._apply_plan(plan)
    ctl.deregister_workload("w1")  # leaves ways 3..6 unowned
    rest = {"w0": 3, "w2": 5}
    expected = pack_contiguous(rest, NUM_WAYS, previous=dict(ctl._masks))
    assert ctl._apply_plan(rest) == expected.moved == ["w2"]
    assert ctl.mask_of("w2") == expected.masks["w2"] == 0b11111 << 3


def test_unchanged_plan_still_writes_and_reads_back_once(monkeypatch):
    ctl, pqos, pmus = build()
    ctl.register_workload("a", [0, 1], baseline_ways=4)
    ctl.register_workload("b", [2, 3], baseline_ways=4)
    ctl.initialize()
    for _ in range(3):  # settle: both become steady Donors at the minimum
        feed_steady(pmus, range(4))
        ctl.step()
    packs = CountingPack()
    monkeypatch.setattr(controller_mod, "pack_contiguous", packs)
    for _ in range(3):
        feed_steady(pmus, range(4))
        sets, readbacks = pqos.sets, pqos.readbacks
        result = ctl.step()
        assert (pqos.sets - sets, pqos.readbacks - readbacks) == (1, 1)
        assert result.moved_workloads == []
    assert packs.calls == 0  # every one of those intervals reused the layout


def test_armed_l3ca_failure_is_consumed_by_a_reused_write(monkeypatch):
    ctl, faulty, _ = build(FaultyPqosLibrary)
    ctl.admit_workload("a", [0], baseline_ways=4)
    plan = {"a": 4}
    ctl._apply_plan(plan)
    packs = CountingPack()
    monkeypatch.setattr(controller_mod, "pack_contiguous", packs)
    faulty.arm(l3ca_failures=1, assoc_drops=0)
    assert ctl._apply_plan(plan) == []
    assert packs.calls == 0
    assert faulty.failed_writes == 1  # the retry landed after one failure
    faulty.arm(l3ca_failures=0, assoc_drops=0)
    assert faulty.l3ca_masks()[ctl.records["a"].cos_id] == ctl.mask_of("a")


# -- CBM validation memo -----------------------------------------------------


def test_each_distinct_cbm_is_validated_once(monkeypatch):
    import repro.cat.cat as cat_mod

    seen = []

    def counting(mask, num_ways, min_cbm_bits=1):
        seen.append(mask)
        return real(mask, num_ways, min_cbm_bits)

    real = cat_mod.validate_cbm
    monkeypatch.setattr(cat_mod, "validate_cbm", counting)
    cat = CacheAllocationTechnology(num_ways=NUM_WAYS, num_cores=NUM_CORES)
    for _ in range(3):
        cat.set_cos_masks([(1, 0b111), (2, 0b111000), (3, 0b111)])
    assert sorted(seen) == [0b111, 0b111000]
    for _ in range(2):  # a rejected mask is never remembered as valid
        with pytest.raises(ValueError, match="not contiguous"):
            cat.set_cos_masks([(1, 0b101)])
    assert seen.count(0b101) == 2
    assert cat.cos_mask(1) == 0b111


# -- phase signature cache ---------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(1e-9, 4.0), st.just(0.0)),
            st.booleans(),
        ),
        max_size=60,
    ),
    st.floats(0.05, 0.5),
)
def test_current_signature_is_the_reference_signature(observations, threshold):
    det = PhaseDetector(threshold=threshold)
    for refs, idle in observations:
        det.observe(refs, idle=idle)
        ref = det._reference
        expected = (
            PhaseSignature.idle_signature() if ref is None else det.signature_for(ref)
        )
        assert det.current_signature == expected
    det.reset()
    assert det.current_signature == PhaseSignature.idle_signature()


# -- value types -------------------------------------------------------------

VALUES = [
    CounterSample(l1_ref=4, llc_ref=3, llc_miss=1, ret_ins=10, cycles=20),
    Decision(state=WorkloadState.UNKNOWN, target_ways=3, grow_request=1),
    AllocationInput(
        workload_id="a",
        state=WorkloadState.KEEPER,
        target_ways=3,
        grow_request=0,
        baseline_ways=2,
        reclaiming=True,
    ),
    PqosL3Ca(cos_id=2, ways_mask=0b1100),
    WorkloadStatus(
        workload_id="a",
        state=WorkloadState.RECEIVER,
        ways=4,
        ipc=0.5,
        normalized_ipc=1.25,
        llc_miss_rate=0.1,
        phase_changed=False,
    ),
    PhaseSignature(bucket=-7, idle=False),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_immutable_keyword_built_and_picklable(value):
    kind = type(value)
    assert kind(**value._asdict()) == value
    first = kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.extra = 1
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is kind
    assert copy == value and hash(copy) == hash(value)


def test_counter_sample_adds_fieldwise_and_keeps_its_properties():
    a = CounterSample(l1_ref=4, llc_ref=3, llc_miss=1, ret_ins=10, cycles=20)
    b = CounterSample(l1_ref=1, llc_ref=1, llc_miss=1, ret_ins=10, cycles=20)
    total = a + b
    assert total == CounterSample(l1_ref=5, llc_ref=4, llc_miss=2, ret_ins=20, cycles=40)
    assert CounterSample.aggregate([a, b]) == total
    assert (total.ipc, total.llc_miss_rate, total.mem_refs_per_instr) == (
        0.5,
        0.5,
        0.25,
    )
    assert CounterSample().ipc == 0.0
    assert PqosL3Ca(cos_id=1, ways_mask=0b1110).num_ways == 3
