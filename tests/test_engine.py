"""Tests for repro.engine: the event bus, sinks, staged loops, and the
events both interval loops publish."""

import io
import json

import pytest

from repro.cat.cat import CacheAllocationTechnology
from repro.cat.pqos import PqosLibrary
from repro.core.config import DCatConfig
from repro.core.controller import DCatController
from repro.engine.events import (
    NULL_BUS,
    AllocationPlanned,
    EventBus,
    IntervalFinished,
    IntervalStarted,
    JsonlTraceWriter,
    MasksProgrammed,
    MetricsSink,
    PhaseChanged,
    RingBufferRecorder,
    SampleCollected,
    StateTransition,
    get_default_bus,
    use_bus,
)
from repro.engine.pipeline import StagedLoop
from repro.hwcounters.events import (
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
)
from repro.hwcounters.msr import CorePmu
from repro.hwcounters.perfmon import PerfMonitor
from repro.mem.address import MB
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager, SharedCacheManager
from repro.platform.sim import CloudSimulation
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mlr import MlrWorkload

CYCLES = 1_000_000


class TestEventBus:
    def test_inactive_until_subscribed(self):
        bus = EventBus()
        assert not bus.active
        unsub = bus.subscribe(lambda e: None)
        assert bus.active
        unsub()
        assert not bus.active

    def test_typed_subscription_filters(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, IntervalStarted)
        bus.emit(IntervalStarted(time_s=0.0, source="sim"))
        bus.emit(IntervalFinished(time_s=0.0, source="sim"))
        assert [type(e).__name__ for e in seen] == ["IntervalStarted"]

    def test_catch_all_sees_everything(self):
        bus = EventBus()
        rec = RingBufferRecorder()
        bus.subscribe(rec)
        bus.emit(IntervalStarted(time_s=0.0, source="sim"))
        bus.emit(IntervalFinished(time_s=0.0, source="sim"))
        assert [type(e).__name__ for e in rec.events] == [
            "IntervalStarted",
            "IntervalFinished",
        ]

    def test_subscribing_after_an_emission_reroutes(self):
        bus = EventBus()
        first, typed, late = [], [], []
        bus.subscribe(first.append)
        bus.subscribe(typed.append, IntervalStarted)
        bus.emit(IntervalStarted(time_s=0.0, source="sim"))
        unsubscribe = bus.subscribe(late.append)
        bus.emit(IntervalStarted(time_s=1.0, source="sim"))
        unsubscribe()
        bus.emit(IntervalStarted(time_s=2.0, source="sim"))
        assert [e.time_s for e in first] == [0.0, 1.0, 2.0]
        assert [e.time_s for e in typed] == [0.0, 1.0, 2.0]
        assert [e.time_s for e in late] == [1.0]

    def test_null_bus_rejects_subscribers(self):
        assert not NULL_BUS.active
        with pytest.raises(TypeError, match="NULL_BUS"):
            NULL_BUS.subscribe(lambda e: None)

    def test_fast_constructor_matches_init(self):
        """Event.fast must be indistinguishable from normal construction."""
        slow = SampleCollected(
            time_s=1.0,
            source="sim",
            workload_id="w",
            ipc=0.5,
            llc_miss_rate=0.4,
            mem_refs_per_instr=0.2,
            instructions=10,
            cycles=20,
            idle=False,
        )
        fast = SampleCollected.fast(
            time_s=1.0,
            source="sim",
            workload_id="w",
            ipc=0.5,
            llc_miss_rate=0.4,
            mem_refs_per_instr=0.2,
            instructions=10,
            cycles=20,
            idle=False,
        )
        assert fast == slow
        assert repr(fast) == repr(slow)
        assert list(vars(fast)) == list(vars(slow))
        with pytest.raises(TypeError):  # every field is required
            SampleCollected.fast(time_s=1.0, source="sim")
        with pytest.raises(Exception):  # still frozen
            fast.ipc = 1.0

    def test_default_bus_scoping(self):
        bus = EventBus()
        assert get_default_bus() is NULL_BUS
        with use_bus(bus):
            assert get_default_bus() is bus
        assert get_default_bus() is NULL_BUS


class TestSinks:
    def test_ring_buffer_capacity_and_filter(self):
        rec = RingBufferRecorder(capacity=2)
        for t in range(3):
            rec(IntervalStarted(time_s=float(t), source="sim"))
        assert len(rec.events) == 2
        assert rec.of_type(IntervalStarted)[0].time_s == 1.0
        rec.clear()
        assert not rec.events

    def test_jsonl_writer_serializes_events(self):
        buf = io.StringIO()
        writer = JsonlTraceWriter(buf)
        writer.mark(experiment_id="x")
        writer(MasksProgrammed(time_s=1.0, masks={"a": 0b11}, moved=("a",)))
        writer.close()
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines[0] == {"event": "Marker", "experiment_id": "x"}
        assert lines[1]["event"] == "MasksProgrammed"
        assert lines[1]["masks"] == {"a": 3}
        assert lines[1]["moved"] == ["a"]

    def test_metrics_sink_counts_and_histograms(self):
        sink = MetricsSink()
        sink(AllocationPlanned(time_s=0.0, plan={"a": 3}, free_ways=2))
        sink(AllocationPlanned(time_s=1.0, plan={"a": 4}, free_ways=6))
        assert sink.counters["AllocationPlanned"] == 2
        hist = sink.histograms["AllocationPlanned.free_ways"]
        assert (hist.count, hist.minimum, hist.maximum) == (2, 2.0, 6.0)
        assert hist.mean == pytest.approx(4.0)


class TestStagedLoop:
    def build(self, log):
        return StagedLoop(
            [
                ("a", lambda ctx: log.append("a")),
                ("b", lambda ctx: log.append("b")),
            ],
            name="test",
        )

    def test_runs_in_order(self):
        log = []
        self.build(log).run(None)
        assert log == ["a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StagedLoop([("a", lambda ctx: None), ("a", lambda ctx: None)])
        stages = [(name, lambda ctx: None) for name in ("a", "b", "c", "b")]
        with pytest.raises(ValueError, match="^sim: duplicate stage name 'b'$"):
            StagedLoop(stages, name="sim")
        loop = self.build([])
        with pytest.raises(ValueError, match="duplicate"):
            loop.insert_before("b", ("a", lambda ctx: None))

    def test_insert_before(self):
        log = []
        loop = self.build(log)
        loop.insert_before("b", ("mid", lambda ctx: log.append("mid")))
        loop.insert_before("a", ("pre", lambda ctx: log.append("pre")))
        assert loop.stage_names == ["pre", "a", "mid", "b"]
        loop.run(None)
        assert log == ["pre", "a", "mid", "b"]
        with pytest.raises(KeyError):
            loop.insert_before("missing", ("x", lambda ctx: None))

    def test_run_a_slice_of_the_stages(self):
        log = []
        loop = StagedLoop(
            [(name, lambda ctx, name=name: log.append(name)) for name in "abc"]
        )
        split = loop.index("b")
        loop.run(None, stop=split)
        assert log == ["a"]
        loop.run(None, start=split)
        assert log == ["a", "b", "c"]
        with pytest.raises(KeyError):
            loop.index("missing")

    def test_wrapping_a_stage_for_instrumentation(self):
        # The profiler slot wraps every stage; a live loop takes an observer
        # by plain assignment, and each sample follows its stage's run.
        log, seen = [], []

        class Recorder:
            def observe(self, loop, stage, elapsed_s):
                seen.append((loop, stage, log[-1]))

        loop = self.build(log)
        loop.profiler = Recorder()
        loop.run(None)
        assert seen == [("test", "a", "a"), ("test", "b", "b")]


def controller_rig(bus):
    """A two-workload controller over hand-driven PMUs, wired to ``bus``."""
    cat = CacheAllocationTechnology(num_ways=20, num_cores=8)
    pmus = {c: CorePmu() for c in range(8)}
    controller = DCatController(
        pqos=PqosLibrary(cat, way_size_bytes=2359296),
        perfmon=PerfMonitor(pmus),
        config=DCatConfig(),
        nominal_cycles_per_core=CYCLES,
        bus=bus,
    )
    controller.register_workload("hungry", [0, 1], baseline_ways=3)
    controller.register_workload("quiet", [2, 3], baseline_ways=3)
    controller.initialize()
    return controller, pmus


def feed(pmus, core, refs_per_instr=0.25, miss_rate=0.5, ipc=0.5):
    instructions = int(CYCLES * ipc)
    l1_ref = int(instructions * refs_per_instr)
    llc_ref = int(instructions * 0.1)
    pmus[core].advance(
        instructions,
        CYCLES,
        {
            L1_CACHE_HITS: l1_ref - llc_ref,
            L1_CACHE_MISSES: llc_ref,
            LLC_REFERENCES: llc_ref,
            LLC_MISSES: int(llc_ref * miss_rate),
        },
    )


class TestControllerEvents:
    def test_stage_names_follow_fig4(self):
        controller, _ = controller_rig(EventBus())
        assert controller.loop.stage_names == [
            "collect",
            "detect_phase",
            "get_baseline",
            "categorize",
            "allocate",
            "commit",
        ]

    def test_full_event_sequence_for_one_interval(self):
        """A subscriber observes collect -> ... -> commit for one interval."""
        bus = EventBus()
        rec = RingBufferRecorder()
        bus.subscribe(rec)
        controller, pmus = controller_rig(bus)
        rec.clear()  # drop initialize()'s MasksProgrammed
        for core in range(4):
            feed(pmus, core)
        controller.step()

        names = [type(e).__name__ for e in rec.events]
        assert names[0] == "IntervalStarted"
        assert names[-1] == "IntervalFinished"
        assert names.count("SampleCollected") == 2  # one per workload
        # Stage order: samples before the plan, plan before the masks.
        assert names.index("SampleCollected") < names.index("AllocationPlanned")
        assert names.index("AllocationPlanned") < names.index("MasksProgrammed")
        samples = rec.of_type(SampleCollected)
        assert {s.workload_id for s in samples} == {"hungry", "quiet"}
        assert all(s.source == "controller" for s in samples)

    def test_phase_change_and_state_transition_events(self):
        bus = EventBus()
        rec = RingBufferRecorder()
        bus.subscribe(rec)
        controller, pmus = controller_rig(bus)
        for _ in range(2):  # establish the phase
            for core in range(4):
                feed(pmus, core)
            controller.step()
        rec.clear()
        for core in range(4):
            feed(pmus, core, refs_per_instr=0.15)  # new signature, -40%
        controller.step()
        changed = rec.of_type(PhaseChanged)
        assert {e.workload_id for e in changed} == {"hungry", "quiet"}
        transitions = rec.of_type(StateTransition)
        assert all(e.new_state == "reclaim" for e in transitions)

    def test_null_bus_emits_nothing_and_still_controls(self):
        controller, pmus = controller_rig(NULL_BUS)
        for core in range(4):
            feed(pmus, core)
        result = controller.step()
        assert set(result.statuses) == {"hungry", "quiet"}


class TestSimulationEvents:
    def make_sim(self, bus, manager=None):
        machine = Machine(seed=3, cycles_per_interval=500_000)
        vms = pin_vms(
            [
                VirtualMachine("mlr", MlrWorkload(4 * MB, name="mlr"), baseline_ways=3),
                VirtualMachine("busy", LookbusyWorkload(name="busy"), baseline_ways=3),
            ],
            machine.spec,
        )
        return CloudSimulation(machine, vms, manager or DCatManager(), bus=bus)

    def test_stage_names(self):
        sim = self.make_sim(EventBus())
        assert sim.loop.stage_names == [
            "resolve_hit_rates",
            "execute_cores",
            "feed_pmus",
            "record",
            "advance",
            "control",
            "update_dram",
        ]

    def test_sim_and_controller_share_the_bus(self):
        """One sim interval nests the controller's interval on the same bus."""
        bus = EventBus()
        rec = RingBufferRecorder()
        bus.subscribe(rec)
        sim = self.make_sim(bus)
        rec.clear()
        sim.step()
        starts = [e for e in rec.of_type(IntervalStarted)]
        assert [s.source for s in starts] == ["sim", "controller"]
        sim_samples = [
            e for e in rec.of_type(SampleCollected) if e.source == "sim"
        ]
        assert {e.workload_id for e in sim_samples} == {"mlr", "busy"}
        # The controller's interval is nested inside the sim's.
        names_sources = [
            (type(e).__name__, getattr(e, "source", None)) for e in rec.events
        ]
        assert names_sources.index(("IntervalFinished", "controller")) < (
            names_sources.index(("IntervalFinished", "sim"))
        )

    def test_shared_manager_emits_sim_events_only(self):
        bus = EventBus()
        rec = RingBufferRecorder()
        bus.subscribe(rec)
        sim = self.make_sim(bus, manager=SharedCacheManager())
        sim.step()
        assert all(getattr(e, "source", "sim") == "sim" for e in rec.events)

    def test_bus_off_produces_identical_timelines(self):
        """Event emission must not perturb the simulation itself."""
        quiet = self.make_sim(NULL_BUS)
        quiet.run(5.0)
        bus = EventBus()
        bus.subscribe(RingBufferRecorder())
        loud = self.make_sim(bus)
        loud.run(5.0)
        assert repr(quiet.result.records) == repr(loud.result.records)
