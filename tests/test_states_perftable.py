"""Tests for repro.core.states and repro.core.perftable."""

import pytest

from repro.core.perftable import PerformanceTable, PhaseTable
from repro.core.phase import PhaseSignature
from repro.core.states import ALLOWED_TRANSITIONS, WorkloadState, can_transition


class TestStateMachineStructure:
    def test_every_state_has_transitions(self):
        assert set(ALLOWED_TRANSITIONS) == set(WorkloadState)

    def test_can_transition_follows_the_map(self):
        for src, dsts in ALLOWED_TRANSITIONS.items():
            for dst in WorkloadState:
                assert can_transition(src, dst) is (dst in dsts), (src, dst)

    def test_self_loops_always_allowed(self):
        for state in WorkloadState:
            assert can_transition(state, state)

    def test_reclaim_reachable_from_everywhere(self):
        for state in WorkloadState:
            assert can_transition(state, WorkloadState.RECLAIM)

    def test_streaming_only_demotes(self):
        # Paper: streaming is a special Donor; it never becomes a Receiver
        # directly (only a phase change resets it).
        assert not can_transition(WorkloadState.STREAMING, WorkloadState.RECEIVER)
        assert not can_transition(WorkloadState.STREAMING, WorkloadState.UNKNOWN)
        assert can_transition(WorkloadState.STREAMING, WorkloadState.DONOR)

    def test_receiver_comes_only_from_unknown(self):
        sources = [
            s for s in WorkloadState if can_transition(s, WorkloadState.RECEIVER)
        ]
        assert set(sources) == {WorkloadState.UNKNOWN, WorkloadState.RECEIVER}

    def test_keeper_is_start_state_with_exits(self):
        assert can_transition(WorkloadState.KEEPER, WorkloadState.DONOR)
        assert can_transition(WorkloadState.KEEPER, WorkloadState.UNKNOWN)


class TestPhaseTable:
    def test_baseline_normalizes_to_one(self):
        table = PhaseTable(baseline_ways=3)
        table.record_baseline(2.0)
        assert table.normalized(3) == pytest.approx(1.0)

    def test_records_relative_to_baseline(self):
        table = PhaseTable(baseline_ways=3)
        table.record_baseline(2.0)
        table.record(5, 2.6)
        assert table.normalized(5) == pytest.approx(1.3)

    def test_records_before_baseline_dropped(self):
        table = PhaseTable(baseline_ways=3)
        table.record(5, 2.6)
        assert table.normalized(5) is None

    def test_ewma_smooths(self):
        table = PhaseTable(baseline_ways=3, ewma_alpha=0.5)
        table.record_baseline(2.0)
        table.record(5, 3.0)  # 1.5
        table.record(5, 2.0)  # toward 1.0: 1.5 + .5*(1.0-1.5) = 1.25
        assert table.normalized(5) == pytest.approx(1.25)

    def test_preferred_is_smallest_on_plateau(self):
        """Paper Table 1: 6 ways marked preferred when 6/7/8 all plateau."""
        table = PhaseTable(baseline_ways=3)
        table.baseline_ipc = 1.0
        for ways, norm in [(3, 1.0), (4, 1.15), (5, 1.25), (6, 1.3), (7, 1.3), (8, 1.3)]:
            table.entries[ways] = norm
        assert table.preferred_ways() == 6

    def test_preferred_none_when_empty(self):
        assert PhaseTable(baseline_ways=3).preferred_ways() is None

    def test_nonpositive_ipc_ignored(self):
        table = PhaseTable(baseline_ways=3)
        table.record_baseline(0.0)
        assert table.baseline_ipc is None


class TestPerformanceTable:
    def sig(self, bucket=5):
        return PhaseSignature(bucket=bucket)

    def test_phase_created_on_demand(self):
        perf = PerformanceTable(baseline_ways=3)
        table = perf.phase(self.sig())
        assert table.baseline_ways == 3
        assert len(perf) == 1

    def test_same_signature_same_table(self):
        perf = PerformanceTable(baseline_ways=3)
        assert perf.phase(self.sig()) is perf.phase(self.sig())

    def test_known_phase_requires_baseline(self):
        perf = PerformanceTable(baseline_ways=3)
        sig = self.sig()
        perf.phase(sig)
        assert perf.known_phase(sig) is None
        perf.phase(sig).record_baseline(1.5)
        assert perf.known_phase(sig) is not None

    def test_invalidate(self):
        perf = PerformanceTable(baseline_ways=3)
        sig = self.sig()
        perf.phase(sig).record_baseline(1.0)
        perf.invalidate(sig)
        assert perf.known_phase(sig) is None

    def test_distinct_phases_isolated(self):
        perf = PerformanceTable(baseline_ways=3)
        perf.phase(self.sig(1)).record_baseline(1.0)
        assert perf.known_phase(self.sig(2)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceTable(baseline_ways=0)
