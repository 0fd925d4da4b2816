"""Tests for repro.core.allocation: pool arbitration and the way-split DP."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationInput,
    optimize_way_split,
    plan_allocation,
)
from repro.core.config import DCatConfig
from repro.core.perftable import PhaseTable
from repro.core.states import WorkloadState


CFG = DCatConfig()


def inp(wid, state=WorkloadState.KEEPER, target=3, grow=0, baseline=3,
        reclaiming=False, table=None):
    return AllocationInput(
        workload_id=wid,
        state=state,
        target_ways=target,
        grow_request=grow,
        baseline_ways=baseline,
        reclaiming=reclaiming,
        phase_table=table,
    )


def table_of(baseline, entries):
    t = PhaseTable(baseline_ways=baseline)
    t.baseline_ipc = 1.0
    t.entries.update(entries)
    return t


class TestBudget:
    def test_plan_fits_socket(self):
        plan = plan_allocation([inp("a", target=10), inp("b", target=15)], 20, CFG)
        assert sum(plan.values()) <= 20

    def test_everyone_gets_at_least_min(self):
        plan = plan_allocation(
            [inp(f"w{i}", target=1) for i in range(10)], 20, CFG
        )
        assert all(v >= 1 for v in plan.values())

    def test_too_many_workloads_rejected(self):
        with pytest.raises(ValueError, match="cannot each hold"):
            plan_allocation([inp(f"w{i}") for i in range(21)], 20, CFG)

    def test_oversubscribed_baselines_shaved(self):
        # 7 VMs x 3-way baselines on a 20-way cache (the paper's Fig. 15
        # stage is exactly this shape).
        inputs = [inp(f"w{i}", target=3, baseline=3) for i in range(7)]
        plan = plan_allocation(inputs, 20, CFG)
        assert sum(plan.values()) <= 20
        assert all(v >= 1 for v in plan.values())


class TestReclaimPriority:
    def test_reclaimer_kept_whole_others_shaved(self):
        inputs = [
            inp("reclaimer", target=6, baseline=6, reclaiming=True),
            inp("fat", target=12, baseline=3),
            inp("donor", target=2, baseline=3),
        ]
        plan = plan_allocation(inputs, 16, CFG)
        assert plan["reclaimer"] == 6
        assert plan["fat"] < 12  # surplus over baseline taken back
        assert sum(plan.values()) <= 16

    def test_largest_surplus_shaved_first(self):
        inputs = [
            inp("reclaimer", target=4, baseline=4, reclaiming=True),
            inp("big", target=10, baseline=3),
            inp("small", target=4, baseline=3),
        ]
        plan = plan_allocation(inputs, 16, CFG)
        assert plan["reclaimer"] == 4
        # "big" had the larger surplus; it loses the ways.
        assert plan["big"] == 8
        assert plan["small"] == 4


class TestGrants:
    def test_grow_requests_served_from_pool(self):
        inputs = [
            inp("grower", state=WorkloadState.RECEIVER, target=4, grow=1),
            inp("idle", state=WorkloadState.DONOR, target=1),
        ]
        plan = plan_allocation(inputs, 8, CFG)
        assert plan["grower"] == 5

    def test_unknown_served_before_receiver(self):
        # Only one free way; the Unknown must get it (paper §3.5).
        inputs = [
            inp("receiver", state=WorkloadState.RECEIVER, target=9, grow=1),
            inp("unknown", state=WorkloadState.UNKNOWN, target=10, grow=1),
        ]
        plan = plan_allocation(inputs, 20, CFG)
        assert plan["unknown"] == 11
        assert plan["receiver"] == 9

    def test_priority_disabled_merges_classes(self):
        config = DCatConfig(unknown_priority=False)
        inputs = [
            inp("a-receiver", state=WorkloadState.RECEIVER, target=9, grow=1),
            inp("z-unknown", state=WorkloadState.UNKNOWN, target=10, grow=1),
        ]
        plan = plan_allocation(inputs, 20, config)
        # Single merged class, served in name order: the receiver wins.
        assert plan["a-receiver"] == 10
        assert plan["z-unknown"] == 10

    def test_no_grant_without_free_ways(self):
        inputs = [
            inp("grower", state=WorkloadState.UNKNOWN, target=10, grow=1),
            inp("holder", target=10, baseline=10),
        ]
        plan = plan_allocation(inputs, 20, CFG)
        assert plan["grower"] == 10


class TestMaxPerformanceRebalance:
    def test_moves_way_toward_better_user(self):
        config = DCatConfig(policy="max_performance")
        flat = table_of(3, {3: 1.0, 7: 1.05, 8: 1.05})
        steep = table_of(3, {3: 1.0, 7: 1.5, 8: 1.7})
        inputs = [
            inp("flat", state=WorkloadState.RECEIVER, target=8, grow=0, table=flat),
            inp("steep", state=WorkloadState.RECEIVER, target=8, grow=0, table=steep),
        ]
        plan = plan_allocation(inputs, 16, config)
        assert plan["steep"] == 9
        assert plan["flat"] == 7

    def test_moves_at_most_one_way_per_round(self):
        config = DCatConfig(policy="max_performance")
        flat = table_of(3, {3: 1.0, 4: 1.0, 8: 1.0})
        steep = table_of(3, {3: 1.0, 8: 2.0, 12: 3.0})
        inputs = [
            inp("flat", state=WorkloadState.KEEPER, target=8, table=flat),
            inp("steep", state=WorkloadState.KEEPER, target=8, table=steep),
        ]
        plan = plan_allocation(inputs, 16, config)
        assert plan["flat"] == 7 and plan["steep"] == 9


class TestOptimizeWaySplit:
    def test_paper_worked_example(self):
        """§3.5: A and B share 8 ways; (A=3, B=5) maximizes the sum."""
        a = table_of(2, {2: 1.0, 3: 1.05, 4: 1.08, 5: 1.12})
        b = table_of(2, {2: 1.0, 3: 1.1, 4: 1.2, 5: 1.25})
        split = optimize_way_split(
            {"a": a, "b": b}, budget=8, baselines={"a": 2, "b": 2}
        )
        assert split == {"a": 3, "b": 5}

    def test_respects_baseline_floor(self):
        a = table_of(3, {3: 1.0, 6: 1.6})
        b = table_of(3, {3: 1.0, 6: 1.1})
        split = optimize_way_split({"a": a, "b": b}, 9, {"a": 3, "b": 3})
        assert split["b"] >= 3

    def test_infeasible_budget_returns_none(self):
        a = table_of(3, {3: 1.0})
        assert optimize_way_split({"a": a, "a2": a}, 4, {"a": 3, "a2": 3}) is None

    @settings(max_examples=25, deadline=None)
    @given(
        entries_a=st.dictionaries(
            st.integers(min_value=2, max_value=6),
            st.floats(min_value=0.5, max_value=3.0),
            min_size=2,
            max_size=5,
        ),
        entries_b=st.dictionaries(
            st.integers(min_value=2, max_value=6),
            st.floats(min_value=0.5, max_value=3.0),
            min_size=2,
            max_size=5,
        ),
        budget=st.integers(min_value=4, max_value=12),
    )
    def test_dp_matches_brute_force(self, entries_a, entries_b, budget):
        """The DP finds the true optimum over the candidate grid."""
        from repro.core.allocation import _table_options

        a = table_of(2, entries_a)
        b = table_of(2, entries_b)
        split = optimize_way_split({"a": a, "b": b}, budget, {"a": 2, "b": 2})

        # optimize_way_split defaults to treating every workload as still
        # growing, so mirror that with extend=1 here.
        opts_a = _table_options(a, 2, 1, extend=1)
        opts_b = _table_options(b, 2, 1, extend=1)
        feasible = [
            (na + nb, wa, wb)
            for wa, na in opts_a.items()
            for wb, nb in opts_b.items()
            if wa + wb <= budget
        ]
        if not feasible:
            assert split is None
            return
        best = max(v for v, _, _ in feasible)
        got = opts_a[split["a"]] + opts_b[split["b"]]
        assert got == pytest.approx(best)
