"""Seeded property fuzz of the Allocate Cache step (paper §3.5).

Complements ``test_controller_fuzz.py``: that file drives the whole control
loop through a simulated substrate; this one hammers
:func:`repro.core.allocation.plan_allocation` directly with random way
counts, workload mixes and performance tables, and asserts the §3.5
contract for **every registered allocation strategy**:

* every workload holds at least ``min_ways`` and the plan fits the socket;
* packing the plan yields contiguous, pairwise-exclusive masks that —
  together with the free pool — cover the LLC exactly;
* when the baselines fit the cache, no workload asking for at least its
  baseline is ever planned below it (the reservation guarantee).

A golden pin also replays the pre-registry enum dispatch verbatim and
asserts the ``max_fairness`` / ``max_performance`` strategies remain
byte-identical to it on every fuzzed case.

``derandomize=True`` makes every run replay the same seeded case corpus, so
a failure here reproduces everywhere.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.cat.cos import is_contiguous, mask_way_count
from repro.cat.layout import pack_contiguous
from repro.core.allocation import (
    AllocationInput,
    _enforce_budget,
    _grant_order,
    _rebalance_max_performance,
    plan_allocation,
)
from repro.core.config import DCatConfig
from repro.core.hints import DeclaredPhase, DeclaredSchedule, PhaseHint
from repro.core.perftable import PhaseTable
from repro.core.policies import strategy_names
from repro.core.states import WorkloadState

TOTAL_WAYS = st.integers(min_value=8, max_value=24)

_STATES = [
    WorkloadState.KEEPER,
    WorkloadState.DONOR,
    WorkloadState.RECEIVER,
    WorkloadState.UNKNOWN,
    WorkloadState.STREAMING,
    WorkloadState.RECLAIM,
]

workload_strategy = st.fixed_dictionaries(
    {
        "state": st.sampled_from(_STATES),
        "baseline": st.integers(min_value=1, max_value=4),
        "target": st.integers(min_value=1, max_value=24),
        "grow": st.integers(min_value=0, max_value=4),
        "table_entries": st.one_of(
            st.none(),
            st.dictionaries(
                st.integers(min_value=1, max_value=24),
                st.floats(min_value=0.2, max_value=3.0),
                min_size=1,
                max_size=6,
            ),
        ),
    }
)


def _build_inputs(specs, total_ways):
    """Turn raw strategy dicts into AllocationInputs the controller could emit."""
    inputs = []
    for i, spec in enumerate(specs):
        baseline = min(spec["baseline"], total_ways)
        reclaiming = spec["state"] is WorkloadState.RECLAIM
        # The controller's Reclaim decision always targets the baseline.
        target = baseline if reclaiming else min(spec["target"], total_ways)
        table = None
        if spec["table_entries"] is not None:
            table = PhaseTable(
                baseline_ways=baseline,
                baseline_ipc=1.0,
                entries=dict(spec["table_entries"]),
            )
        inputs.append(
            AllocationInput(
                workload_id=f"w{i}",
                state=spec["state"],
                target_ways=target,
                grow_request=spec["grow"],
                baseline_ways=baseline,
                reclaiming=reclaiming,
                phase_table=table,
            )
        )
    return inputs


def _check_plan(plan, inputs, total_ways, config):
    assert set(plan) == {inp.workload_id for inp in inputs}
    for inp in inputs:
        assert plan[inp.workload_id] >= config.min_ways, (
            f"{inp.workload_id} got {plan[inp.workload_id]} < min_ways"
        )
    assert sum(plan.values()) <= total_ways

    # Reservation guarantee: with feasible baselines, nobody asking for at
    # least its baseline lands below it.
    if sum(inp.baseline_ways for inp in inputs) <= total_ways:
        for inp in inputs:
            if inp.target_ways >= inp.baseline_ways:
                assert plan[inp.workload_id] >= inp.baseline_ways, (
                    f"{inp.workload_id}: planned {plan[inp.workload_id]} "
                    f"below baseline {inp.baseline_ways}"
                )

    # The plan must pack into legal CAT masks: contiguous, exclusive, and —
    # with the free pool — covering every way exactly once.
    layout = pack_contiguous(plan, total_ways)
    union = 0
    for wid, mask in layout.masks.items():
        assert is_contiguous(mask), f"{wid}: non-contiguous mask {mask:#x}"
        assert mask_way_count(mask) == plan[wid]
        assert mask & union == 0, f"{wid}: mask {mask:#x} overlaps"
        union |= mask
    assert union & layout.free_mask == 0
    assert union | layout.free_mask == (1 << total_ways) - 1, (
        "masks plus free pool do not cover the LLC"
    )


@pytest.mark.parametrize("policy", strategy_names())
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    total_ways=TOTAL_WAYS,
    specs=st.lists(workload_strategy, min_size=1, max_size=8),
)
def test_plan_allocation_contract(policy, total_ways, specs):
    config = DCatConfig(policy=policy)
    inputs = _build_inputs(specs, total_ways)
    if len(inputs) * config.min_ways > total_ways:
        with pytest.raises(ValueError):
            plan_allocation(inputs, total_ways, config)
        return
    plan = plan_allocation(inputs, total_ways, config)
    _check_plan(plan, inputs, total_ways, config)


def _legacy_plan_allocation(inputs, total_ways, config, policy):
    """The pre-registry §3.5 dispatch, replayed verbatim as a golden pin.

    Steps 1–3 inline (reclaim, donate, grant) followed by the branch on
    the policy — exactly the body ``plan_allocation`` had before the
    strategy registry existed.
    """
    if len(inputs) * config.min_ways > total_ways:
        raise ValueError("cannot fit minimums")
    plan = {
        inp.workload_id: max(config.min_ways, inp.target_ways) for inp in inputs
    }
    _enforce_budget(plan, inputs, total_ways, config)
    free = total_ways - sum(plan.values())
    for priority_states in _grant_order(config):
        for inp in sorted(inputs, key=lambda i: i.workload_id):
            if free <= 0:
                break
            if inp.state in priority_states and inp.grow_request > 0:
                grant = min(inp.grow_request, free)
                plan[inp.workload_id] += grant
                free -= grant
    if policy == "max_performance":
        _rebalance_max_performance(plan, inputs, total_ways, config)
    return plan


@pytest.mark.parametrize("policy", ["max_fairness", "max_performance"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    total_ways=TOTAL_WAYS,
    specs=st.lists(workload_strategy, min_size=1, max_size=8),
)
def test_legacy_policies_byte_identical(policy, total_ways, specs):
    """Table dispatch reproduces the pre-registry enum paths exactly."""
    config = DCatConfig(policy=policy)
    inputs = _build_inputs(specs, total_ways)
    if len(inputs) * config.min_ways > total_ways:
        return
    assert plan_allocation(inputs, total_ways, config) == (
        _legacy_plan_allocation(inputs, total_ways, config, policy)
    )


hint_strategy = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "preferred": st.integers(min_value=1, max_value=24),
            "declared_refs": st.one_of(
                st.none(), st.floats(min_value=0.05, max_value=1.0)
            ),
            "measured_refs": st.floats(min_value=0.01, max_value=1.5),
        }
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    total_ways=TOTAL_WAYS,
    specs=st.lists(workload_strategy, min_size=1, max_size=8),
    hints=st.lists(hint_strategy, min_size=8, max_size=8),
)
def test_phase_hint_contract_with_hints(total_ways, specs, hints):
    """The hint-guided strategy keeps the §3.5 contract for any hint mix."""
    config = DCatConfig(policy="phase_hint")
    inputs = []
    for inp, hint in zip(_build_inputs(specs, total_ways), hints):
        if hint is not None:
            schedule = DeclaredSchedule(
                phases=(
                    DeclaredPhase(
                        start_s=0.0,
                        preferred_ways=hint["preferred"],
                        refs_per_instr=hint["declared_refs"],
                    ),
                )
            )
            inp = AllocationInput(
                workload_id=inp.workload_id,
                state=inp.state,
                target_ways=inp.target_ways,
                grow_request=inp.grow_request,
                baseline_ways=inp.baseline_ways,
                reclaiming=inp.reclaiming,
                phase_table=inp.phase_table,
                hint=PhaseHint(
                    time_s=1.0,
                    schedule=schedule,
                    measured_refs_per_instr=hint["measured_refs"],
                ),
            )
        inputs.append(inp)
    if len(inputs) * config.min_ways > total_ways:
        return
    plan = plan_allocation(inputs, total_ways, config)
    _check_plan(plan, inputs, total_ways, config)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    total_ways=TOTAL_WAYS,
    specs=st.lists(workload_strategy, min_size=2, max_size=8),
)
def test_oversubscribed_baselines_still_fit_the_socket(total_ways, specs):
    """Even with baselines exceeding the cache, the plan legally packs."""
    config = DCatConfig()
    inputs = [
        AllocationInput(
            workload_id=inp.workload_id,
            state=inp.state,
            target_ways=max(inp.target_ways, inp.baseline_ways * 3),
            grow_request=inp.grow_request,
            baseline_ways=min(inp.baseline_ways * 3, total_ways),
            reclaiming=False,
            phase_table=inp.phase_table,
        )
        for inp in _build_inputs(specs, total_ways)
    ]
    if len(inputs) * config.min_ways > total_ways:
        return
    plan = plan_allocation(inputs, total_ways, config)
    for inp in inputs:
        assert plan[inp.workload_id] >= config.min_ways
    assert sum(plan.values()) <= total_ways
    layout = pack_contiguous(plan, total_ways)
    union = 0
    for mask in layout.masks.values():
        assert is_contiguous(mask)
        assert mask & union == 0
        union |= mask
