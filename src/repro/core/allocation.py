"""The Allocate Cache step (paper §3.5): pool arbitration and policies.

Inputs are the per-workload :class:`~repro.core.classifier.Decision`
targets; output is a concrete ``{workload: ways}`` plan that always sums to
at most the socket's ways.  The ordering the paper prescribes:

1. **Reclaim first** — a workload returning to baseline after a phase change
   has absolute priority; if the pool cannot cover it, ways are taken back
   from workloads holding more than their baseline.
2. **Donations** — Donor / Streaming shrink targets free ways into the pool.
3. **Grants** — Unknown workloads are served before Receivers (so streaming
   suspects are resolved quickly), one ``grow_step`` way per round.
4. Under the **max-performance** policy, once the pool cannot satisfy every
   grower, the plan is re-balanced by a dynamic program over the growers'
   performance tables: maximize the sum of normalized IPCs subject to the
   way budget, never dropping anyone below baseline (the §3.5 worked
   example with workloads A, B and C).

Steps 1–3 are exposed as :func:`base_plan`; step 4 is one of several
pluggable objectives.  :func:`plan_allocation` dispatches through the
:mod:`repro.core.policies` strategy registry, where the two §3.5
objectives are registered alongside LFOC-style clustering, declared
phase-hint apportioning and Memshare-style reserved+pooled harvesting.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import DCatConfig
from repro.core.hints import PhaseHint
from repro.core.perftable import PhaseTable
from repro.core.states import WorkloadState

__all__ = ["AllocationInput", "base_plan", "plan_allocation", "optimize_way_split"]


class AllocationInput(NamedTuple):
    """One workload's inputs to the allocation round."""

    workload_id: str
    state: WorkloadState
    target_ways: int
    grow_request: int
    baseline_ways: int
    reclaiming: bool = False
    phase_table: Optional[PhaseTable] = None
    hint: Optional[PhaseHint] = None


def plan_allocation(
    inputs: Sequence[AllocationInput],
    total_ways: int,
    config: DCatConfig,
) -> Dict[str, int]:
    """Produce the next ``{workload: ways}`` plan.

    Dispatches to the :class:`~repro.core.policies.AllocationStrategy`
    named by ``config.policy``; ``max_fairness`` and ``max_performance``
    reproduce the pre-registry behaviour byte for byte.

    Raises:
        ValueError: If even the guaranteed minimums cannot fit (more
            workloads than ways — a deployment error dCat cannot fix).
    """
    if len(inputs) * config.min_ways > total_ways:
        raise ValueError(
            f"{len(inputs)} workloads cannot each hold {config.min_ways} way(s) "
            f"of a {total_ways}-way cache"
        )
    plan = policies.get_strategy(config.policy).plan(inputs, total_ways, config)
    assert sum(plan.values()) <= total_ways
    return plan


def base_plan(
    inputs: Sequence[AllocationInput],
    total_ways: int,
    config: DCatConfig,
) -> Dict[str, int]:
    """Steps 1–3 of §3.5, shared by every strategy: reclaim, donate, grant.

    Returns a plan where every workload holds at least ``min_ways``, the
    budget fits the socket, and — when baselines are feasible — nobody
    asking for at least its baseline sits below it.  Strategies refine this
    plan without weakening those invariants.
    """
    plan: Dict[str, int] = {
        inp.workload_id: max(config.min_ways, inp.target_ways) for inp in inputs
    }

    # -- step 1: make room for reclaims --------------------------------------
    _enforce_budget(plan, inputs, total_ways, config)

    # -- step 2/3: grant from the pool, Unknown before Receiver ---------------
    free = total_ways - sum(plan.values())
    by_id = sorted(inputs, key=attrgetter("workload_id"))
    for priority_states in _grant_order(config):
        for inp in by_id:
            if free <= 0:
                break
            if inp.grow_request > 0 and inp.state in priority_states:
                grant = min(inp.grow_request, free)
                plan[inp.workload_id] += grant
                free -= grant

    return plan


#: Grant rounds, in order: Unknown before Receiver, or both in one round.
#: Tuples, not sets: membership in a tuple tests identity first, while a set
#: runs the Python-level ``Enum.__hash__`` on every lookup.
_UNKNOWN_FIRST = ((WorkloadState.UNKNOWN,), (WorkloadState.RECEIVER,))
_ONE_ROUND = ((WorkloadState.UNKNOWN, WorkloadState.RECEIVER),)


def _grant_order(config: DCatConfig) -> Tuple[Tuple[WorkloadState, ...], ...]:
    return _UNKNOWN_FIRST if config.unknown_priority else _ONE_ROUND


def _enforce_budget(
    plan: Dict[str, int],
    inputs: Sequence[AllocationInput],
    total_ways: int,
    config: DCatConfig,
) -> None:
    """Shrink over-baseline holders until the plan fits the socket.

    Reclaiming workloads' baselines are sacred; everyone else is reduced
    toward baseline, largest surplus first, then — if it still does not fit —
    non-reclaiming workloads are reduced toward the minimum, which can only
    happen when baselines oversubscribe the cache (the operator's choice).
    """
    by_id = {inp.workload_id: inp for inp in inputs}

    def overshoot() -> int:
        return sum(plan.values()) - total_ways

    while overshoot() > 0:
        # Candidates holding more than baseline, not currently reclaiming.
        candidates = [
            wid
            for wid, ways in plan.items()
            if ways > by_id[wid].baseline_ways and not by_id[wid].reclaiming
        ]
        if candidates:
            victim = max(
                candidates, key=lambda w: (plan[w] - by_id[w].baseline_ways, w)
            )
            plan[victim] -= 1
            continue
        # Oversubscribed baselines: shave the largest non-reclaiming holder.
        fallback = [
            wid
            for wid, ways in plan.items()
            if ways > config.min_ways and not by_id[wid].reclaiming
        ]
        if not fallback:
            fallback = [
                wid for wid, ways in plan.items() if ways > config.min_ways
            ]
        if not fallback:
            raise ValueError("cannot fit even minimum allocations")
        victim = max(fallback, key=lambda w: (plan[w], w))
        plan[victim] -= 1


def _rebalance_max_performance(
    plan: Dict[str, int],
    inputs: Sequence[AllocationInput],
    total_ways: int,
    config: DCatConfig,
) -> None:
    """Re-split the flexible capacity to maximize total normalized IPC.

    Only workloads with a usable phase table participate; their combined
    budget (current plan shares plus any remaining free ways) is re-divided
    by :func:`optimize_way_split`.  To keep actuation gentle (the paper
    moves one way per round), each participant moves at most one way toward
    its optimal share per control round.
    """
    participants = [
        inp
        for inp in inputs
        if inp.phase_table is not None
        and len(inp.phase_table.entries) >= 2
        and inp.state
        in (WorkloadState.RECEIVER, WorkloadState.UNKNOWN, WorkloadState.KEEPER)
    ]
    if len(participants) < 2:
        return
    free = total_ways - sum(plan.values())
    budget = free + sum(plan[p.workload_id] for p in participants)
    optimal = optimize_way_split(
        {p.workload_id: p.phase_table for p in participants},
        budget=budget,
        baselines={p.workload_id: p.baseline_ways for p in participants},
        min_ways=config.min_ways,
        growing={
            p.workload_id
            for p in participants
            if p.state in (WorkloadState.RECEIVER, WorkloadState.UNKNOWN)
        },
    )
    if not optimal:
        return
    for p in participants:
        wid = p.workload_id
        want = optimal.get(wid, plan[wid])
        if want > plan[wid]:
            plan[wid] += 1
        elif want < plan[wid]:
            plan[wid] -= 1


def _table_options(
    table: PhaseTable, baseline: int, min_ways: int, extend: int = 0
) -> Dict[int, float]:
    """Candidate (ways -> normalized IPC) choices for the DP.

    Uses the recorded entries at or above the guarantee floor.  For
    workloads still growing (``extend=1``), a mild linear extrapolation one
    step beyond the largest recorded allocation lets the DP consider
    untried sizes; settled Keepers get recorded entries only, so the
    rebalancer cannot creep them past their growth stop.
    """
    floor = max(min_ways, baseline)
    options = {w: n for w, n in table.entries.items() if w >= floor}
    if not options:
        options[floor] = 1.0
    top = max(options)
    if extend > 0 and top - 1 in options:
        slope = max(0.0, options[top] - options[top - 1])
        options[top + extend] = options[top] + 0.8 * slope * extend
    return options


def optimize_way_split(
    tables: Mapping[str, PhaseTable],
    budget: int,
    baselines: Mapping[str, int],
    min_ways: int = 1,
    growing: Optional[set] = None,
) -> Optional[Dict[str, int]]:
    """Maximize the sum of normalized IPCs subject to a way budget.

    The paper's formulation: find ``Max(sum_i norm_IPC_i)`` such that
    ``sum_i ways_i <= m``, searching each workload's performance table.
    Solved as a grouped knapsack DP over the workloads' candidate entries.

    Args:
        growing: Workload ids still in a growth state; only these get the
            one-step extrapolation beyond their recorded entries.

    Returns None when the budget cannot cover every participant's floor.
    """
    wids = sorted(tables)
    floors = {w: max(min_ways, baselines.get(w, min_ways)) for w in wids}
    if sum(floors.values()) > budget:
        return None

    grow_set = growing if growing is not None else set(wids)
    options = {
        w: _table_options(
            tables[w], floors[w], min_ways, extend=1 if w in grow_set else 0
        )
        for w in wids
    }

    # dp[b] = (best total normIPC, chosen ways per wid) using budget b.
    NEG = float("-inf")
    dp: List[float] = [NEG] * (budget + 1)
    choice: List[Optional[Dict[str, int]]] = [None] * (budget + 1)
    dp[0] = 0.0
    choice[0] = {}
    for wid in wids:
        ndp: List[float] = [NEG] * (budget + 1)
        nchoice: List[Optional[Dict[str, int]]] = [None] * (budget + 1)
        for b in range(budget + 1):
            if dp[b] == NEG:
                continue
            for ways, norm in options[wid].items():
                nb = b + ways
                if nb > budget:
                    continue
                val = dp[b] + norm
                if val > ndp[nb]:
                    ndp[nb] = val
                    picked = dict(choice[b])
                    picked[wid] = ways
                    nchoice[nb] = picked
        dp, choice = ndp, nchoice

    best_b = max(range(budget + 1), key=lambda b: dp[b])
    if dp[best_b] == NEG:
        return None
    return choice[best_b]


# Bound last: policies builds on base_plan, so the two modules import each
# other, and only a module reference resolves in either import order.
from repro.core import policies  # noqa: E402
