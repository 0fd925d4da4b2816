"""Pluggable allocation strategies: the objectives behind Allocate Cache.

The paper ships two §3.5 objectives — max-fairness and max-performance —
but its setting (IaaS under churn) invites more.  This module promotes the
objective to a first-class :class:`AllocationStrategy` in a fixed table
keyed by name, so :func:`~repro.core.allocation.plan_allocation`
dispatches on ``DCatConfig.policy``, always a name of that table.  Five
strategies ship:

* ``max_fairness`` — steps 1–3 only (reclaim/donate/grant); the paper's
  default, byte-identical to the pre-registry behaviour.
* ``max_performance`` — steps 1–3 plus the grouped-knapsack rebalance of
  §3.5's worked example; byte-identical to the pre-registry behaviour.
* ``lfoc_clustering`` — LFOC-style: score each workload's miss-curve
  curvature from its learned performance table, squeeze flat-curved
  squanderers (streamers, donors, insensitive tenants) to their protected
  floors, and split the harvested ways across the cache-sensitive cluster
  in proportion to curvature.
* ``phase_hint`` — Com-CAS-style: workloads may carry a declared phase
  schedule (:class:`~repro.core.hints.DeclaredSchedule`); when the
  declared signature matches the measured counters (trust-but-verify),
  the strategy steers the allocation straight to the declared phase's
  preferred ways instead of waiting on the detector.
* ``reserved_pooled`` — Memshare-style: every tenant keeps a reserved
  floor; the remaining pooled region is granted one way at a time to
  whichever tenant's performance table shows the highest marginal gain.

Every strategy starts from :func:`~repro.core.allocation.base_plan` and
only moves capacity *between* protected floors and the pool, so the §3.5
contract (min-ways, socket budget, baseline guarantee when feasible)
holds for all of them — the allocation fuzz suite pins this per strategy.

A config built without a policy takes the current
:class:`~repro.engine.context.RunContext`'s — the route ``dcat-experiment
run --policy`` takes into registry experiments.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Type

from repro.core.allocation import (
    AllocationInput,
    _rebalance_max_performance,
    base_plan,
)
from repro.core.config import DCatConfig
from repro.core.perftable import PhaseTable
from repro.core.states import WorkloadState
from repro.engine.context import current_context

__all__ = [
    "AllocationStrategy",
    "MaxFairnessStrategy",
    "MaxPerformanceStrategy",
    "LfocClusteringStrategy",
    "PhaseHintStrategy",
    "ReservedPooledStrategy",
    "strategy_names",
    "canonical_name",
    "normalize_policy",
    "get_strategy",
    "protected_floors",
    "fit_to_budget",
    "curvature_score",
]


class AllocationStrategy(abc.ABC):
    """One allocation objective: turns §3.5 inputs into a ways plan.

    Subclasses must preserve the base-plan invariants: every workload at
    least ``config.min_ways``, the sum within ``total_ways``, and the
    baseline guarantee whenever baselines fit the socket.  Starting from
    :func:`~repro.core.allocation.base_plan` and never dropping anyone
    below :func:`protected_floors` is the easy way to comply.
    """

    #: Table key; also what scenario files and ``--policy`` accept.
    name: str = "strategy"

    @abc.abstractmethod
    def plan(
        self,
        inputs: Sequence[AllocationInput],
        total_ways: int,
        config: DCatConfig,
    ) -> Dict[str, int]:
        """The next ``{workload: ways}`` plan for this interval."""


# -- invariant-safe helpers ----------------------------------------------------


def protected_floors(
    plan: Mapping[str, int],
    inputs: Sequence[AllocationInput],
    config: DCatConfig,
) -> Dict[str, int]:
    """Per-workload floors below which no strategy may squeeze anyone.

    The floor is the baseline for workloads entitled to it this interval
    (reclaiming, or targeting at least their baseline), ``min_ways``
    otherwise — capped at the base plan's value so a strategy that holds
    everyone at or above these floors, within the total budget, keeps
    every base-plan invariant.
    """
    floors: Dict[str, int] = {}
    for inp in inputs:
        keep = config.min_ways
        if inp.reclaiming or inp.target_ways >= inp.baseline_ways:
            keep = max(keep, inp.baseline_ways)
        floors[inp.workload_id] = min(plan[inp.workload_id], keep)
    return floors


def fit_to_budget(
    floors: Mapping[str, int],
    desires: Mapping[str, int],
    total_ways: int,
) -> Dict[str, int]:
    """Grow every workload from its floor toward its desire, fairly.

    One way per workload per round, in sorted-id order, until the budget
    runs out or every desire is met — so a shortage is shared instead of
    starving whoever sorts last.
    """
    plan = dict(floors)
    budget = total_ways - sum(plan.values())
    progress = True
    while budget > 0 and progress:
        progress = False
        for wid in sorted(plan):
            if budget <= 0:
                break
            if plan[wid] < desires.get(wid, plan[wid]):
                plan[wid] += 1
                budget -= 1
                progress = True
    return plan


def _apportion(budget: int, weights: Mapping[str, float]) -> Dict[str, int]:
    """Split ``budget`` integer ways proportionally to positive weights.

    Largest-remainder rounding with a deterministic (remainder, id)
    tiebreak, so equal inputs always split the same way.
    """
    total_w = sum(weights.values())
    if budget <= 0 or total_w <= 0:
        return {wid: 0 for wid in weights}
    shares = {wid: budget * w / total_w for wid, w in weights.items()}
    granted = {wid: int(share) for wid, share in shares.items()}
    left = budget - sum(granted.values())
    order = sorted(weights, key=lambda wid: (-(shares[wid] - granted[wid]), wid))
    for wid in order[:left]:
        granted[wid] += 1
    return granted


def curvature_score(
    value_of: Callable[[int], float], floor: int, ceiling: int
) -> float:
    """Mean per-way gain of a ways->value curve between floor and ceiling.

    The LFOC-style sensitivity figure both layers use: placement evaluates
    the analytical hit-rate curve between a tenant's reservation and the
    full LLC; the LFOC allocation strategy evaluates a learned performance
    table between its smallest and largest recorded allocations.  A curve
    that is flat past its floor (a streaming scan, or a working set already
    resident) scores ~0 — exactly the workloads that can be packed tightly
    without hurting anyone.

    Args:
        value_of: The curve (hit rate, normalized IPC, ...) as a function
            of the way count; only evaluated at ``floor`` and ``ceiling``.
        floor: The allocation the workload already holds (or is owed).
        ceiling: The largest allocation worth considering.

    Returns:
        ``max(0, value_of(ceiling) - value_of(floor)) / (ceiling - floor)``,
        or 0.0 when ``ceiling <= floor`` (no headroom to score).
    """
    if ceiling <= floor:
        return 0.0
    gain = value_of(ceiling) - value_of(floor)
    return max(0.0, gain) / (ceiling - floor)


def _table_curvature(table: Optional[PhaseTable]) -> Optional[float]:
    """Per-way normalized-IPC slope across a table's recorded range.

    None when the table has fewer than two entries (curvature unknown).
    """
    if table is None or len(table.entries) < 2:
        return None
    ways = sorted(table.entries)
    lo, hi = ways[0], ways[-1]
    return curvature_score(lambda w: table.entries[w], lo, hi)


def _interp(points: Sequence[tuple], ways: float) -> float:
    """Piecewise-linear read of sorted ``(ways, value)`` points.

    Flat beyond both ends, so marginal gains vanish outside the measured
    range and greedy harvesting terminates.
    """
    if ways <= points[0][0]:
        return points[0][1]
    if ways >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= ways <= x1:
            if x1 == x0:
                return y1
            return y0 + (y1 - y0) * (ways - x0) / (x1 - x0)
    return points[-1][1]


# -- the five shipped strategies -----------------------------------------------


class MaxFairnessStrategy(AllocationStrategy):
    """Paper §3.5 max-fairness: reclaim, donate, grant — nothing more."""

    name = "max_fairness"

    def plan(self, inputs, total_ways, config):
        return base_plan(inputs, total_ways, config)


class MaxPerformanceStrategy(AllocationStrategy):
    """Paper §3.5 max-performance: the grouped-knapsack rebalance."""

    name = "max_performance"

    def plan(self, inputs, total_ways, config):
        plan = base_plan(inputs, total_ways, config)
        _rebalance_max_performance(plan, inputs, total_ways, config)
        return plan


class LfocClusteringStrategy(AllocationStrategy):
    """LFOC-style clustering by miss-curve curvature.

    Workloads split into a *sensitive* cluster (steep learned curve, in an
    isolating state) and a *squanderer* cluster (streamers, donors, and
    tenants whose learned curve is measurably flat).  Squanderers drop to
    their protected floors; the harvested ways plus the free pool go to
    the sensitive cluster in proportion to curvature.  Workloads whose
    curvature is still unknown (fresh phases, short tables) keep their
    base-plan allocation — the probing that builds their tables must not
    be starved.

    Args:
        threshold: Normalized-IPC gain per way below which a *measured*
            curve counts as flat (default 1%/way, matching the placement
            layer's sensitivity threshold).
    """

    name = "lfoc_clustering"

    _SQUANDER_STATES = (WorkloadState.STREAMING, WorkloadState.DONOR)

    def __init__(self, threshold: float = 0.01) -> None:
        if threshold < 0:
            raise ValueError("threshold cannot be negative")
        self.threshold = threshold

    def plan(self, inputs, total_ways, config):
        plan = base_plan(inputs, total_ways, config)
        floors = protected_floors(plan, inputs, config)
        sensitive: Dict[str, float] = {}
        squanderers: List[str] = []
        for inp in inputs:
            curvature = _table_curvature(inp.phase_table)
            if inp.state in self._SQUANDER_STATES:
                squanderers.append(inp.workload_id)
            elif curvature is None:
                continue  # unknown curve: leave the base plan alone
            elif curvature >= self.threshold:
                sensitive[inp.workload_id] = curvature
            else:
                squanderers.append(inp.workload_id)
        if not sensitive:
            return plan
        for wid in squanderers:
            plan[wid] = floors[wid]
        pool = total_ways - sum(plan.values())
        for wid, extra in _apportion(pool, sensitive).items():
            plan[wid] += extra
        return plan


class PhaseHintStrategy(AllocationStrategy):
    """Declared-phase apportioning with a trust-but-verify fallback.

    Workloads carrying a :class:`~repro.core.hints.PhaseHint` whose active
    declared phase matches the measured counters are steered straight to
    the declared ``preferred_ways`` (never below their protected floor);
    everyone else — including hinted workloads whose declared signature
    diverges from the counters beyond ``tolerance`` — follows the
    detector-driven base plan.

    Args:
        tolerance: Relative divergence between the declared and measured
            ``refs_per_instr`` beyond which a declared phase is distrusted
            (default 30%).  Declared phases without a signature are always
            trusted.
    """

    name = "phase_hint"

    def __init__(self, tolerance: float = 0.3) -> None:
        if tolerance < 0:
            raise ValueError("tolerance cannot be negative")
        self.tolerance = tolerance

    def _trusted(self, declared, measured_refs: float) -> bool:
        if declared.refs_per_instr is None:
            return True
        expected = declared.refs_per_instr
        return abs(measured_refs - expected) <= self.tolerance * expected

    def plan(self, inputs, total_ways, config):
        plan = base_plan(inputs, total_ways, config)
        floors = protected_floors(plan, inputs, config)
        desires = dict(plan)
        hinted = False
        for inp in inputs:
            hint = inp.hint
            if hint is None:
                continue
            declared = hint.schedule.active_at(hint.time_s)
            if declared is None:
                continue
            if not self._trusted(declared, hint.measured_refs_per_instr):
                continue  # verify failed: fall back to the detector's plan
            wid = inp.workload_id
            desires[wid] = max(floors[wid], min(declared.preferred_ways, total_ways))
            hinted = True
        if not hinted:
            return plan
        return fit_to_budget(floors, desires, total_ways)


class ReservedPooledStrategy(AllocationStrategy):
    """Memshare-style reserved floors plus a benefit-arbitrated pool.

    Every tenant owns its protected floor (baseline when entitled, the
    minimum otherwise); everything above the floors is one pooled region,
    granted a way at a time to whichever tenant's learned performance
    curve shows the largest marginal normalized-IPC gain (piecewise-linear
    between recorded entries, flat outside them).  Growers without a
    usable curve yet harvest at a nominal epsilon benefit — capped at
    their requested target — so probing still makes progress; ways nobody
    can benefit from stay free.
    """

    name = "reserved_pooled"

    #: Nominal marginal benefit for table-less growers: loses every
    #: comparison against a measured gain, wins against "no benefit".
    _EPSILON = 1e-9

    def _marginal_gain(self, inp: AllocationInput, ways: int) -> float:
        table = inp.phase_table
        if table is None or len(table.entries) < 2:
            if inp.grow_request > 0 and ways < inp.target_ways + inp.grow_request:
                return self._EPSILON
            return 0.0
        points = sorted(table.entries.items())
        return max(0.0, _interp(points, ways + 1) - _interp(points, ways))

    def plan(self, inputs, total_ways, config):
        plan = base_plan(inputs, total_ways, config)
        floors = protected_floors(plan, inputs, config)
        plan = dict(floors)
        by_id = {inp.workload_id: inp for inp in inputs}
        pool = total_ways - sum(plan.values())
        while pool > 0:
            best_wid = None
            best_gain = 0.0
            for wid in sorted(plan):
                gain = self._marginal_gain(by_id[wid], plan[wid])
                if gain > best_gain:
                    best_wid, best_gain = wid, gain
            if best_wid is None:
                break
            plan[best_wid] += 1
            pool -= 1
        return plan


# -- the table -----------------------------------------------------------------

#: Every strategy by name: the only values ``DCatConfig.policy`` holds.
_STRATEGIES: Dict[str, AllocationStrategy] = {
    MaxFairnessStrategy.name: MaxFairnessStrategy(),
    MaxPerformanceStrategy.name: MaxPerformanceStrategy(),
    LfocClusteringStrategy.name: LfocClusteringStrategy(),
    PhaseHintStrategy.name: PhaseHintStrategy(),
    ReservedPooledStrategy.name: ReservedPooledStrategy(),
}

#: Extra accepted spellings (normalized), mapped to a strategy name.
_ALIASES: Dict[str, str] = {
    "fairness": MaxFairnessStrategy.name,
    "performance": MaxPerformanceStrategy.name,
    "lfoc": LfocClusteringStrategy.name,
    "hints": PhaseHintStrategy.name,
    "declared": PhaseHintStrategy.name,
    "phase_hints": PhaseHintStrategy.name,
    "memshare": ReservedPooledStrategy.name,
    "harvest": ReservedPooledStrategy.name,
}


def strategy_names() -> List[str]:
    """Every strategy name, sorted (the ``--policy`` vocabulary)."""
    return sorted(_STRATEGIES)


def canonical_name(
    value: str, field: str = "", error: Type[ValueError] = ValueError
) -> str:
    """Resolve any accepted policy spelling to its strategy name.

    Accepts names, aliases, and case/separator variants
    (``Max-Performance`` → ``max_performance``).

    Raises:
        error: For a non-string or unknown policy, listing the strategy
            names, after the ``field`` it came from (``--policy``,
            ``policy``).
    """
    prefix = f"{field}: " if field else ""
    if not isinstance(value, str):
        raise error(
            f"{prefix}allocation policy must be a string, "
            f"got {type(value).__name__}"
        )
    name = value.strip().lower().replace("-", "_").replace(" ", "_")
    name = _ALIASES.get(name, name)
    if name not in _STRATEGIES:
        raise error(
            f"{prefix}unknown allocation policy {value!r}; "
            f"registered strategies: {strategy_names()}"
        )
    return name


def normalize_policy(value: Optional[str]) -> str:
    """What ``DCatConfig.policy`` stores: the canonical strategy name.

    ``None`` resolves to the current run context's policy (see
    :func:`repro.engine.context.use_context`), else ``max_fairness``.

    Raises:
        ValueError: For an unknown policy, listing the strategy names.
    """
    if value is None:
        value = current_context().policy or MaxFairnessStrategy.name
    return canonical_name(value)


def get_strategy(policy: str) -> AllocationStrategy:
    """The strategy behind a policy.

    A canonical name (what ``DCatConfig.policy`` holds, looked up every
    control round) indexes the table directly; any other spelling goes
    through :func:`canonical_name`.
    """
    try:
        return _STRATEGIES[policy]
    except (KeyError, TypeError):
        return _STRATEGIES[canonical_name(policy)]
