"""The Categorize Workloads step (paper §3.4, Fig. 6).

Given a workload's record and this interval's counter sample, decide its
next state and allocation intent.  The paper's rules, as implemented:

* idle, or LLC references below threshold  -> **Donor** at the minimum
  allocation immediately;
* busy with LLC references but (near-)zero miss rate -> **Donor**, shrinking
  one way per round, until misses become non-trivial -> **Keeper**;
* significant references *and* misses -> wants cache: **Unknown** until a
  grant demonstrably improves IPC (-> **Receiver**) or growth exhausts the
  streaming threshold / the free pool without improvement (-> **Streaming**,
  pinned to the minimum);
* a **Receiver** keeps growing one way per round until its miss rate drops
  below threshold or a grant stops paying -> **Keeper**.

Two refinements the paper leaves implicit are made explicit (and are
ablatable via the config):

* *hysteresis*: the shrink trigger uses a lower miss threshold
  (``donor_miss_rate``) than the grow trigger (``llc_miss_rate_thr``), so a
  workload sitting between the two is a stable Keeper instead of
  oscillating;
* *shrink floor*: when a donor shrink provokes misses, the floor is
  remembered for the rest of the phase so the probe is not repeated.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.config import DCatConfig
from repro.core.states import WorkloadState, can_transition
from repro.core.stats import WorkloadRecord
from repro.hwcounters.perfmon import CounterSample

__all__ = ["Decision", "DONOR_MISS_RATE_FRACTION", "categorize"]


# The donor (shrink) threshold sits well below the grow threshold.
DONOR_MISS_RATE_FRACTION = 1.0 / 6.0


class Decision(NamedTuple):
    """One workload's categorization outcome for this interval.

    Attributes:
        state: The next state.
        target_ways: Allocation the workload should hold regardless of pool
            availability (shrinks and holds; grants go via grow_request).
        grow_request: Extra ways wanted if the pool can supply them.
    """

    state: WorkloadState
    target_ways: int
    grow_request: int = 0


def _improvement(record: WorkloadRecord, ipc: float) -> Optional[float]:
    """Relative IPC improvement attributable to the last grant.

    Compares this interval's IPC against the last interval's (measured at
    one way less).  Fresh measurements are preferred over the performance
    table here: table entries can be stale when a working set changed
    without moving the refs/instr phase signature, and the thresholds
    (>= 5%) sit far above the per-interval measurement noise.  The table
    remains the source of truth for preferred-ways jumps and the
    max-performance split.  Returns None when no grant landed last round
    or data is missing.
    """
    if not record.got_grant_last_round:
        return None
    if record.last_ipc > 0 and ipc > 0:
        return ipc / record.last_ipc - 1.0
    table = record.table.known_phase(record.signature)
    if table is not None:
        now = table.normalized(record.ways)
        before = table.normalized(record.prev_ways)
        if now is not None and before is not None and before > 0:
            return now / before - 1.0
    return None


def _cumulative_gain_per_way(record: WorkloadRecord) -> float:
    """Average normalized-IPC gain per way granted beyond the baseline.

    Uses the phase's performance table, so the estimate integrates every
    interval observed at the two allocations instead of one noisy pair.
    Returns 0.0 when no evidence exists yet.
    """
    extra = record.ways - record.baseline_ways
    if extra <= 0:
        return 0.0
    table = record.table.known_phase(record.signature)
    if table is None:
        return 0.0
    norm = table.normalized(record.ways)
    if norm is None:
        return 0.0
    return (norm - 1.0) / extra


def categorize(
    record: WorkloadRecord,
    sample: CounterSample,
    config: DCatConfig,
    pool_empty: bool,
    *,
    ipc: float,
    miss_rate: float,
) -> Decision:
    """Run the Fig. 6 state machine for one workload and interval.

    Args:
        record: The workload's controller record (state read, not written —
            the controller applies the decision).
        sample: This interval's counters.
        config: Controller thresholds.
        pool_empty: Whether the free pool was exhausted after the previous
            allocation round (the Unknown -> Streaming escape hatch).
        ipc: The sample's ``ipc``.
        miss_rate: The sample's ``llc_miss_rate``.
    """
    state = record.state
    ways = record.ways
    min_ways = config.min_ways

    refs_per_kinstr = (
        1000.0 * sample.llc_ref / sample.ret_ins if sample.ret_ins else 0.0
    )
    donor_miss_thr = config.llc_miss_rate_thr * DONOR_MISS_RATE_FRACTION

    # -- idle / no LLC use: immediate Donor at the minimum ------------------
    if record.idle or refs_per_kinstr <= config.llc_ref_per_kinstr_thr:
        return _checked(state, Decision(WorkloadState.DONOR, min_ways))

    # -- streaming stays streaming until the phase changes -------------------
    if state is WorkloadState.STREAMING:
        return Decision(WorkloadState.STREAMING, min_ways)

    # -- busy, but the cache is absorbing everything -------------------------
    if miss_rate <= donor_miss_thr:
        if state in (WorkloadState.UNKNOWN, WorkloadState.RECEIVER):
            # Growth achieved its goal; hold what we have.
            return _checked(state, Decision(WorkloadState.KEEPER, ways))
        floor = max(min_ways, record.donor_floor_ways)
        if ways > floor:
            target = max(floor, ways - config.shrink_step_ways)
            return _checked(state, Decision(WorkloadState.DONOR, target))
        return _checked(state, Decision(WorkloadState.KEEPER, ways))

    # -- moderate miss rate: the stable Keeper band ---------------------------
    if miss_rate <= config.llc_miss_rate_thr:
        if state in (WorkloadState.UNKNOWN, WorkloadState.RECEIVER):
            return _checked(state, Decision(WorkloadState.KEEPER, ways))
        return _checked(state, Decision(WorkloadState.KEEPER, ways))

    # -- starved: significant references and misses ----------------------------
    if state in (WorkloadState.KEEPER, WorkloadState.DONOR, WorkloadState.RECLAIM):
        ceiling_active = (
            state is WorkloadState.KEEPER
            and record.growth_ceiling_ways
            and ways >= record.growth_ceiling_ways
        )
        if ceiling_active:
            # Growth already stopped paying at this allocation in this
            # phase.  Stay put — unless misses have risen well past the
            # level at which growth stopped (e.g. the working set grew
            # without a refs/instr phase change), which reopens growth.
            stop_level = record.growth_ceiling_miss_rate
            reopened = miss_rate > max(
                1.5 * stop_level, stop_level + config.llc_miss_rate_thr
            )
            if not reopened:
                return Decision(WorkloadState.KEEPER, ways)
        return _checked(
            state,
            Decision(
                WorkloadState.UNKNOWN, ways, grow_request=config.grow_step_ways
            ),
        )

    if state is WorkloadState.UNKNOWN:
        gain = _improvement(record, ipc)
        if gain is not None and gain >= config.ipc_imp_thr:
            return Decision(
                WorkloadState.RECEIVER, ways, grow_request=config.grow_step_ways
            )
        if _cumulative_gain_per_way(record) >= config.streaming_gain_eps:
            # Real but sub-threshold benefit: not streaming, not worth more
            # ways.  Hold what we have.  (Cumulative since baseline, so a
            # single noisy interval cannot trigger this.)
            return Decision(WorkloadState.KEEPER, ways)
        hit_streaming_size = ways >= config.streaming_multiple * record.baseline_ways
        exhausted_pool = pool_empty and record.unknown_grants >= 1
        if hit_streaming_size or exhausted_pool:
            return Decision(WorkloadState.STREAMING, min_ways)
        return Decision(
            WorkloadState.UNKNOWN, ways, grow_request=config.grow_step_ways
        )

    # RECEIVER: keep growing while grants keep paying.
    gain = _improvement(record, ipc)
    if gain is not None and gain < config.ipc_imp_thr:
        return Decision(WorkloadState.KEEPER, ways)
    return Decision(
        WorkloadState.RECEIVER, ways, grow_request=config.grow_step_ways
    )


def _checked(src: WorkloadState, decision: Decision) -> Decision:
    """Assert the decision respects the Fig. 6 transition map."""
    if not can_transition(src, decision.state):
        raise AssertionError(
            f"illegal transition {src.value} -> {decision.state.value}"
        )
    return decision
