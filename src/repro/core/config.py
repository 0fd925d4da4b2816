"""dCat controller configuration: every threshold the paper defines.

All thresholds are "configurable depending on the needs of users" (paper
§3.2); the defaults here are the values the paper selects for its
evaluation: 3% LLC miss-rate threshold (chosen in Fig. 8), 5% IPC
improvement threshold (chosen in Fig. 9), a 10% phase-change threshold on
memory accesses per instruction, a 3x-baseline streaming threshold, and a
1-second control interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DCatConfig"]


@dataclass
class DCatConfig:
    """Tunable parameters of the dCat control loop.

    Attributes:
        llc_miss_rate_thr: LLC miss-per-reference ratio above which a
            workload is considered starved for cache (paper's 3%).
        ipc_imp_thr: Relative IPC improvement a granted way must produce for
            the workload to be considered benefiting (paper's 5%).
        llc_ref_per_kinstr_thr: LLC references per 1000 instructions below
            which the workload "does not require lots of LLC" and becomes a
            Donor.  (The paper thresholds the raw llc_ref count; normalizing
            by instructions makes the threshold independent of the counter
            scaling.)
        phase_change_thr: Relative change in memory-accesses-per-instruction
            that signals a phase change (paper's 10%).
        streaming_multiple: Multiple of the baseline allocation at which a
            still-Unknown workload is declared Streaming (paper's 3x).
        streaming_gain_eps: Relative IPC gain below which a grant counts as
            "no improvement at all" (streaming evidence).  A gain between
            this and ``ipc_imp_thr`` means the workload benefits, just not
            enough to keep growing — it becomes a Keeper, not Streaming.
        idle_cycles_fraction: Fraction of the interval's nominal cycles
            below which the workload counts as idle (immediate Donor).
        min_ways: Smallest allocation CAT permits (1 way on Intel).
        interval_s: Control period (paper's default 1 s).
        policy: Which allocation objective to pursue: any strategy name
            of :mod:`repro.core.policies` or alias (case/separator-
            insensitive), or None to pick up the current run context's
            (see :func:`repro.engine.context.use_context`), else
            ``max_fairness``.  Always stored as the canonical name.
        grow_step_ways: Ways added per control round to a growing workload.
        shrink_step_ways: Ways removed per round from a low-miss-rate Donor.
        use_performance_table: Reuse per-phase performance tables to jump
            straight to a phase's preferred allocation (paper Fig. 12);
            disable for the ablation study.
        unknown_priority: Grant Unknown workloads before Receivers so
            streaming workloads are unmasked sooner (paper §3.5); disable
            for the ablation study.
        hardened: Master switch for the robustness layer (retry, stale-sample
            fallback, write verification, quarantine).  Every hardening path
            is a no-op until a fault actually occurs, so a clean run behaves
            identically with it on or off; disable for the chaos ablation.
            Its budgets and bounds are constants of
            :mod:`repro.core.controller`.
    """

    llc_miss_rate_thr: float = 0.03
    ipc_imp_thr: float = 0.05
    llc_ref_per_kinstr_thr: float = 1.0
    phase_change_thr: float = 0.10
    streaming_multiple: float = 3.0
    streaming_gain_eps: float = 0.02
    idle_cycles_fraction: float = 0.05
    min_ways: int = 1
    interval_s: float = 1.0
    policy: Optional[str] = None
    grow_step_ways: int = 1
    shrink_step_ways: int = 1
    use_performance_table: bool = True
    unknown_priority: bool = True
    hardened: bool = True

    def __post_init__(self) -> None:
        # Imported here, not at module level: policies imports this module.
        from repro.core.policies import normalize_policy

        self.policy = normalize_policy(self.policy)
        if not 0 < self.llc_miss_rate_thr < 1:
            raise ValueError("llc_miss_rate_thr must be in (0, 1)")
        if not 0 < self.ipc_imp_thr < 1:
            raise ValueError("ipc_imp_thr must be in (0, 1)")
        if self.llc_ref_per_kinstr_thr < 0:
            raise ValueError("llc_ref_per_kinstr_thr cannot be negative")
        if not 0 < self.phase_change_thr < 1:
            raise ValueError("phase_change_thr must be in (0, 1)")
        if self.streaming_multiple < 1:
            raise ValueError("streaming_multiple must be >= 1")
        if not 0 <= self.streaming_gain_eps <= self.ipc_imp_thr:
            raise ValueError(
                "streaming_gain_eps must be within [0, ipc_imp_thr]"
            )
        if not 0 <= self.idle_cycles_fraction < 1:
            raise ValueError("idle_cycles_fraction must be in [0, 1)")
        if self.min_ways < 1:
            raise ValueError("min_ways must be >= 1 (CAT forbids empty masks)")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.grow_step_ways < 1 or self.shrink_step_ways < 1:
            raise ValueError("grow/shrink steps must be >= 1")
