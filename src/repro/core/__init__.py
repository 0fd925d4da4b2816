"""dCat core: the dynamic cache-allocation controller (the paper's contribution)."""

from repro.core.allocation import (
    AllocationInput,
    base_plan,
    optimize_way_split,
    plan_allocation,
)
from repro.core.classifier import Decision, categorize
from repro.core.config import DCatConfig
from repro.core.controller import DCatController, StepResult, WorkloadStatus
from repro.core.hints import DeclaredPhase, DeclaredSchedule, PhaseHint
from repro.core.perftable import PerformanceTable, PhaseTable
from repro.core.phase import PhaseDetector, PhaseSignature
from repro.core.policies import (
    AllocationStrategy,
    get_strategy,
    normalize_policy,
    strategy_names,
)
from repro.core.states import ALLOWED_TRANSITIONS, WorkloadState, can_transition
from repro.core.stats import WorkloadRecord

__all__ = [
    "AllocationInput",
    "base_plan",
    "optimize_way_split",
    "plan_allocation",
    "Decision",
    "categorize",
    "DCatConfig",
    "DCatController",
    "StepResult",
    "WorkloadStatus",
    "DeclaredPhase",
    "DeclaredSchedule",
    "PhaseHint",
    "PerformanceTable",
    "PhaseTable",
    "PhaseDetector",
    "PhaseSignature",
    "AllocationStrategy",
    "get_strategy",
    "normalize_policy",
    "strategy_names",
    "ALLOWED_TRANSITIONS",
    "WorkloadState",
    "can_transition",
    "WorkloadRecord",
]
