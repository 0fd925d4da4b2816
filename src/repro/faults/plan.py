"""Seeded, declarative fault plans.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s plus a seed.  Each
rule names a fault kind, an optional target workload, an interval window
and a firing probability; :meth:`FaultPlan.active` resolves which rules
fire in a given interval.  The decision for rule *i* at interval *t* uses
an RNG seeded from ``(seed, "rule{i}@{t}")``, so schedules are independent
of evaluation order and identical across processes — the property the
byte-identical chaos reports rest on.

Plans can be built programmatically or loaded from JSON::

    {
      "seed": 7,
      "rules": [
        {"kind": "counter_read_error", "target": "redis", "probability": 0.1},
        {"kind": "counter_noise", "magnitude": 3.0, "probability": 0.05},
        {"kind": "l3ca_set_fail", "probability": 0.05, "budget": 1},
        {"kind": "workload_crash", "target": "redis",
         "start_interval": 20, "end_interval": 24}
      ]
    }
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.engine.context import read_document
from repro.engine.runner import derive_seed

__all__ = ["FaultKind", "FaultPlanError", "FaultRule", "FaultPlan"]


class FaultPlanError(ValueError):
    """A fault plan is malformed; the message names the offending field."""


class FaultKind(enum.Enum):
    """The fault vocabulary (issue's six families, split by mechanism).

    Counter-path faults (need a target workload, or hit every workload):

    * ``COUNTER_READ_ERROR`` — the sampler raises, as a flaky msr driver
      returning EIO would; raised *before* the counters are consumed, so a
      retry still observes the full interval delta.
    * ``COUNTER_NOISE`` — cache-event counts multiplied by ``magnitude``
      (miscounted events; IPC is left intact, so only classification is
      perturbed — the Com-CAS/LFOC failure mode).
    * ``SAMPLE_SATURATED`` — every counter pegged at the 48-bit maximum.
    * ``SAMPLE_ZEROED`` — every counter reads zero.
    * ``WORKLOAD_CRASH`` — the workload dies: its cores look idle (all
      zeros, indistinguishable from ``SAMPLE_ZEROED`` by design).
    * ``WORKLOAD_HANG`` — the workload spins without retiring: cycles are
      kept, instructions and cache events drop to zero (IPC ~ 0, *not*
      idle).

    Allocation-path faults (backend-wide, ``target`` ignored):

    * ``L3CA_SET_FAIL`` — the next ``budget`` mask writes raise
      :class:`~repro.cat.pqos.PqosError` before programming anything.
    * ``ASSOC_DROP`` — the next ``budget`` core-association writes are
      silently dropped (the write "succeeds" but does not land).
    """

    COUNTER_READ_ERROR = "counter_read_error"
    COUNTER_NOISE = "counter_noise"
    SAMPLE_SATURATED = "sample_saturated"
    SAMPLE_ZEROED = "sample_zeroed"
    WORKLOAD_CRASH = "workload_crash"
    WORKLOAD_HANG = "workload_hang"
    L3CA_SET_FAIL = "l3ca_set_fail"
    ASSOC_DROP = "assoc_drop"


#: Kinds that perturb the sampling path (everything else hits pqos writes).
COUNTER_KINDS = frozenset(
    {
        FaultKind.COUNTER_READ_ERROR,
        FaultKind.COUNTER_NOISE,
        FaultKind.SAMPLE_SATURATED,
        FaultKind.SAMPLE_ZEROED,
        FaultKind.WORKLOAD_CRASH,
        FaultKind.WORKLOAD_HANG,
    }
)


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault source.

    Attributes:
        kind: What to break (see :class:`FaultKind`).
        target: Workload to hit, for counter-path kinds; ``None`` hits
            every managed workload.  Ignored by allocation-path kinds.
        probability: Chance the rule fires in each interval of its window.
        start_interval: First interval (0-based) the rule may fire in.
        end_interval: Last interval it may fire in (inclusive); ``None``
            means the rest of the run.
        magnitude: Multiplier for ``COUNTER_NOISE`` cache-event counts.
        budget: Failures injected per firing for ``COUNTER_READ_ERROR`` /
            ``L3CA_SET_FAIL`` / ``ASSOC_DROP``.  Keep it at or below the
            controller's retry budget if the fault should be recoverable.
    """

    kind: FaultKind
    target: Optional[str] = None
    probability: float = 1.0
    start_interval: int = 0
    end_interval: Optional[int] = None
    magnitude: float = 2.0
    budget: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.probability <= 1:
            raise FaultPlanError("probability must be in (0, 1]")
        if self.start_interval < 0:
            raise FaultPlanError("start_interval cannot be negative")
        if (
            self.end_interval is not None
            and self.end_interval < self.start_interval
        ):
            raise FaultPlanError("end_interval precedes start_interval")
        if self.magnitude <= 0:
            raise FaultPlanError("magnitude must be positive")
        if self.budget < 1:
            raise FaultPlanError("budget must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules it schedules.

    ``FaultPlan(seed, ())`` is the null plan: it never fires, and the
    injector built from it leaves every sample and write untouched.
    """

    seed: int
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def active(self, interval: int) -> List[FaultRule]:
        """The rules that fire in ``interval``, in declaration order.

        Each (rule, interval) pair draws from its own derived RNG, so the
        outcome does not depend on how many other rules exist or in which
        order intervals are evaluated.
        """
        fired: List[FaultRule] = []
        for idx, rule in enumerate(self.rules):
            if interval < rule.start_interval:
                continue
            if rule.end_interval is not None and interval > rule.end_interval:
                continue
            if rule.probability < 1.0:
                rng = random.Random(
                    derive_seed(self.seed, f"rule{idx}@{interval}")
                )
                if rng.random() >= rule.probability:
                    continue
            fired.append(rule)
        return fired

    @staticmethod
    def from_spec(spec: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from its JSON object form (see module docstring).

        Raises:
            FaultPlanError: On any malformed field, naming it.
        """
        if not isinstance(spec, dict):
            raise FaultPlanError("a fault plan must be a JSON object")
        unknown = set(spec) - {"seed", "rules"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan keys {sorted(unknown)}; "
                f"use 'seed' and 'rules'"
            )
        try:
            seed = int(spec.get("seed", 0))
        except (TypeError, ValueError):
            raise FaultPlanError(
                f"seed: expected an integer, got {spec.get('seed')!r}"
            ) from None
        rule_specs = spec.get("rules", [])
        if not isinstance(rule_specs, list):
            raise FaultPlanError("rules: expected a list of rule objects")
        rules: List[FaultRule] = []
        for i, rule_spec in enumerate(rule_specs):
            rules.append(_parse_rule(i, rule_spec))
        return FaultPlan(seed=seed, rules=tuple(rules))

    @staticmethod
    def load(source: Union[str, Path, Dict[str, Any]]) -> "FaultPlan":
        """Load a plan from a dict, a JSON string, or a file path."""
        return FaultPlan.from_spec(
            read_document(source, "fault plan", FaultPlanError)
        )


_RULE_KEYS = {
    "kind",
    "target",
    "probability",
    "start_interval",
    "end_interval",
    "magnitude",
    "budget",
}


def _parse_rule(i: int, spec: Any) -> FaultRule:
    where = f"rules[{i}]"
    if not isinstance(spec, dict):
        raise FaultPlanError(f"{where}: expected a rule object")
    unknown = set(spec) - _RULE_KEYS
    if unknown:
        raise FaultPlanError(
            f"{where}: unknown keys {sorted(unknown)}; "
            f"valid keys are {sorted(_RULE_KEYS)}"
        )
    try:
        kind = FaultKind(spec.get("kind"))
    except ValueError:
        raise FaultPlanError(
            f"{where}.kind: unknown fault kind {spec.get('kind')!r}; "
            f"use one of {sorted(k.value for k in FaultKind)}"
        ) from None
    target = spec.get("target")
    if target is not None and not isinstance(target, str):
        raise FaultPlanError(f"{where}.target: expected a workload name")
    end = spec.get("end_interval")
    try:
        return FaultRule(
            kind=kind,
            target=target,
            probability=float(spec.get("probability", 1.0)),
            start_interval=int(spec.get("start_interval", 0)),
            end_interval=None if end is None else int(end),
            magnitude=float(spec.get("magnitude", 2.0)),
            budget=int(spec.get("budget", 1)),
        )
    except FaultPlanError as exc:
        raise FaultPlanError(f"{where}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FaultPlanError(f"{where}: {exc}") from None
