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
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.engine.context import (
    _get_int,
    _get_number,
    _get_str,
    _reject_unknown,
    _require_mapping,
    read_document,
)
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
    def from_spec(
        spec: Any,
        error: Type[ValueError] = FaultPlanError,
        section: str = "",
    ) -> "FaultPlan":
        """Build a plan from its JSON object form (see module docstring).

        Args:
            error: The exception type to raise (the embedding document's,
                when the plan is one of its sections).
            section: The embedding document's key for the plan
                (``"faults"``); every message then starts with it, as in
                ``faults: rules[0].kind: ...``.

        Raises:
            error: On any malformed field, naming it.
        """
        if section:
            document_error = error

            def error(message: str) -> ValueError:
                return document_error(f"{section}: {message}")

        spec = _require_mapping(spec, "", error)
        _reject_unknown(spec, "", ("seed", "rules"), error, noun="fault-plan keys")
        seed = _get_int(spec, "", "seed", error, default=0)
        rule_specs = spec.get("rules", [])
        if not isinstance(rule_specs, list):
            raise error("rules: expected a list of rule objects")
        rules = tuple(
            _parse_rule(f"rules[{i}]", rule_spec, error)
            for i, rule_spec in enumerate(rule_specs)
        )
        return FaultPlan(seed=seed, rules=rules)

    @staticmethod
    def load(source: Union[str, Path, Dict[str, Any]]) -> "FaultPlan":
        """Load a plan from a dict, a JSON string, or a file path."""
        return FaultPlan.from_spec(
            read_document(source, "fault plan", FaultPlanError)
        )


_RULE_KEYS = (
    "kind",
    "target",
    "probability",
    "start_interval",
    "end_interval",
    "magnitude",
    "budget",
)


def _parse_rule(where: str, spec: Any, error: Type[ValueError]) -> FaultRule:
    spec = _require_mapping(spec, where, error)
    _reject_unknown(spec, where, _RULE_KEYS, error)
    try:
        kind = FaultKind(spec.get("kind"))
    except ValueError:
        raise error(
            f"{where}.kind: unknown fault kind {spec.get('kind')!r}; "
            f"use one of {sorted(k.value for k in FaultKind)}"
        ) from None
    start = _get_int(spec, where, "start_interval", error, default=0, minimum=0)
    return FaultRule(
        kind=kind,
        target=_get_str(spec, where, "target", error),
        probability=_get_number(
            spec, where, "probability", error, default=1.0, positive=True, maximum=1
        ),
        start_interval=start,
        end_interval=_get_int(spec, where, "end_interval", error, minimum=start),
        magnitude=_get_number(
            spec, where, "magnitude", error, default=2.0, positive=True
        ),
        budget=_get_int(spec, where, "budget", error, default=1, minimum=1),
    )
