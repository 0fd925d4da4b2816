"""Workload states and the legal-transition map (paper Fig. 6).

Every workload is always in exactly one state:

* **Keeper** — would suffer with less cache but does not benefit from more;
  the start state for every workload.
* **Donor** — neither suffers from less nor benefits from more; holds the
  minimum (idle/low-LLC-use donors) or shrinks one way per round
  (low-miss-rate donors).
* **Unknown** — starved for cache but not yet proven to benefit; receives
  ways with priority so it can be resolved quickly.
* **Receiver** — proven to benefit from more cache; keeps growing while the
  gains continue.
* **Streaming** — misses heavily but never reuses; a special Donor pinned to
  the minimum allocation.
* **Reclaim** — transient: a phase change was detected and the workload must
  return to its baseline allocation before re-categorization.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Tuple

__all__ = ["WorkloadState", "ALLOWED_TRANSITIONS", "can_transition"]


class WorkloadState(enum.Enum):
    KEEPER = "keeper"
    DONOR = "donor"
    UNKNOWN = "unknown"
    RECEIVER = "receiver"
    STREAMING = "streaming"
    RECLAIM = "reclaim"


# The transition structure of paper Fig. 6.  RECLAIM is reachable from every
# state (a phase change preempts everything) and resolves to KEEPER once the
# baseline allocation is restored.
ALLOWED_TRANSITIONS: Dict[WorkloadState, FrozenSet[WorkloadState]] = {
    WorkloadState.KEEPER: frozenset(
        {
            WorkloadState.KEEPER,
            WorkloadState.DONOR,
            WorkloadState.UNKNOWN,
            WorkloadState.RECLAIM,
        }
    ),
    WorkloadState.DONOR: frozenset(
        {
            WorkloadState.DONOR,
            WorkloadState.KEEPER,
            WorkloadState.UNKNOWN,
            WorkloadState.RECLAIM,
        }
    ),
    WorkloadState.UNKNOWN: frozenset(
        {
            WorkloadState.UNKNOWN,
            WorkloadState.RECEIVER,
            WorkloadState.STREAMING,
            WorkloadState.DONOR,
            WorkloadState.KEEPER,
            WorkloadState.RECLAIM,
        }
    ),
    WorkloadState.RECEIVER: frozenset(
        {
            WorkloadState.RECEIVER,
            WorkloadState.KEEPER,
            WorkloadState.DONOR,
            WorkloadState.RECLAIM,
        }
    ),
    WorkloadState.STREAMING: frozenset(
        {
            WorkloadState.STREAMING,
            WorkloadState.DONOR,
            WorkloadState.RECLAIM,
        }
    ),
    # RECLAIM is transient: once the baseline allocation is restored the
    # workload is re-categorized from scratch, so any state may follow.
    WorkloadState.RECLAIM: frozenset(
        {
            WorkloadState.RECLAIM,
            WorkloadState.KEEPER,
            WorkloadState.DONOR,
            WorkloadState.UNKNOWN,
        }
    ),
}


#: ``ALLOWED_TRANSITIONS`` keyed by member name, each a tuple.  A member's
#: hash is the Python-level ``Enum.__hash__``; a name's hash and a tuple
#: membership test (identity first) run no Python frame, and this check runs
#: once per workload per interval.
_ALLOWED_BY_NAME: Dict[str, Tuple[WorkloadState, ...]] = {
    src._name_: tuple(dsts) for src, dsts in ALLOWED_TRANSITIONS.items()
}


def can_transition(src: WorkloadState, dst: WorkloadState) -> bool:
    """True if Fig. 6 permits moving from ``src`` to ``dst``."""
    return dst in _ALLOWED_BY_NAME[src._name_]
