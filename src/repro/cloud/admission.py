"""Structured admission-rejection reasons.

Placement used to collapse every rejection into the string
``"no-capacity"``.  The service API (and the churn reports) want to say
*which* budget ran out, so rejection causes are now a closed enum:

* ``no-threads`` — every machine is out of dedicated hardware-thread
  slots (``vcpus_per_vm`` each);
* ``no-cos`` — every machine has exhausted its allocatable classes of
  service (COS0 stays unmanaged);
* ``no-ways`` — the reservation does not fit next to any machine's
  already-reserved LLC ways;
* ``no-capacity`` — machines are full for *different* reasons (or a
  policy declined for its own reasons despite raw headroom);
* ``duplicate-tenant`` — the id is already resident or has a ledger
  (service-level admission only; batch streams pre-validate names).

The enum *values* are the wire/report strings; events and
``PlacementRecord.reason`` carry the value, not the enum member, so
JSONL traces stay plain strings.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

__all__ = ["RejectReason", "classify_rejection"]


class RejectReason(str, Enum):
    """Why admission control turned a tenant away."""

    NO_CAPACITY = "no-capacity"
    NO_THREADS = "no-threads"
    NO_COS = "no-cos"
    NO_WAYS = "no-ways"
    DUPLICATE_TENANT = "duplicate-tenant"


def classify_rejection(
    machines: Sequence, baseline_ways: int
) -> RejectReason:
    """The fleet-wide rejection reason for a tenant no policy placed.

    Each machine reports its first exhausted budget
    (:meth:`~repro.cloud.fleet.FleetMachine.reject_reason`).  If every
    machine is out of the *same* budget that reason is returned; if
    machines are full for different reasons — or some machine actually
    fits but the policy still declined — the generic ``NO_CAPACITY`` is
    reported.
    """
    reasons = {m.reject_reason(baseline_ways) for m in machines}
    if len(reasons) == 1:
        only = next(iter(reasons))
        if only is not None:
            return only
    return RejectReason.NO_CAPACITY
