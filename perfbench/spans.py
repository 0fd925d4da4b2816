"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: a
:class:`SpanRecorder` is installed as the engine's ``StageObserver``
(every ``StagedLoop`` stage of the simulation and the controller reports
one sample) and wraps the public methods of each layer named in
``_hook_targets``.  Nothing in ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, rid]``.  Stage observers report
after the stage ran, so their start is derived as ``perf_counter() -
elapsed`` at ``observe``.  Parents are assigned when a span closes: it
adopts every still-unparented span that started inside it.  Code is
single-threaded and properly nested, so the closed-but-unparented spans
form a stack ordered by close time and adoption only ever pops its tail.

Self time is a span's duration minus the durations of its direct
children, so nested time is counted once.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Where traced runs write their spans (ignored by git).
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: StagedLoop names -> span prefixes.
LOOP_PREFIX = {"sim": "sim", "controller": "ctl"}

#: Every span the traced run can report, in layer order.
SPAN_NAMES = (
    "sim.resolve_hit_rates",
    "sim.execute_cores",
    "sim.feed_pmus",
    "sim.record",
    "sim.advance",
    "sim.control",
    "sim.update_dram",
    "ctl.collect",
    "ctl.detect_phase",
    "ctl.get_baseline",
    "ctl.categorize",
    "ctl.allocate",
    "ctl.commit",
    "ctl.admit_workload",
    "cat.l3ca_set",
    "fleet.step",
    "fleet.admit_tenant",
    "fleet.depart_tenant",
    "fleet.place",
    "slo.observe",
    "executor.step",
    "executor.admit",
    "executor.depart",
    "handle.admit",
    "handle.detach",
    "handle.tick",
)

#: Spans every in-process fleet interval exercises (sim, controller, CAT,
#: fleet and SLO layers).
FLEET_SPANS = tuple(
    n for n in SPAN_NAMES if n.split(".")[0] in ("sim", "ctl", "cat", "fleet", "slo")
)
EXECUTOR_SPANS = ("executor.step", "executor.admit", "executor.depart")
HANDLE_SPANS = ("handle.admit", "handle.detach", "handle.tick")

#: Fleets: |sum of self times / traced wall - 1| must stay within this.
#: Daemon: self times may exceed its CPU time by at most this share.
RECONCILE_TOLERANCE = 0.05

#: Adoption slack for observer-derived starts (observe runs a little
#: after the stage's own clock stopped).
_EPS = 1e-6


class SpanRecorder:
    """Keeps spans in memory; doubles as the engine's ``StageObserver``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.enabled = True

    def _close(self, name: str, start: float, end: float, rid: Any = None) -> None:
        spans = self.spans
        idx = len(spans)
        stack = self._open
        while stack and spans[stack[-1]][1] >= start - _EPS:
            spans[stack.pop()][3] = idx
        stack.append(idx)
        spans.append([name, start, end, None, rid])

    # -- StageObserver -----------------------------------------------------

    def observe(self, loop: str, stage: str, elapsed_s: float) -> None:
        if not self.enabled:
            return
        end = perf_counter()
        self._close(f"{LOOP_PREFIX.get(loop, loop)}.{stage}", end - elapsed_s, end)

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name`` (``rid(*args)`` names the request)."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(
                    name, start, perf_counter(), rid(*args, **kwargs) if rid else None
                )

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller."""
        if self.enabled:
            self._close(name, start, end)

    # -- analysis ----------------------------------------------------------

    def stats(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, self seconds, inclusive seconds)``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, List[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
            entry[2] += end - start
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write(self, name: str) -> Path:
        """Dump every span as one JSON line under :data:`OUT_DIR`."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / name
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, rid in self.spans:
                f.write(json.dumps([name, start, end, parent, rid]) + "\n")
        return path


def _hook_targets() -> List[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, rid)`` for every wrapped public method."""
    from repro.cat.pqos import PqosLibrary
    from repro.cloud.executor import ParallelCloudFleet
    from repro.cloud.fleet import CloudFleet
    from repro.cloud.handle import FleetHandle
    from repro.cloud.placement import PlacementPolicy
    from repro.cloud.slo import SloAccountant
    from repro.core.controller import DCatController

    def tenant(_self, spec, *a, **k):
        return spec.name

    def tenant_id(_self, tid, *a, **k):
        return tid

    def fleet_tick(self, *a, **k):
        return self.tick

    def handle_name(_self, *a, **k):
        return k.get("name", a[0] if a else None)

    def handle_tid(_self, *a, **k):
        return k.get("tenant_id", a[0] if a else None)

    targets = [
        (PqosLibrary, "l3ca_set", "cat.l3ca_set", None),
        (DCatController, "admit_workload", "ctl.admit_workload", tenant_id),
        (CloudFleet, "step", "fleet.step", fleet_tick),
        (ParallelCloudFleet, "step", "fleet.step", fleet_tick),
        (CloudFleet, "admit_tenant", "fleet.admit_tenant", tenant),
        (CloudFleet, "depart_tenant", "fleet.depart_tenant", tenant_id),
        (SloAccountant, "observe", "slo.observe", tenant_id),
        (FleetHandle, "admit", "handle.admit", handle_name),
        (FleetHandle, "detach", "handle.detach", handle_tid),
        (FleetHandle, "tick", "handle.tick", None),
    ]
    for policy in PlacementPolicy.__subclasses__():
        if "place" in vars(policy):
            targets.append((policy, "place", "fleet.place", tenant))
    return targets


_EXECUTOR_OPS = {"admit": "executor.admit", "depart": "executor.depart"}


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install ``recorder`` on every layer hook; restore them on exit.

    Fleets must be built inside the block: ``StagedLoop`` captures the
    stage observer at construction.
    """
    from repro.cloud.executor import ParallelCloudFleet
    from repro.engine.pipeline import use_profiler

    saved = []
    for cls, method, name, rid in _hook_targets():
        original = vars(cls)[method]
        saved.append((cls, method, original))
        setattr(cls, method, recorder.wrap(name, original, rid))

    # The executor's parent-side round trips: one message out, one reply in.
    ask = vars(ParallelCloudFleet)["_ask"]
    broadcast = vars(ParallelCloudFleet)["_broadcast"]

    def traced_ask(self, machine_name, msg):
        start = perf_counter()
        try:
            return ask(self, machine_name, msg)
        finally:
            op = _EXECUTOR_OPS.get(msg[0])
            if op is not None:
                recorder.record(op, start, perf_counter())

    def traced_broadcast(self, msg):
        start = perf_counter()
        try:
            return broadcast(self, msg)
        finally:
            if msg[0] == "step":
                recorder.record("executor.step", start, perf_counter())

    saved += [
        (ParallelCloudFleet, "_ask", ask),
        (ParallelCloudFleet, "_broadcast", broadcast),
    ]
    ParallelCloudFleet._ask = traced_ask
    ParallelCloudFleet._broadcast = traced_broadcast
    try:
        with use_profiler(recorder):
            yield recorder
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)


def layer_metrics(
    stats: Dict[str, Tuple[int, float, float]],
    wall_s: float,
    names=SPAN_NAMES,
) -> Dict[str, float]:
    """``<span>.calls`` / ``.self_s`` / ``.share`` for each named span."""
    out: Dict[str, float] = {}
    for name in names:
        calls, self_s, _ = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = self_s / wall_s if wall_s > 0 else 0.0
    return out


def require_spans(stats: Dict[str, Tuple[int, float, float]], names) -> None:
    """Fail loudly when a span the workload must exercise never fired."""
    missing = [n for n in names if stats.get(n, (0,))[0] == 0]
    if missing:
        raise MissingSpanError(f"traced run recorded no {', '.join(missing)} span")


class MissingSpanError(RuntimeError):
    """A layer boundary the traced workload must cross was never recorded."""


class ReconcileError(RuntimeError):
    """Layer self times do not add up to the time they were measured in."""
