"""Staged interval loops.

A :class:`StagedLoop` decomposes a monolithic per-interval ``step()`` into
an ordered list of named stages sharing one mutable context object.  A
stage is a ``(name, fn)`` pair and runs as ``fn(ctx)``.  The stage list is
data, not code, so callers can inspect it, run a slice of it, or splice a
stage in before an existing one (the fault injector's ``inject_faults``)
without touching the loop that owns it.

Per-stage profiling hooks in here the same way the default event bus hooks
into :mod:`repro.engine.events`: a process-wide default profiler
(:func:`set_default_profiler` / :func:`use_profiler`) is captured by every
:class:`StagedLoop` at construction, and ``run()`` times each stage through
it.  With no profiler installed (the default) the loop pays a single
attribute read per interval — the observability layer costs nothing until
someone asks for it.  The concrete profiler lives in
:mod:`repro.obs.profiler`; this module only defines the hook so the engine
never depends on the metrics layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

__all__ = [
    "StagedLoop",
    "StageObserver",
    "get_default_profiler",
    "set_default_profiler",
    "use_profiler",
]

#: One named step of an interval loop; the loop runs it as ``fn(ctx)``.
_NamedStage = Tuple[str, Callable[[Any], None]]


@runtime_checkable
class StageObserver(Protocol):
    """Receives one wall-time sample per executed stage.

    ``observe`` must be cheap and must never raise: it runs on the interval
    hot path of every profiled loop.  :class:`repro.obs.profiler.StageProfiler`
    is the standard implementation.
    """

    def observe(self, loop: str, stage: str, elapsed_s: float) -> None:
        ...


_default_profiler: Optional[StageObserver] = None


def get_default_profiler() -> Optional[StageObserver]:
    """The profiler new :class:`StagedLoop` instances pick up (or ``None``)."""
    return _default_profiler


def set_default_profiler(profiler: Optional[StageObserver]) -> None:
    """Install a process-wide default profiler (``None`` disables)."""
    global _default_profiler
    _default_profiler = profiler


@contextmanager
def use_profiler(profiler: Optional[StageObserver]) -> Iterator[Optional[StageObserver]]:
    """Temporarily install ``profiler`` as the process default.

    Loops constructed inside the ``with`` block are profiled; loops that
    already exist keep whatever :attr:`StagedLoop.profiler` they captured
    (attach to those explicitly via ``loop.profiler = profiler``).
    """
    previous = _default_profiler
    set_default_profiler(profiler)
    try:
        yield profiler
    finally:
        set_default_profiler(previous)


class StagedLoop:
    """An ordered composition of uniquely named stages.

    Args:
        stages: Initial stage order, as ``(name, fn)`` pairs.
        name: Label for error messages (e.g. ``"sim"``, ``"controller"``).
    """

    def __init__(self, stages: Sequence[_NamedStage], name: str = "loop") -> None:
        self.name = name
        self._stages: List[_NamedStage] = []
        #: Per-stage wall-time observer, captured from the process default at
        #: construction; assign directly to (de)instrument a live loop.
        self.profiler: Optional[StageObserver] = get_default_profiler()
        seen = set()
        for stage in stages:
            if stage[0] in seen:
                raise ValueError(f"{self.name}: duplicate stage name {stage[0]!r}")
            seen.add(stage[0])
            self._stages.append(stage)

    # -- composition ----------------------------------------------------------

    @property
    def stage_names(self) -> List[str]:
        return [name for name, _ in self._stages]

    def index(self, name: str) -> int:
        """Position of the stage called ``name`` (``KeyError`` if absent)."""
        for i, (stage_name, _) in enumerate(self._stages):
            if stage_name == name:
                return i
        raise KeyError(f"{self.name}: no stage named {name!r} "
                       f"(stages: {', '.join(self.stage_names)})")

    def insert_before(self, name: str, stage: _NamedStage) -> None:
        """Insert a new stage just before an existing one."""
        idx = self.index(name)
        self._check_new(stage)
        self._stages.insert(idx, stage)

    def _check_new(self, stage: _NamedStage) -> None:
        if stage[0] in self.stage_names:
            raise ValueError(f"{self.name}: duplicate stage name {stage[0]!r}")

    # -- execution ------------------------------------------------------------

    def run(self, ctx: Any, start: int = 0, stop: Optional[int] = None) -> None:
        """Run the stages, in order, over one shared context.

        ``start``/``stop`` select a slice of the stage list (default: every
        stage), so a caller can run one part of an interval over one
        context and the rest over another (see
        :func:`repro.platform.sim.step_batch`).  With a profiler attached,
        each stage is timed individually and the sample reported as
        ``(loop name, stage name, elapsed seconds)``.
        """
        stages = self._stages if start == 0 and stop is None else self._stages[start:stop]
        profiler = self.profiler
        if profiler is None:
            for _, fn in stages:
                fn(ctx)
            return
        loop_name = self.name
        for stage_name, fn in stages:
            began = perf_counter()
            fn(ctx)
            profiler.observe(loop_name, stage_name, perf_counter() - began)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StagedLoop({self.name!r}: {' -> '.join(self.stage_names)})"
