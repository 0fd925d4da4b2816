"""Staged interval loops.

A :class:`StagedLoop` decomposes a monolithic per-interval ``step()`` into
an ordered list of named stages sharing one mutable context object.  The
stage list is data, not code, so callers can inspect it, wrap a stage with
instrumentation, inject a fault between two stages, or swap an
implementation (e.g. a vectorized core model) without touching the loop
that owns it.

Stages are duck-typed against the :class:`Stage` protocol — anything with a
``name`` and a ``run(ctx)``.  Plain callables are adapted with
:class:`FunctionStage`.

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
    runtime_checkable,
)

__all__ = [
    "Stage",
    "FunctionStage",
    "StagedLoop",
    "StageObserver",
    "get_default_profiler",
    "set_default_profiler",
    "use_profiler",
]


@runtime_checkable
class Stage(Protocol):
    """One named step of an interval loop."""

    name: str

    def run(self, ctx: Any) -> None:
        """Advance the interval: read and mutate the shared context."""
        ...


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


class FunctionStage:
    """Adapts a ``ctx -> None`` callable to the :class:`Stage` protocol."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[Any], None]) -> None:
        self.name = name
        self.fn = fn

    def run(self, ctx: Any) -> None:
        self.fn(ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionStage({self.name!r})"


class StagedLoop:
    """An ordered, editable composition of uniquely named stages.

    Args:
        stages: Initial stage order.
        name: Label for error messages (e.g. ``"sim"``, ``"controller"``).
    """

    def __init__(self, stages: Sequence[Stage], name: str = "loop") -> None:
        self.name = name
        self._stages: List[Stage] = []
        #: Per-stage wall-time observer, captured from the process default at
        #: construction; assign directly to (de)instrument a live loop.
        self.profiler: Optional[StageObserver] = get_default_profiler()
        for s in stages:
            self.append(s)

    # -- composition ----------------------------------------------------------

    @property
    def stage_names(self) -> List[str]:
        return [s.name for s in self._stages]

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def index(self, name: str) -> int:
        """Position of the stage called ``name`` (``KeyError`` if absent)."""
        for i, s in enumerate(self._stages):
            if s.name == name:
                return i
        raise KeyError(f"{self.name}: no stage named {name!r} "
                       f"(stages: {', '.join(self.stage_names)})")

    def get(self, name: str) -> Stage:
        return self._stages[self.index(name)]

    def append(self, stage: Stage) -> None:
        if stage.name in self.stage_names:
            raise ValueError(f"{self.name}: duplicate stage name {stage.name!r}")
        self._stages.append(stage)

    def insert_before(self, name: str, stage: Stage) -> None:
        """Insert a new stage just before an existing one."""
        idx = self.index(name)
        if stage.name in self.stage_names:
            raise ValueError(f"{self.name}: duplicate stage name {stage.name!r}")
        self._stages.insert(idx, stage)

    def insert_after(self, name: str, stage: Stage) -> None:
        """Insert a new stage just after an existing one."""
        idx = self.index(name)
        if stage.name in self.stage_names:
            raise ValueError(f"{self.name}: duplicate stage name {stage.name!r}")
        self._stages.insert(idx + 1, stage)

    def replace(self, name: str, stage: Stage) -> Stage:
        """Swap a stage in place (instrumented wrappers, alternate models).

        Returns the stage that was replaced.
        """
        idx = self.index(name)
        if stage.name != name and stage.name in self.stage_names:
            raise ValueError(f"{self.name}: duplicate stage name {stage.name!r}")
        old = self._stages[idx]
        self._stages[idx] = stage
        return old

    def remove(self, name: str) -> Stage:
        """Drop a stage from the loop (returns it)."""
        return self._stages.pop(self.index(name))

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
            for stage in stages:
                stage.run(ctx)
            return
        loop_name = self.name
        for stage in stages:
            began = perf_counter()
            stage.run(ctx)
            profiler.observe(loop_name, stage.name, perf_counter() - began)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StagedLoop({self.name!r}: {' -> '.join(self.stage_names)})"
