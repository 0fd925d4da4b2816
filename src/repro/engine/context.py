"""What a run is given at its edge: a :class:`RunContext` and its documents.

Three per-run choices reach every layer below the CLI: the cache
substrate (``fidelity``), the allocation strategy (``policy``) and the
fleet's worker processes (``fleet_jobs``).  :meth:`RunContext.parse`
validates them once, at the edge — the CLI's ``main`` and each library
entry point that takes them as keywords — and the frozen, picklable
result is passed explicitly from there on, into fleet workers too.

One ambient slot remains, for the ``run`` command's registry
experiments, which build their own simulations: ``_run_one`` installs
the context with :func:`use_context`, and :func:`current_context` is
read in exactly two places — a
:class:`~repro.platform.sim.CloudSimulation` built without a substrate,
and a :class:`~repro.core.config.DCatConfig` built without a policy.

:func:`read_document` is the one reader for the JSON documents those
entry points accept (scenario, churn, chaos, service, fault plan).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Type, Union

__all__ = ["RunContext", "current_context", "read_document", "use_context"]


@dataclass(frozen=True)
class RunContext:
    """The per-run choices, validated and normalized.

    Attributes:
        fidelity: Cache-substrate mode (one of
            :data:`~repro.platform.substrate.FIDELITIES`), or ``None``
            for "not chosen": a document's own ``fidelity`` applies, else
            analytical.
        policy: Registered allocation-strategy name (aliases resolved,
            ``lfoc`` → ``lfoc_clustering``), or ``None`` for "not
            chosen": a document's own ``policy`` applies, else
            ``max_fairness``.
        fleet_jobs: Worker processes a fleet shards its machines across
            (``1`` runs it in-process).

    Build it with :meth:`parse`; the constructor does not validate.
    """

    fidelity: Optional[str] = None
    policy: Optional[str] = None
    fleet_jobs: int = 1

    @classmethod
    def parse(
        cls,
        fidelity: Optional[str] = None,
        policy: Optional[str] = None,
        fleet_jobs: int = 1,
    ) -> "RunContext":
        """Validate and normalize the three choices.

        Raises:
            ValueError: Naming ``--fidelity``, ``--policy`` or
                ``--fleet-jobs`` and the legal values.
        """
        # Imported here: both modules import the engine package.
        from repro.core.policies import canonical_name
        from repro.platform.substrate import FIDELITIES

        if fidelity is not None and fidelity not in FIDELITIES:
            raise ValueError(
                f"--fidelity: unknown fidelity {fidelity!r}; "
                f"use one of {list(FIDELITIES)}"
            )
        if policy is not None:
            try:
                policy = canonical_name(policy)
            except ValueError as exc:
                raise ValueError(f"--policy: {exc}") from None
        if (
            isinstance(fleet_jobs, bool)
            or not isinstance(fleet_jobs, int)
            or fleet_jobs < 1
        ):
            raise ValueError(
                f"--fleet-jobs: must be an integer >= 1, "
                f"got fleet_jobs={fleet_jobs!r}"
            )
        return cls(fidelity=fidelity, policy=policy, fleet_jobs=fleet_jobs)


_current = RunContext()


def current_context() -> RunContext:
    """The context :func:`use_context` installed (defaults otherwise)."""
    return _current


@contextmanager
def use_context(ctx: RunContext) -> Iterator[RunContext]:
    """Install ``ctx`` as the ambient context for the ``with`` block.

    Nested blocks restore the outer context on exit.
    """
    global _current
    if not isinstance(ctx, RunContext):
        raise TypeError(f"expected a RunContext, got {type(ctx).__name__}")
    previous, _current = _current, ctx
    try:
        yield ctx
    finally:
        _current = previous


def read_document(
    source: Union[str, Path, Dict[str, Any]],
    noun: str,
    error: Type[ValueError],
) -> Dict[str, Any]:
    """A JSON object from a dict, JSON text, or a file path.

    Args:
        source: The document itself, its JSON text, or a path to it.
        noun: What the document is (``"churn scenario"``), for messages.
        error: The exception type to raise (the caller's typed error).

    Raises:
        error: For a file that is not valid JSON (naming the file, line
            and column), text that names no file and is not JSON either,
            or a document that is not a JSON object.
    """
    if isinstance(source, dict):
        return source
    try:
        is_file = Path(source).is_file()
    except OSError:  # e.g. a JSON blob too long to be a filename
        is_file = False
    where = f"{noun} {str(source)!r}"
    try:
        data = json.loads(Path(source).read_text() if is_file else str(source))
    except json.JSONDecodeError as exc:
        if is_file:
            raise error(
                f"{where}: invalid JSON at line {exc.lineno} column "
                f"{exc.colno}: {exc.msg}"
            ) from None
        raise error(f"{where} is neither a file nor valid JSON") from None
    if not isinstance(data, dict):
        raise error(f"{where}: expected an object, got {type(data).__name__}")
    return data
