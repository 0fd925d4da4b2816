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
entry points accept (scenario, churn, chaos, service, fault plan), and
the field readers below (:func:`_require_mapping`, :func:`_get_number`,
:func:`_get_int`, :func:`_get_str`, :func:`_reject_unknown`) are the one
way every parser reads a field.  Each takes the caller's error type and
the field's path (``tenants[2].workload.wss_mb``; ``""`` is the
document root), and raises once, at the field, naming that path.  They
never coerce: a numeric string, a bool, or a float where an integer is
due is an error.  A ``null`` means "unset" only where the field's
default is unset.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Dict, Iterator, Optional, Type, Union

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
        error: Type[ValueError] = ValueError,
    ) -> "RunContext":
        """Validate and normalize the three choices.

        Raises:
            error: Naming ``--fidelity``, ``--policy`` or
                ``--fleet-jobs`` and the legal values.
        """
        # Imported here: both modules import the engine package.
        from repro.core.policies import canonical_name
        from repro.platform.substrate import FIDELITIES

        if fidelity is not None and fidelity not in FIDELITIES:
            raise error(
                f"--fidelity: unknown fidelity {fidelity!r}; "
                f"use one of {list(FIDELITIES)}"
            )
        if policy is not None:
            policy = canonical_name(policy, "--policy", error)
        if (
            isinstance(fleet_jobs, bool)
            or not isinstance(fleet_jobs, int)
            or fleet_jobs < 1
        ):
            raise error(
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


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _at(path: str, message: str) -> str:
    return f"{path}: {message}" if path else message


def _require_mapping(value: Any, path: str, error: Type[ValueError]) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise error(_at(path, f"expected an object, got {type(value).__name__}"))
    return value


def _get(obj, path, key, error, default, required, types, expected) -> Any:
    """``obj[key]``, checked to be one of ``types`` (never a bool); ``default``
    when the key is absent, or null while ``default`` is null too."""
    if key not in obj or (obj[key] is None and default is None and not required):
        if required:
            raise error(f"{_join(path, key)}: missing required field")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise error(f"{_join(path, key)}: expected {expected}, got {value!r}")
    return value


def _check_min(value, path, key, error, minimum) -> None:
    if minimum is not None and value is not None and value < minimum:
        raise error(f"{_join(path, key)}: must be >= {minimum}, got {value}")


def _get_number(
    obj: Dict[str, Any], path: str, key: str, error: Type[ValueError],
    default: Optional[float] = None, positive: bool = False,
    minimum: Optional[float] = None, maximum: Optional[float] = None,
    required: bool = False,
) -> Optional[float]:
    """Field ``key`` of ``obj`` as a float (a JSON int or float)."""
    value = _get(obj, path, key, error, default, required, (int, float), "a number")
    if value is None:
        return None
    if positive and value <= 0:
        raise error(f"{_join(path, key)}: must be positive, got {value!r}")
    _check_min(value, path, key, error, minimum)
    if maximum is not None and value > maximum:
        raise error(f"{_join(path, key)}: must be <= {maximum}, got {value}")
    return float(value)


def _get_int(
    obj: Dict[str, Any], path: str, key: str, error: Type[ValueError],
    default: Optional[int] = None, minimum: Optional[int] = None,
    required: bool = False,
) -> Optional[int]:
    """Field ``key`` of ``obj`` as an int (a JSON integer, never a float)."""
    value = _get(obj, path, key, error, default, required, int, "an integer")
    _check_min(value, path, key, error, minimum)
    return value


def _get_str(
    obj: Dict[str, Any], path: str, key: str, error: Type[ValueError],
    default: Optional[str] = None, required: bool = False,
) -> Optional[str]:
    """Field ``key`` of ``obj`` as a non-empty string."""
    value = _get(obj, path, key, error, default, required, str, "a non-empty string")
    if value == "":
        raise error(f"{_join(path, key)}: expected a non-empty string, got ''")
    return value


def _reject_unknown(
    obj: Dict[str, Any], path: str, allowed: Collection[str],
    error: Type[ValueError], noun: str = "keys",
) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise error(
            _at(path, f"unknown {noun} {unknown}; valid keys are {sorted(allowed)}")
        )
