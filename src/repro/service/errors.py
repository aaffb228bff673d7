"""The library-wide error table: one place where every
:class:`~repro.errors.ReproError` subclass gets a stable machine-readable
identity.

Three consumers share it:

* the CLI — ``repro.cli.main`` catches library errors and exits with the
  table's **exit code** (every subclass has a distinct, documented one;
  ``repro --json ...`` prints the structured payload instead of prose);
* the HTTP server — ``repro serve`` renders failures as the table's
  **HTTP status** plus the same payload as the response body;
* tests and docs — the README's error-code table is pinned to
  :data:`ERROR_TABLE` by ``tests/test_docs.py``, so the documentation
  can never drift from the code.

The payload shape is ``{"error": <exception class>, "kind": <stable
kebab-case category>, "detail": <message>}`` plus ``"violations"`` (a
list of strings) when the failure is an
:class:`~repro.errors.InvalidScheduleError` carrying individual
validator findings.

Exit codes 0 (success) and 2 (usage / configuration) keep their
conventional meanings — ``argparse`` itself exits 2 on unparseable
flags, and a :class:`~repro.errors.ConfigurationError` is the library
spelling of the same problem. Exit 1 stays "the schedule is invalid"
(``repro replay`` has always used it for a failed audit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.errors import (
    ConfigurationError,
    CycleError,
    DisconnectedGraphError,
    GraphError,
    InvalidScheduleError,
    ReproError,
    RequestTooLargeError,
    RoutingError,
    SchedulingError,
    TopologyError,
    WorkloadError,
)

__all__ = [
    "ErrorSpec",
    "ERROR_TABLE",
    "error_spec",
    "error_payload",
    "exit_code_for",
    "http_status_for",
]


@dataclass(frozen=True)
class ErrorSpec:
    """How one error class presents at every transport boundary."""

    kind: str           # stable kebab-case category for machine matching
    exit_code: int      # CLI process exit code (distinct per class)
    http_status: int    # HTTP response status for ``repro serve``


#: the canonical mapping, most-derived classes listed first so a reader
#: can eyeball the precedence :func:`error_spec` resolves via the MRO.
#: OSError is included because "the file is unreadable" is a first-class
#: request failure for a library whose inputs are files.
ERROR_TABLE: Dict[Type[BaseException], ErrorSpec] = {
    InvalidScheduleError: ErrorSpec("invalid-schedule", 1, 500),
    ConfigurationError: ErrorSpec("configuration", 2, 400),
    CycleError: ErrorSpec("cycle", 5, 400),
    DisconnectedGraphError: ErrorSpec("disconnected", 6, 400),
    GraphError: ErrorSpec("graph", 4, 400),
    TopologyError: ErrorSpec("topology", 7, 400),
    RoutingError: ErrorSpec("routing", 8, 422),
    SchedulingError: ErrorSpec("scheduling", 9, 422),
    WorkloadError: ErrorSpec("workload", 10, 400),
    RequestTooLargeError: ErrorSpec("request-too-large", 12, 413),
    ReproError: ErrorSpec("error", 11, 500),
    OSError: ErrorSpec("io", 3, 400),
}


def error_spec(exc: BaseException) -> ErrorSpec:
    """The most specific :class:`ErrorSpec` for ``exc`` (MRO walk, so a
    future ``ReproError`` subclass without its own row inherits its
    parent's presentation instead of crashing the error path)."""
    for klass in type(exc).__mro__:
        spec = ERROR_TABLE.get(klass)
        if spec is not None:
            return spec
    return ErrorSpec("internal", 70, 500)


def error_payload(exc: BaseException) -> dict:
    """The structured ``{error, kind, detail, violations?}`` payload."""
    spec = error_spec(exc)
    payload = {
        "error": type(exc).__name__,
        "kind": spec.kind,
        "detail": str(exc),
    }
    violations = getattr(exc, "violations", None)
    if violations:
        payload["violations"] = [str(v) for v in violations]
    return payload


def exit_code_for(exc: BaseException) -> int:
    return error_spec(exc).exit_code


def http_status_for(exc: BaseException) -> int:
    return error_spec(exc).http_status
