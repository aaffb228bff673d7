"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc. are never
wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Structural problem with a task graph (cycle, unknown task, ...)."""


class CycleError(GraphError):
    """A directed cycle was found where a DAG is required.

    Attributes
    ----------
    nodes:
        A list of node identifiers known to participate in (or be blocked
        behind) the cycle; useful for debugging order-based schedules.
    """

    def __init__(self, message: str, nodes=None):
        super().__init__(message)
        self.nodes = list(nodes) if nodes is not None else []


class DisconnectedGraphError(GraphError):
    """The task graph is not weakly connected (the paper assumes it is)."""


class TopologyError(ReproError):
    """Invalid processor network description."""


class RoutingError(ReproError):
    """No route exists between two processors, or a route is malformed."""


class SchedulingError(ReproError):
    """An algorithm could not produce a schedule."""


class InvalidScheduleError(ReproError):
    """A schedule violates a correctness constraint.

    Raised by :func:`repro.schedule.validator.validate_schedule` with a
    human-readable list of violations.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        preview = "\n  - ".join(self.violations[:25])
        more = "" if len(self.violations) <= 25 else f"\n  (+{len(self.violations) - 25} more)"
        super().__init__(f"invalid schedule ({len(self.violations)} violations):\n  - {preview}{more}")


class ConfigurationError(ReproError):
    """Invalid experiment or algorithm configuration."""


class WorkloadError(ReproError):
    """A workload generator received unusable parameters."""


class RequestTooLargeError(ReproError):
    """A service request body is larger than the server accepts."""
