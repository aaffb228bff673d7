"""Typed runtime events and deterministic failure injection.

The static schedulers (``core/``) emit a compile-time schedule; this
module describes what can happen to it *at run time*:

* :class:`TaskArrival` — a new task joins the graph with dependencies
  on already-known tasks (an online job submission);
* :class:`ProcFailure` — a processor stops accepting *new* work at the
  event time.  Work that started earlier **drains**: the paper's model
  has no checkpointing, so re-executing a finished-or-running task
  would cascade into the committed prefix.  Fail-stop-for-new-work /
  drain-for-old-work keeps the committed prefix byte-identical, which
  is the invariant the repair engine is built around;
* :class:`LinkFailure` — a link stops accepting new messages; hops
  already in flight (started before the event) drain the same way.

Event *injection* is deterministic: :class:`FailureInjector` derives
every draw from a :class:`~repro.util.rng.RngStream` fork named by the
event kind and index, so a :class:`Scenario` token (``"f1l1a2s7"``)
fully determines the event list for a given system — scenario tokens
are cache-key material (see ``Cell.scenario``).

Event traces round-trip through a small JSON format
(``repro-event-trace`` version 1) so ``repro simulate`` can consume
hand-written or recorded traces as well as injected ones.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.network.topology import Link, Proc, Topology, link_id
from repro.util.checked import is_int, is_number, is_task_id, loads, want
from repro.util.rng import RngStream

__all__ = [
    "TaskArrival",
    "ProcFailure",
    "LinkFailure",
    "Event",
    "Scenario",
    "parse_scenario",
    "FailureInjector",
    "sort_events",
    "events_to_dict",
    "events_from_dict",
    "write_event_trace",
    "read_event_trace",
    "EVENT_TRACE_FORMAT",
    "EVENT_TRACE_VERSION",
]

EVENT_TRACE_FORMAT = "repro-event-trace"
EVENT_TRACE_VERSION = 1


@dataclass(frozen=True)
class TaskArrival:
    """A new task arrives at virtual time ``time``.

    ``deps`` lists ``(predecessor, comm_cost)`` pairs over tasks that
    already exist; an arrival can therefore never create a cycle.
    ``exec_row`` optionally pins per-processor execution costs; when
    absent the task costs ``cost`` on every processor.
    """

    time: float
    task: object
    cost: float
    deps: Tuple[Tuple[object, float], ...] = ()
    exec_row: Optional[Tuple[float, ...]] = None

    kind = "arrival"


@dataclass(frozen=True)
class ProcFailure:
    """Processor ``proc`` accepts no new work from ``time`` on."""

    time: float
    proc: Proc

    kind = "proc_failure"


@dataclass(frozen=True)
class LinkFailure:
    """Link ``link`` accepts no new messages from ``time`` on."""

    time: float
    link: Link

    kind = "link_failure"


Event = Union[TaskArrival, ProcFailure, LinkFailure]

_KIND_RANK = {"arrival": 0, "proc_failure": 1, "link_failure": 2}


def _event_sort_key(ev: Event):
    tail = (
        repr(ev.task)
        if isinstance(ev, TaskArrival)
        else repr(ev.proc) if isinstance(ev, ProcFailure) else repr(ev.link)
    )
    return (ev.time, _KIND_RANK[ev.kind], tail)


def sort_events(events: Sequence[Event]) -> List[Event]:
    """Deterministic simulation order: time, then kind, then payload."""
    return sorted(events, key=_event_sort_key)


# ---------------------------------------------------------------------------
# scenario tokens


_SCENARIO_RE = re.compile(r"\A(?:f(\d+))?(?:l(\d+))?(?:a(\d+))?s(\d+)\Z")


@dataclass(frozen=True)
class Scenario:
    """A seeded event-injection recipe, rendered as a compact token.

    The token (``f{procs}l{links}a{arrivals}s{seed}``, zero-count parts
    omitted) is what lands in ``Cell.key()`` — two scenarios that differ
    in any count or the seed can never alias one cache entry.

    >>> Scenario(1, 1, 2, 7).token()
    'f1l1a2s7'
    >>> parse_scenario("f1a2s7") == Scenario(1, 0, 2, 7)
    True
    """

    n_proc_failures: int = 0
    n_link_failures: int = 0
    n_arrivals: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_proc_failures", "n_link_failures", "n_arrivals", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ConfigurationError(
                    f"scenario {name} must be a non-negative int, got {v!r}"
                )

    def token(self) -> str:
        parts = []
        if self.n_proc_failures:
            parts.append(f"f{self.n_proc_failures}")
        if self.n_link_failures:
            parts.append(f"l{self.n_link_failures}")
        if self.n_arrivals:
            parts.append(f"a{self.n_arrivals}")
        parts.append(f"s{self.seed}")
        return "".join(parts)


def parse_scenario(text: str) -> Scenario:
    """Invert :meth:`Scenario.token`.

    >>> parse_scenario("f2s0")
    Scenario(n_proc_failures=2, n_link_failures=0, n_arrivals=0, seed=0)
    """
    m = _SCENARIO_RE.match(text or "")
    if not m:
        raise ConfigurationError(
            f"malformed scenario token {text!r} "
            f"(expected f<procs>l<links>a<arrivals>s<seed>, e.g. 'f1a2s0')"
        )
    f, l, a, s = (int(g) if g else 0 for g in m.groups())
    return Scenario(n_proc_failures=f, n_link_failures=l, n_arrivals=a, seed=s)


# ---------------------------------------------------------------------------
# deterministic injection


def _alive_connected(topology: Topology, dead_procs, dead_links) -> bool:
    """Are the alive processors still one component over alive links?"""
    alive = [p for p in topology.processors if p not in dead_procs]
    if not alive:
        return False
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        p = stack.pop()
        for q in topology.neighbors(p):
            if q in dead_procs or q in seen:
                continue
            if link_id(p, q) in dead_links:
                continue
            seen.add(q)
            stack.append(q)
    return len(seen) == len(alive)


class FailureInjector:
    """Draw a :class:`Scenario`'s events deterministically for a system.

    Every draw forks the scenario seed by ``(kind, index)``, so the
    event list is a pure function of ``(system, scenario, horizon)`` —
    independent of call order, process, or hotpath mode.  Failure
    targets are restricted to choices that keep the alive processors
    connected (and at least two of them alive), so a repair always has
    somewhere to put the tail.
    """

    def __init__(self, system, scenario: Scenario, horizon: float):
        if horizon <= 0:
            raise ConfigurationError(
                f"injection horizon must be positive, got {horizon}"
            )
        self.system = system
        self.scenario = scenario
        self.horizon = float(horizon)

    def _time(self, kind: str, i: int) -> float:
        rng = RngStream(self.scenario.seed).fork("time", kind, i)
        return rng.uniform(0.1, 0.85) * self.horizon

    def events(self) -> List[Event]:
        scn = self.scenario
        system = self.system
        topo = system.topology
        graph = system.graph
        events: List[Event] = []

        dead_procs: set = set()
        dead_links: set = set()
        for i in range(scn.n_proc_failures):
            rng = RngStream(scn.seed).fork("proc", i)
            candidates = [
                p
                for p in topo.processors
                if p not in dead_procs
                and len(topo.processors) - len(dead_procs) - 1 >= 2
                and _alive_connected(topo, dead_procs | {p}, dead_links)
            ]
            if not candidates:
                raise ConfigurationError(
                    f"scenario {scn.token()!r} cannot fail {scn.n_proc_failures} "
                    f"processors of {topo.name!r} without disconnecting it"
                )
            p = rng.choice(candidates)
            dead_procs.add(p)
            events.append(ProcFailure(time=self._time("proc", i), proc=p))

        for i in range(scn.n_link_failures):
            rng = RngStream(scn.seed).fork("link", i)
            candidates = [
                l
                for l in topo.links
                if link_id(*l) not in dead_links
                and _alive_connected(topo, dead_procs, dead_links | {link_id(*l)})
            ]
            if not candidates:
                raise ConfigurationError(
                    f"scenario {scn.token()!r} cannot fail {scn.n_link_failures} "
                    f"links of {topo.name!r} without disconnecting it"
                )
            l = rng.choice(candidates)
            dead_links.add(link_id(*l))
            events.append(LinkFailure(time=self._time("link", i), link=link_id(*l)))

        base_tasks = list(graph.tasks())
        mean_exec = graph.mean_exec_cost()
        mean_comm = graph.mean_comm_cost() if graph.n_edges else mean_exec
        if mean_comm <= 0:
            mean_comm = mean_exec
        for i in range(scn.n_arrivals):
            rng = RngStream(scn.seed).fork("arrival", i)
            n_deps = min(len(base_tasks), 1 + i % 2)
            deps = tuple(
                (u, rng.uniform(0.5, 1.5) * mean_comm)
                for u in rng.sample(base_tasks, n_deps)
            )
            events.append(
                TaskArrival(
                    time=self._time("arrival", i),
                    task=f"dyn{i}",
                    cost=rng.uniform(0.5, 1.5) * mean_exec,
                    deps=deps,
                )
            )

        return sort_events(events)


# ---------------------------------------------------------------------------
# event-trace JSON


def _event_to_dict(ev: Event) -> Dict:
    if isinstance(ev, TaskArrival):
        doc: Dict = {
            "type": ev.kind,
            "time": ev.time,
            "task": ev.task,
            "cost": ev.cost,
            "deps": [[u, c] for u, c in ev.deps],
        }
        if ev.exec_row is not None:
            doc["exec_row"] = list(ev.exec_row)
        return doc
    if isinstance(ev, ProcFailure):
        return {"type": ev.kind, "time": ev.time, "proc": ev.proc}
    if isinstance(ev, LinkFailure):
        return {"type": ev.kind, "time": ev.time, "link": list(ev.link)}
    raise ConfigurationError(f"unknown event object {ev!r}")


def events_to_dict(events: Sequence[Event]) -> Dict:
    """Render events as a ``repro-event-trace`` JSON document."""
    return {
        "format": EVENT_TRACE_FORMAT,
        "version": EVENT_TRACE_VERSION,
        "events": [_event_to_dict(ev) for ev in sort_events(events)],
    }


def _task_id_from_json(tid):
    """JSON has no tuples, so list task ids (the generated workloads'
    ``('U', 1, 2)`` style) come back as lists — restore them. Only a
    str, an int or a flat list of them is a task id."""
    if isinstance(tid, list) and all(map(is_task_id, tid)):
        return tuple(tid)
    if is_task_id(tid):
        return tid
    raise TypeError(
        f"task id {tid!r:.60} is not a str, an int or a flat list of them")


def _finite(name: str, value) -> float:
    if not math.isfinite(want(value, is_number, name, ValueError)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _event_from_dict(doc: Dict) -> Event:
    try:
        etype = doc["type"]
        time = _finite("time", doc["time"])
        if etype == "arrival":
            exec_row = doc.get("exec_row")
            return TaskArrival(
                time=time,
                task=_task_id_from_json(doc["task"]),
                cost=_finite("cost", doc["cost"]),
                deps=tuple(
                    (_task_id_from_json(u), _finite("dependency cost", c))
                    for u, c in want(doc.get("deps", []), list, "deps", ValueError)
                ),
                exec_row=None if exec_row is None else tuple(
                    _finite("exec_row entry", c)
                    for c in want(exec_row, list, "exec_row", ValueError)),
            )
        if etype == "proc_failure":
            proc = want(doc["proc"], is_int, "proc", ValueError)
            return ProcFailure(time=time, proc=proc)
        if etype == "link_failure":
            a, b = (want(p, is_int, "link end", ValueError) for p in doc["link"])
            return LinkFailure(time=time, link=link_id(a, b))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed event record {doc!r}: {exc}") from None
    raise ConfigurationError(f"unknown event type {etype!r}")


def events_from_dict(doc: Dict) -> List[Event]:
    """Parse a ``repro-event-trace`` document back into typed events.

    Task ids that were tuples before JSON serialization (the generated
    workloads use them) come back as lists; they are restored to tuples
    here so they can be used as graph keys again.
    """
    want(doc, dict, "event trace", ConfigurationError)
    if doc.get("format") != EVENT_TRACE_FORMAT:
        raise ConfigurationError(
            f"not an event trace (format={doc.get('format')!r}, "
            f"expected {EVENT_TRACE_FORMAT!r})"
        )
    if doc.get("version") != EVENT_TRACE_VERSION:
        raise ConfigurationError(
            f"unsupported event-trace version {doc.get('version')!r}"
        )
    events = want(doc.get("events"), list, "event trace field events",
                  ConfigurationError)
    return sort_events([_event_from_dict(e) for e in events])


def write_event_trace(events: Sequence[Event], path: str, indent: int = 2) -> None:
    """Write events to ``path`` as a deterministic JSON trace file."""
    with open(path, "w") as fh:
        json.dump(events_to_dict(events), fh, indent=indent)
        fh.write("\n")


def read_event_trace(path: str) -> List[Event]:
    """Load an event-trace file written by :func:`write_event_trace`."""
    with open(path, "rb") as fh:
        data = fh.read()
    return events_from_dict(loads(data, ConfigurationError, f"event trace {path}"))
