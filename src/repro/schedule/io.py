"""Schedule serialization — export a schedule for downstream tooling.

Two export granularities:

* the **schedule** dict/JSON form (:func:`schedule_to_dict`) records
  the platform identity, every task slot, and every message route with
  per-hop timing. It is self-contained enough to re-render a Gantt
  chart or audit contention in another tool; importing it back into a
  :class:`Schedule` requires the original system object (costs are not
  duplicated in the export);
* the **bundle** form (:func:`bundle_to_dict` / :func:`write_bundle`)
  additionally embeds the task graph as a workflow-trace dict (exact
  per-processor cost vectors), the topology dict (links + specs), and
  the link-heterogeneity parameters — everything needed to rebuild the
  system and replay the schedule through the validator *without* the
  generating code. ``read_bundle`` + ``validate_schedule`` is a full
  audit of a schedule produced elsewhere.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Optional

from repro.errors import SchedulingError
from repro.network.system import HeterogeneousSystem
from repro.schedule.schedule import Schedule

_FORMAT_VERSION = 1

BUNDLE_FORMAT = "repro-schedule-bundle"
BUNDLE_VERSION = 1

_NUMBER = (int, float)
_KIND_NAMES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    bool: "true or false", _NUMBER: "a number",
}


def _expect(value, kind, field: str):
    """``value`` when it is a ``kind`` (a bool passes only as a bool),
    else a :class:`SchedulingError` naming the bundle ``field``: bundles
    are untrusted input, so a malformed one fails typed, not with a
    ``KeyError`` or ``TypeError`` from deep inside the rebuild."""
    if isinstance(value, kind) and (kind is bool or type(value) is not bool):
        return value
    raise SchedulingError(
        f"bundle field {field} must be {_KIND_NAMES[kind]}, got {value!r:.60}"
    )


def _numbers(value, field: str, length: int):
    """``value`` when it is a list of ``length`` numbers."""
    _expect(value, list, field)
    if len(value) != length:
        raise SchedulingError(
            f"bundle field {field} must hold {length} numbers, got {len(value)}"
        )
    for i, x in enumerate(value):
        _expect(x, _NUMBER, f"{field}[{i}]")
    return value


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Lossless plain-dict export of assignments, times and routes."""
    return {
        "version": _FORMAT_VERSION,
        "algorithm": schedule.algorithm,
        "graph": schedule.system.graph.name,
        "topology": schedule.system.topology.name,
        "schedule_length": schedule.schedule_length(),
        "tasks": [
            {
                "task": repr(t),
                "proc": slot.proc,
                "start": slot.start,
                "finish": slot.finish,
            }
            for t, slot in schedule.slots.items()
        ],
        "messages": [
            {
                "edge": [repr(e[0]), repr(e[1])],
                "local": route.is_local,
                "hops": [
                    {
                        "src": h.src,
                        "dst": h.dst,
                        "start": h.start,
                        "finish": h.finish,
                    }
                    for h in route.hops
                ],
            }
            for e, route in schedule.routes.items()
        ],
    }


def schedule_to_json(schedule: Schedule, indent: int = None) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_dict(data: Dict[str, Any], system: HeterogeneousSystem) -> Schedule:
    """Rebuild a schedule over ``system`` from :func:`schedule_to_dict` output.

    Task ids are matched by repr against the system's graph (ints and
    strings round-trip; other id types need a custom loader).
    """
    _expect(data, dict, "schedule")
    if data.get("version") != _FORMAT_VERSION:
        raise SchedulingError(f"unsupported schedule format {data.get('version')!r}")
    by_repr = {repr(t): t for t in system.graph.tasks()}
    n_procs = system.n_procs

    sched = Schedule(system, algorithm=_expect(
        data.get("algorithm", "imported"), str, "schedule.algorithm"))
    for i, entry in enumerate(_expect(data.get("tasks"), list, "schedule.tasks")):
        field = f"schedule.tasks[{i}]"
        _expect(entry, dict, field)
        task = by_repr.get(_expect(entry.get("task"), str, f"{field}.task"))
        if task is None:
            raise SchedulingError(f"unknown task {entry['task']!r} in import")
        proc = _expect(entry.get("proc"), int, f"{field}.proc")
        if not 0 <= proc < n_procs:
            raise SchedulingError(
                f"bundle field {field}.proc names processor {proc} of {n_procs}"
            )
        sched.place_task(task, proc, start=_expect(
            entry.get("start"), _NUMBER, f"{field}.start"))
    for i, msg in enumerate(_expect(data.get("messages"), list, "schedule.messages")):
        field = f"schedule.messages[{i}]"
        _expect(msg, dict, field)
        edge = _expect(msg.get("edge"), list, f"{field}.edge")
        if len(edge) != 2:
            raise SchedulingError(f"bundle field {field}.edge must name 2 tasks")
        u, v = (by_repr.get(_expect(t, str, f"{field}.edge")) for t in edge)
        if u is None or v is None:
            raise SchedulingError(f"unknown edge {edge} in import")
        local = _expect(msg.get("local"), bool, f"{field}.local")
        hops = _expect(msg.get("hops"), list, f"{field}.hops")
        for j, hop in enumerate(hops):
            where = f"{field}.hops[{j}]"
            _expect(hop, dict, where)
            _expect(hop.get("src"), int, f"{where}.src")
            _expect(hop.get("dst"), int, f"{where}.dst")
            _expect(hop.get("start"), _NUMBER, f"{where}.start")
        if local or not hops:
            sched.mark_local((u, v))
        else:
            path = [hops[0]["src"]] + [h["dst"] for h in hops]
            starts = [h["start"] for h in hops]
            sched.set_route((u, v), path, hop_starts=starts)
    return sched


def schedule_from_json(text: str, system: HeterogeneousSystem) -> Schedule:
    return schedule_from_dict(json.loads(text), system)


# ----------------------------------------------------------------------
# bundles: schedule + graph + topology + link model, fully replayable
# ----------------------------------------------------------------------

def bundle_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Self-contained export: the schedule plus everything needed to
    rebuild its system (trace-dict graph with exact exec vectors and
    nominal costs, topology dict, link-model parameters).

    Task ids must be interchange-safe (int/str) — relabel with
    :func:`repro.graph.interchange.relabel_tasks` first if they are not.
    """
    from repro.graph.interchange import ExternalWorkload, trace_to_dict

    system = schedule.system
    graph = system.graph
    workload = ExternalWorkload(
        graph=graph,
        exec_costs={t: system.exec_cost_row(t) for t in graph.tasks()},
    )
    return {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "graph": trace_to_dict(workload),
        # the trace convention derives nominal costs from the vectors
        # (fastest processor); record the graph's own nominal costs so
        # the rebuilt system is exact even when they differ
        "nominal_costs": [graph.cost(t) for t in graph.tasks()],
        "topology": system.topology.to_dict(),
        "link_model": {
            "mode": system.link_mode.name,
            "factor_range": list(system.link_factor_range),
            "seed": system.link_seed,
            "per_link": {
                f"{a}-{b}": factor
                for (a, b), factor in sorted(system.per_link_factors.items())
            },
        },
        "schedule": schedule_to_dict(schedule),
    }


def bundle_from_dict(data: Dict[str, Any]) -> Schedule:
    """Rebuild system and schedule from :func:`bundle_to_dict` output."""
    from repro.graph.interchange import trace_from_dict
    from repro.network.system import LinkHeterogeneity
    from repro.network.topology import Topology

    if not isinstance(data, dict) or data.get("format") != BUNDLE_FORMAT:
        raise SchedulingError(
            f"not a {BUNDLE_FORMAT} document "
            + (f"(format={data.get('format')!r})" if isinstance(data, dict) else "")
        )
    if data.get("version") != BUNDLE_VERSION:
        raise SchedulingError(
            f"unsupported bundle version {data.get('version')!r}"
        )
    workload = trace_from_dict(_expect(data.get("graph"), dict, "graph"))
    if workload.exec_costs is None:
        raise SchedulingError("bundle graph carries no exec-cost vectors")
    graph = workload.graph
    nominal = data.get("nominal_costs")
    if nominal is not None:
        _numbers(nominal, "nominal_costs", graph.n_tasks)
        for t, cost in zip(graph.tasks(), nominal):
            graph.set_task_cost(t, cost)
    topology = Topology.from_dict(_expect(data.get("topology"), dict, "topology"))
    lm = _expect(data.get("link_model", {}), dict, "link_model")
    try:
        mode = LinkHeterogeneity[
            _expect(lm.get("mode", "HOMOGENEOUS"), str, "link_model.mode")]
    except KeyError:
        raise SchedulingError(
            f"unknown link heterogeneity mode {lm.get('mode')!r}"
        ) from None
    per_link = {}
    for key, factor in _expect(lm.get("per_link", {}), dict, "link_model.per_link").items():
        a, _, b = key.partition("-")
        if not (a.isdecimal() and b.isdecimal()):
            raise SchedulingError(
                f"bundle field link_model.per_link key {key!r} is not '<proc>-<proc>'"
            )
        per_link[int(a), int(b)] = _expect(
            factor, _NUMBER, f"link_model.per_link[{key!r}]")
    system = HeterogeneousSystem.from_exec_table(
        graph,
        topology,
        workload.exec_costs,
        link_mode=mode,
        per_link_factors=per_link or None,
        link_factor_range=tuple(_numbers(
            lm.get("factor_range", [1.0, 1.0]), "link_model.factor_range", 2)),
        link_seed=_expect(lm.get("seed", 0), int, "link_model.seed"),
    )
    return schedule_from_dict(data.get("schedule"), system)


def relabel_schedule(schedule: Schedule) -> Schedule:
    """Value-identical copy whose task ids are interchange-safe.

    The generated regular applications use tuple task ids, which the
    bundle format rejects; this maps them through
    :func:`repro.graph.interchange.relabel_tasks`' default rename and
    rebuilds system + schedule with every time, order, and route
    preserved exactly.  Already-safe schedules are returned unchanged
    (not copied).

    ``PER_MESSAGE_LINK`` systems whose ids actually change cannot be
    relabeled exactly — their link factors are stable hashes keyed by
    task id, so renamed edges would draw different factors — and raise
    :class:`~repro.errors.SchedulingError` instead of exporting a
    bundle that fails its own replay audit.
    """
    from repro.graph.interchange import _is_interchange_id, relabel_tasks
    from repro.network.system import LinkHeterogeneity

    system = schedule.system
    graph = system.graph
    if all(_is_interchange_id(t) for t in graph.tasks()):
        return schedule
    if system.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK:
        raise SchedulingError(
            "cannot relabel a schedule over a PER_MESSAGE_LINK system: "
            "link factors are keyed by task id, so renamed ids would "
            "change communication costs"
        )
    new_graph = relabel_tasks(graph)
    mapping = dict(zip(graph.tasks(), new_graph.tasks()))
    new_system = HeterogeneousSystem(
        new_graph,
        system.topology,
        {mapping[t]: system.exec_cost_row(t) for t in graph.tasks()},
        link_mode=system.link_mode,
        link_factor_range=system.link_factor_range,
        link_seed=system.link_seed,
        per_link_factors=system.per_link_factors or None,
    )
    out = schedule.copy()  # fresh slot/hop/route objects, orders preserved
    out.system = new_system
    out.slots = {mapping[t]: s for t, s in out.slots.items()}
    for s in out.slots.values():
        s.task = mapping[s.task]
    out.proc_order = {
        p: [mapping[t] for t in order] for p, order in out.proc_order.items()
    }
    new_routes = {}
    for (u, v), route in out.routes.items():
        ne = (mapping[u], mapping[v])
        route.edge = ne
        for h in route.hops:  # link_order shares these hop objects
            h.edge = ne
        new_routes[ne] = route
    out.routes = new_routes
    return out


# ----------------------------------------------------------------------
# the canonical indent=2 text, written without the pure-Python encoder
# ----------------------------------------------------------------------
# CPython serves json.dumps from its C encoder only when indent is None,
# and four lists hold most of a bundle's bytes: graph.tasks,
# graph.edges, schedule.tasks and schedule.messages (one record per
# hop). Each has a writer for its fixed shape that emits exactly what
# json.dumps(indent=2) emits at its depth; every other value still goes
# through json.dumps(indent=2), re-indented to its depth (safe: the
# ensure_ascii output never holds a raw newline). An entry off its
# shape sends the whole document back to json.dumps(indent=2), which
# stays the oracle the tests compare against.

class _OffShape(Exception):
    """A bulk-list entry does not have the shape its writer emits."""


_INF = float("inf")
_float_repr = float.__repr__
_int_repr = int.__repr__


def _number(x) -> str:
    """json's text for an exact int or float (NaN/Infinity spelled as
    json spells them); anything else, bool included, is off shape."""
    kind = type(x)
    if kind is float:
        if -_INF < x < _INF:
            return _float_repr(x)
        return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
    if kind is int:
        return _int_repr(x)
    raise _OffShape


def _id(x) -> str:
    """json's text for an exact str or int task id."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return _int_repr(x)
    raise _OffShape


def _list(items, level: int) -> str:
    """A list of already-written items whose lines sit at ``level``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * level
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * (level - 1) + "]"


def _entry_template(keys, level: int) -> str:
    """``%``-template of a dict with ``keys`` written as an item at ``level``."""
    pad = "\n" + "  " * (level + 1)
    fields = ",".join(f"{pad}{encode_basestring_ascii(k)}: %s" for k in keys)
    return "{" + fields + "\n" + "  " * level + "}"


def _rows(entries, keys):
    """The values of each entry of a list of dicts keyed exactly ``keys``."""
    if type(entries) is not list:
        raise _OffShape
    for entry in entries:
        if type(entry) is not dict or tuple(entry) != keys:
            raise _OffShape
        yield entry.values()


# the four lists' items sit at level 3: bundle -> section -> list -> item
_GRAPH_TASK_KEYS = ("id", "costs")
_GRAPH_EDGE_KEYS = ("src", "dst", "comm")
_TASK_KEYS = ("task", "proc", "start", "finish")
_MESSAGE_KEYS = ("edge", "local", "hops")
_HOP_KEYS = ("src", "dst", "start", "finish")
_GRAPH_TASK = _entry_template(_GRAPH_TASK_KEYS, 3)
_GRAPH_EDGE = _entry_template(_GRAPH_EDGE_KEYS, 3)
_TASK = _entry_template(_TASK_KEYS, 3)
_MESSAGE = _entry_template(_MESSAGE_KEYS, 3)
_HOP = _entry_template(_HOP_KEYS, 5)


def _graph_tasks(tasks) -> str:
    out = []
    for tid, costs in _rows(tasks, _GRAPH_TASK_KEYS):
        if type(costs) is not list:
            raise _OffShape
        out.append(_GRAPH_TASK % (_id(tid), _list([*map(_number, costs)], 5)))
    return _list(out, 3)


def _graph_edges(edges) -> str:
    return _list([
        _GRAPH_EDGE % (_id(u), _id(v), _number(comm))
        for u, v, comm in _rows(edges, _GRAPH_EDGE_KEYS)
    ], 3)


def _schedule_tasks(tasks) -> str:
    return _list([
        _TASK % (_id(task), _number(proc), _number(start), _number(finish))
        for task, proc, start, finish in _rows(tasks, _TASK_KEYS)
    ], 3)


def _schedule_messages(messages) -> str:
    out = []
    for edge, local, hops in _rows(messages, _MESSAGE_KEYS):
        if type(edge) is not list or type(local) is not bool:
            raise _OffShape
        out.append(_MESSAGE % (
            _list([*map(_id, edge)], 5),
            "true" if local else "false",
            _list([
                _HOP % (_number(a), _number(b), _number(start), _number(finish))
                for a, b, start, finish in _rows(hops, _HOP_KEYS)
            ], 5),
        ))
    return _list(out, 3)


def _object(obj, level: int, writers) -> str:
    """A dict whose keys sit at ``level``: keys named in ``writers`` go
    through their writer, every other value through json.dumps(indent=2)."""
    if type(obj) is not dict:
        raise _OffShape
    if not obj:
        return "{}"
    pad = "\n" + "  " * level
    parts = []
    for key, value in obj.items():
        if type(key) is not str:
            raise _OffShape
        write = writers.get(key)
        text = write(value) if write else json.dumps(value, indent=2).replace("\n", pad)
        parts.append(f"{pad}{encode_basestring_ascii(key)}: {text}")
    return "{" + ",".join(parts) + "\n" + "  " * (level - 1) + "}"


_SECTION_WRITERS = {
    "graph": lambda graph: _object(
        graph, 2, {"tasks": _graph_tasks, "edges": _graph_edges}),
    "schedule": lambda sched: _object(
        sched, 2, {"tasks": _schedule_tasks, "messages": _schedule_messages}),
}


def _bundle_text(doc) -> Optional[str]:
    """``json.dumps(doc, indent=2)`` for a :func:`bundle_to_dict` document,
    or None when some part of it is off the writers' fixed shapes."""
    try:
        return _object(doc, 1, _SECTION_WRITERS)
    except _OffShape:
        return None


def bundle_to_json(schedule: Schedule, indent: Optional[int] = None) -> str:
    """The bundle as JSON text; ``indent=2`` is the canonical artifact,
    written by the fixed-shape writers above with json.dumps as fallback."""
    doc = bundle_to_dict(schedule)
    if indent == 2:
        text = _bundle_text(doc)
        if text is not None:
            return text
    return json.dumps(doc, indent=indent)


def bundle_from_json(text: str) -> Schedule:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise SchedulingError(f"bundle is not valid JSON: {exc}") from None
    return bundle_from_dict(data)


def write_bundle(schedule: Schedule, path: str, indent: Optional[int] = None) -> None:
    """Write a replayable schedule bundle to ``path`` (JSON)."""
    with open(path, "w") as fh:
        fh.write(bundle_to_json(schedule, indent=indent) + "\n")


def read_bundle(path: str) -> Schedule:
    """Read a bundle back into a fully-bound :class:`Schedule` — no
    generating code needed; feed the result to ``validate_schedule``
    for a complete replay audit."""
    with open(path) as fh:
        return bundle_from_json(fh.read())
