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
  audit of a schedule produced elsewhere. Task ids that are not an int
  or str are renamed as they are written; the canonical text is
  :func:`bundle_to_json`'s ``json.dumps(bundle_to_dict(...), indent=2)``.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Dict, List, Tuple

from repro.errors import SchedulingError
from repro.graph.interchange import (
    TRACE_FORMAT,
    TRACE_VERSION,
    ExternalWorkload,
    interchange_ids,
    relabel_tasks,
    trace_from_dict,
    trace_to_dict,
)
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.schedule.schedule import Schedule
from repro.util.checked import is_int, is_number, loads, want

_FORMAT_VERSION = 1

BUNDLE_FORMAT = "repro-schedule-bundle"
BUNDLE_VERSION = 1


def _expect(value, kind, field: str):
    """:func:`~repro.util.checked.want` for the bundle ``field``: bundles
    are untrusted input, so a malformed one fails typed, not with a
    ``KeyError`` or ``TypeError`` from deep inside the rebuild."""
    return want(value, kind, f"bundle field {field}", SchedulingError)


def _numbers(value, field: str, length: int):
    """``value`` when it is a list of ``length`` numbers."""
    _expect(value, list, field)
    if len(value) != length:
        raise SchedulingError(
            f"bundle field {field} must hold {length} numbers, got {len(value)}"
        )
    for i, x in enumerate(value):
        _expect(x, is_number, f"{field}[{i}]")
    return value


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Lossless plain-dict export of assignments, times and routes."""
    return _schedule_dict(schedule, repr)


def _schedule_dict(schedule: Schedule, name) -> Dict[str, Any]:
    """:func:`schedule_to_dict` with each task id written as ``name(id)``."""
    return {
        "version": _FORMAT_VERSION,
        "algorithm": schedule.algorithm,
        "graph": schedule.system.graph.name,
        "topology": schedule.system.topology.name,
        "schedule_length": schedule.schedule_length(),
        "tasks": [
            {
                "task": name(t),
                "proc": slot.proc,
                "start": slot.start,
                "finish": slot.finish,
            }
            for t, slot in schedule.slots.items()
        ],
        "messages": [
            {
                "edge": [name(e[0]), name(e[1])],
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


def read_schedule_section(data) -> Tuple[List[tuple], List[tuple]]:
    """Check every field of a schedule section (:func:`schedule_to_dict`'s
    shape) and return its records: ``(task, proc, start, finish)`` per
    task and ``(u, v, local, hops)`` per message, each hop ``(src, dst,
    start, finish)``, task ids as written. A malformed field, or a
    ``schedule_length`` other than the latest recorded finish, raises a
    :class:`SchedulingError` naming it. :func:`schedule_from_dict` and
    ``repro trace`` both read through this.
    """
    _expect(data, dict, "schedule")
    if data.get("version") != _FORMAT_VERSION:
        raise SchedulingError(f"unsupported schedule format {data.get('version')!r}")
    _expect(data.get("algorithm", "imported"), str, "schedule.algorithm")
    tasks = []
    for i, entry in enumerate(_expect(data.get("tasks"), list, "schedule.tasks")):
        field = f"schedule.tasks[{i}]"
        _expect(entry, dict, field)
        tasks.append((_expect(entry.get("task"), str, f"{field}.task"),
                      _expect(entry.get("proc"), is_int, f"{field}.proc"),
                      _expect(entry.get("start"), is_number, f"{field}.start"),
                      _expect(entry.get("finish"), is_number, f"{field}.finish")))
    messages = []
    for i, msg in enumerate(_expect(data.get("messages"), list, "schedule.messages")):
        field = f"schedule.messages[{i}]"
        _expect(msg, dict, field)
        edge = _expect(msg.get("edge"), list, f"{field}.edge")
        if len(edge) != 2:
            raise SchedulingError(f"bundle field {field}.edge must name 2 tasks")
        u, v = (_expect(t, str, f"{field}.edge") for t in edge)
        local = _expect(msg.get("local"), bool, f"{field}.local")
        hops = []
        for j, hop in enumerate(_expect(msg.get("hops"), list, f"{field}.hops")):
            where = f"{field}.hops[{j}]"
            _expect(hop, dict, where)
            hops.append((_expect(hop.get("src"), is_int, f"{where}.src"),
                         _expect(hop.get("dst"), is_int, f"{where}.dst"),
                         _expect(hop.get("start"), is_number, f"{where}.start"),
                         _expect(hop.get("finish"), is_number, f"{where}.finish")))
        messages.append((u, v, local, hops))
    length = data.get("schedule_length")
    if length is not None:
        # the same max, over the same order, as Schedule.schedule_length
        latest = max((t[3] for t in tasks), default=0.0)
        if _expect(length, is_number, "schedule.schedule_length") != latest:
            raise SchedulingError(
                f"bundle field schedule.schedule_length is {length!r}, but "
                f"the latest recorded finish is {latest!r}"
            )
    return tasks, messages


def schedule_from_dict(data: Dict[str, Any], system: HeterogeneousSystem) -> Schedule:
    """Rebuild a schedule over ``system`` from :func:`schedule_to_dict` output.

    Task ids are matched by repr against the system's graph (ints and
    strings round-trip; other id types need a custom loader). Every
    recorded time is kept, finishes too, and every hop's recorded source,
    so the validator judges the document's own times and routes: a hop
    that does not leave where the one before it arrived stays that way.
    """
    tasks, messages = read_schedule_section(data)
    by_repr = {repr(t): t for t in system.graph.tasks()}
    n_procs = system.n_procs

    sched = Schedule(system, algorithm=data.get("algorithm", "imported"))
    for i, (name, proc, start, finish) in enumerate(tasks):
        task = by_repr.get(name)
        if task is None:
            raise SchedulingError(f"unknown task {name!r} in import")
        if not 0 <= proc < n_procs:
            raise SchedulingError(
                f"bundle field schedule.tasks[{i}].proc names processor "
                f"{proc} of {n_procs}"
            )
        sched.place_task(task, proc, start=start).finish = finish
    for u, v, local, hops in messages:
        edge = (by_repr.get(u), by_repr.get(v))
        if None in edge:
            raise SchedulingError(f"unknown edge {[u, v]} in import")
        if local or not hops:
            sched.mark_local(edge)
            continue
        path = [hops[0][0]] + [h[1] for h in hops]
        route = sched.set_route(edge, path, hop_starts=[h[2] for h in hops])
        for hop, record in zip(route.hops, hops):
            hop.src = record[0]
            hop.finish = record[3]
    return sched


def schedule_from_json(text: str, system: HeterogeneousSystem) -> Schedule:
    return schedule_from_dict(loads(text, SchedulingError, "schedule"), system)


# ----------------------------------------------------------------------
# bundles: schedule + graph + topology + link model, fully replayable
# ----------------------------------------------------------------------

def bundle_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Self-contained export: the schedule plus everything needed to
    rebuild its system (trace-dict graph with exact exec vectors and
    nominal costs, topology dict, link-model parameters).

    Task ids are written by :func:`~repro.graph.interchange.interchange_ids`
    (tuple ids become strings, without copying the schedule or its
    system), which raises ``GraphError`` for renamed ids that collide
    and ``SchedulingError`` for a ``PER_MESSAGE_LINK`` system whose ids
    need renaming: its link factors are keyed by task id, so the replay
    would draw different hop costs.
    """
    system = schedule.system
    graph = system.graph
    tasks = graph.tasks()
    ids = _export_ids(system)
    named = graph if ids is None else relabel_tasks(graph, ids.__getitem__)
    renamed = dict(zip(tasks, named.tasks()))
    workload = ExternalWorkload(
        graph=named,
        exec_costs={new: system.exec_cost_row(t) for t, new in renamed.items()},
    )
    written = {t: repr(new) for t, new in renamed.items()}
    return {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "graph": trace_to_dict(workload),
        # the trace convention derives nominal costs from the vectors
        # (fastest processor); record the graph's own nominal costs so
        # the rebuilt system is exact even when they differ
        "nominal_costs": [graph.cost(t) for t in tasks],
        "topology": system.topology.to_dict(),
        "link_model": _link_model(system),
        "schedule": _schedule_dict(schedule, written.__getitem__),
    }


def _export_ids(system: HeterogeneousSystem):
    """The system's task -> written id map (None: ids written as is)."""
    return interchange_ids(
        system.graph,
        system.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK)


def _link_model(system: HeterogeneousSystem) -> Dict[str, Any]:
    return {
        "mode": system.link_mode.name,
        "factor_range": list(system.link_factor_range),
        "seed": system.link_seed,
        "per_link": {
            f"{a}-{b}": factor
            for (a, b), factor in sorted(system.per_link_factors.items())
        },
    }


def bundle_from_dict(data: Dict[str, Any]) -> Schedule:
    """Rebuild system and schedule from :func:`bundle_to_dict` output."""
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
            factor, is_number, f"link_model.per_link[{key!r}]")
    system = HeterogeneousSystem.from_exec_table(
        graph,
        topology,
        workload.exec_costs,
        link_mode=mode,
        per_link_factors=per_link or None,
        link_factor_range=tuple(_numbers(
            lm.get("factor_range", [1.0, 1.0]), "link_model.factor_range", 2)),
        link_seed=_expect(lm.get("seed", 0), is_int, "link_model.seed"),
    )
    return schedule_from_dict(data.get("schedule"), system)


# ----------------------------------------------------------------------
# the canonical indent=2 text, written straight from the live schedule
# ----------------------------------------------------------------------
# CPython serves json.dumps from its C encoder only when indent is None.
# bundle_to_json writes the text json.dumps(bundle_to_dict(s), indent=2)
# would, in the same order, from the schedule and its system: json
# writes an exact int or finite float as its repr, which is what %r
# templates emit, so each bulk list's numbers are checked once, at C
# speed, and its rows formatted with one template per row shape. Any
# other value (a NaN time, a float subclass, a bool processor) sends the
# whole schedule to json.dumps(bundle_to_dict(s), indent=2), which stays
# the oracle the tests compare against.

class _OffShape(Exception):
    """A value the direct writer would not write as json.dumps does."""


_INF = float("inf")
_NUMBER_TYPES = frozenset((int, float))


def _checked(values: list) -> list:
    """``values`` when every one is an exact int or float and finite."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise _OffShape
    try:
        total = sum(values)
    except OverflowError:  # an int past float range beside a float
        raise _OffShape from None
    # a NaN or an infinity leaves the sum non-finite (so does an
    # overflowing sum of finite values, which merely takes the fallback)
    if not -_INF < total < _INF:
        raise _OffShape
    return values


def _scalar(x) -> str:
    """json's text for an exact str, int or finite float."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int or (kind is float and -_INF < x < _INF):
        return repr(x)
    raise _OffShape


def _id_text(t) -> str:
    """json's text for an int or str task id (subclasses included)."""
    return encode_basestring_ascii(t) if isinstance(t, str) else int.__repr__(t)


def _items(texts: List[str], level: int) -> str:
    """A list of already-written items whose lines sit at ``level``."""
    if not texts:
        return "[]"
    pad = "\n" + "  " * level
    return "[" + pad + ("," + pad).join(texts) + "\n" + "  " * (level - 1) + "]"


def _entry(level: int, **fields: str) -> str:
    """``%``-template of a dict whose keys sit at ``level + 1``; each
    field maps a key to the text, or the conversion, of its value."""
    pad = "\n" + "  " * (level + 1)
    return ("{" + ",".join(f"{pad}{encode_basestring_ascii(k)}: {v}"
                           for k, v in fields.items())
            + "\n" + "  " * level + "}")


@functools.lru_cache(maxsize=None)
def _graph_task(n_procs: int) -> str:
    return _entry(3, id="%s", costs=_items(["%r"] * n_procs, 5))


# rows sit at level 3 (bundle -> section -> list -> row), hops at 5
_GRAPH_EDGE = _entry(3, src="%s", dst="%s", comm="%r")
_TASK = _entry(3, task="%s", proc="%r", start="%r", finish="%r")
_HOP = _entry(5, src="%r", dst="%r", start="%r", finish="%r")
_MESSAGE = _entry(3, edge=_items(["%s", "%s"], 5), local="%s", hops="%s")
_BUNDLE = _entry(
    0,
    format=encode_basestring_ascii(BUNDLE_FORMAT),
    version=repr(BUNDLE_VERSION),
    graph=_entry(1, format=encode_basestring_ascii(TRACE_FORMAT),
                 version=repr(TRACE_VERSION),
                 name="%(name)s", n_procs="%(n_procs)s",
                 tasks="%(graph_tasks)s", edges="%(graph_edges)s"),
    nominal_costs="%(nominal_costs)s",
    topology="%(topology)s",
    link_model="%(link_model)s",
    schedule=_entry(1, version=repr(_FORMAT_VERSION),
                    algorithm="%(algorithm)s", graph="%(name)s",
                    topology="%(topology_name)s",
                    schedule_length="%(schedule_length)s",
                    tasks="%(tasks)s", messages="%(messages)s"),
)
_SLOT_FIELDS = ("proc", "start", "finish")
_HOP_FIELDS = ("src", "dst", "start", "finish")


def _columns(objects: list, fields) -> List[list]:
    """The ``fields`` attributes of ``objects``, one checked list each."""
    return [_checked(list(map(attrgetter(f), objects))) for f in fields]


def _nested(value, level: int) -> str:
    """json.dumps(indent=2) of a small value whose lines sit at ``level``
    (safe: the ensure_ascii output never holds a raw newline)."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _write_bundle(schedule: Schedule) -> str:
    """The canonical bundle text of ``schedule``; raises _OffShape at a
    value json.dumps would write differently. Each section's row texts
    are joined as soon as they are written, so only the section texts
    are held at the end."""
    system = schedule.system
    graph = system.graph
    topology = system.topology
    tasks = graph.tasks()
    if not tasks:
        raise _OffShape  # trace_to_dict reads n_procs off a task's row
    ids = _export_ids(system)
    new_ids = tasks if ids is None else list(map(ids.__getitem__, tasks))
    id_text = dict(zip(tasks, map(_id_text, new_ids)))
    # the schedule section names a task by the repr of its written id
    names = dict(zip(tasks, map(encode_basestring_ascii, map(repr, new_ids))))
    rows = list(map(system.exec_cost_row, tasks))
    _checked(list(chain.from_iterable(rows)))
    template = _graph_task(len(rows[0]))
    edges = graph.edges()
    comms = _checked(list(starmap(graph.comm_cost, edges)))
    nominal = _checked(list(map(graph.cost, tasks)))
    slots = schedule.slots
    return _BUNDLE % {
        "name": _scalar(graph.name),
        "n_procs": repr(len(rows[0])),
        "graph_tasks": _items([template % (id_text[t], *row)
                               for t, row in zip(tasks, rows)], 3),
        "graph_edges": _items([_GRAPH_EDGE % (id_text[u], id_text[v], comm)
                               for (u, v), comm in zip(edges, comms)], 3),
        "nominal_costs": _items(list(map(repr, nominal)), 2),
        "topology": _nested(topology.to_dict(), 1),
        "link_model": _nested(_link_model(system), 1),
        "algorithm": _scalar(schedule.algorithm),
        "topology_name": _scalar(topology.name),
        "schedule_length": _scalar(schedule.schedule_length()),
        "tasks": _items(list(map(_TASK.__mod__, zip(
            map(names.__getitem__, slots),
            *_columns(list(slots.values()), _SLOT_FIELDS)))), 3),
        "messages": _messages(schedule.routes, names),
    }


def _messages(routes, names) -> str:
    """The ``schedule.messages`` list of :func:`_write_bundle`."""
    hops = list(chain.from_iterable(r.hops for r in routes.values()))
    hop_texts = list(map(_HOP.__mod__, zip(*_columns(hops, _HOP_FIELDS))))
    messages = []
    i = 0
    for (u, v), route in routes.items():
        k = len(route.hops)
        messages.append(_MESSAGE % (names[u], names[v], "false" if k else "true",
                                    _items(hop_texts[i:i + k], 5)))
        i += k
    return _items(messages, 3)


def bundle_to_json(schedule: Schedule) -> str:
    """The canonical bundle text, ``json.dumps(bundle_to_dict(schedule),
    indent=2)``, written straight from the schedule, with json.dumps as
    the fallback for a value off the writer's shapes."""
    try:
        return _write_bundle(schedule)
    except _OffShape:
        return json.dumps(bundle_to_dict(schedule), indent=2)


def bundle_from_json(text) -> Schedule:
    """Rebuild a bundle from its JSON text (or UTF-8 bytes)."""
    return bundle_from_dict(loads(text, SchedulingError, "bundle"))


def write_bundle(schedule: Schedule, path: str) -> None:
    """Write the canonical bundle text of ``schedule`` to ``path``."""
    with open(path, "w") as fh:
        fh.write(bundle_to_json(schedule) + "\n")


def read_bundle(path: str) -> Schedule:
    """Read a bundle back into a fully-bound :class:`Schedule` — no
    generating code needed; feed the result to ``validate_schedule``
    for a complete replay audit."""
    with open(path, "rb") as fh:
        data = fh.read()
    return bundle_from_dict(loads(data, SchedulingError, f"bundle {path}"))
