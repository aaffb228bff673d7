"""Serialization and interop for task graphs.

Plain-dict / JSON round-trips are used by the experiment cache; networkx
conversion is provided for users who want to build or analyse graphs with
the wider ecosystem; DOT export helps eyeballing small graphs.

For *external* graph formats (Standard Task Graph, DOT import, JSON
workflow traces with per-processor cost vectors) see
:mod:`repro.graph.interchange`, which registers this module's JSON
dialect alongside them.

>>> g = TaskGraph(name="demo")
>>> g.add_task("a", 10.0); g.add_task("b", 5.0); g.add_edge("a", "b", 2.0)
>>> graph_from_json(graph_to_json(g)).comm_cost("a", "b")
2.0
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import GraphError
from repro.graph.model import TaskGraph
from repro.util.checked import is_number, loads, want

_FORMAT_VERSION = 1


def graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Lossless plain-dict form (task ids are stringified for JSON safety).

    >>> g = TaskGraph(name="pair")
    >>> g.add_task(0, 3.0); g.add_task("t", 4.0); g.add_edge(0, "t", 1.0)
    >>> graph_to_dict(g)["tasks"]
    [['0', 3.0], ["'t'", 4.0]]
    """
    return {
        "version": _FORMAT_VERSION,
        "name": graph.name,
        "tasks": [[repr(t), graph.cost(t)] for t in graph.tasks()],
        "edges": [[repr(u), repr(v), graph.comm_cost(u, v)] for u, v in graph.edges()],
    }


def graph_from_dict(data: Dict[str, Any]) -> TaskGraph:
    """Inverse of :func:`graph_to_dict`.

    The document is untrusted input, so every field is checked and a
    malformed one raises a :class:`GraphError` naming it: ids must be
    the repr strings :func:`graph_to_dict` writes (of an int or a str),
    and costs must be numbers, not bools.

    >>> g = TaskGraph(); g.add_task(7, 2.5)
    >>> graph_from_dict(graph_to_dict(g)).cost(7)
    2.5
    """
    want(data, dict, "json graph", GraphError)
    if data.get("version") != _FORMAT_VERSION:
        raise GraphError(f"unsupported graph format version {data.get('version')!r}")
    name = want(data.get("name", "graph"), str, "json graph field name", GraphError)
    g = TaskGraph(name=name)
    for field, width, add in (("tasks", 2, g.add_task), ("edges", 3, g.add_edge)):
        rows = want(data.get(field), list, f"json graph field {field}", GraphError)
        for i, row in enumerate(rows):
            add(*_row(row, f"{field}[{i}]", width))
    return g


def _row(row, field: str, width: int) -> list:
    """A ``tasks``/``edges`` entry with its id reprs parsed: ``width``
    items, every one but the last an id repr string, the last a cost."""
    if not isinstance(row, list) or len(row) != width:
        raise GraphError(
            f"json graph field {field} must be a list of {width} values, got {row!r:.60}")
    *ids, cost = row
    for j, raw in enumerate(ids):
        if not isinstance(raw, str):
            raise GraphError(
                f"json graph field {field}[{j}] must be a task id repr string, got {raw!r:.60}")
    want(cost, is_number, f"json graph field {field}[{width - 1}]", GraphError)
    return [*map(_parse_id, ids), cost]


def _parse_id(raw: str):
    """Parse the repr of an int or str task id without a general eval.

    Quoted ids go through ``ast.literal_eval`` so repr escapes
    (backslashes, embedded quotes, newlines) invert exactly.

    >>> _parse_id("12"), _parse_id("'T1'"), _parse_id(repr("back\\\\slash"))
    (12, 'T1', 'back\\\\slash')
    """
    try:
        return int(raw)
    except ValueError:
        pass
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        import ast

        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            raise GraphError(f"cannot parse task id {raw!r}") from None
        if isinstance(value, str):
            return value
    raise GraphError(f"cannot parse task id {raw!r}")


def graph_to_json(graph: TaskGraph) -> str:
    """Compact JSON text of :func:`graph_to_dict` (the cache dialect).

    >>> g = TaskGraph(name="one"); g.add_task(0, 1.0)
    >>> graph_to_json(g)
    '{"version": 1, "name": "one", "tasks": [["0", 1.0]], "edges": []}'
    """
    return json.dumps(graph_to_dict(graph), indent=None, sort_keys=False)


def graph_from_json(text: str) -> TaskGraph:
    """Inverse of :func:`graph_to_json`.

    >>> graph_from_json(
    ...     '{"version": 1, "name": "one", "tasks": [["0", 1.0]], "edges": []}'
    ... ).n_tasks
    1
    """
    return graph_from_dict(loads(text, GraphError, "json graph"))


def to_networkx(graph: TaskGraph):
    """Convert to a ``networkx.DiGraph`` with ``cost`` / ``comm`` attributes.

    >>> g = TaskGraph(); g.add_task(0, 1.0); g.add_task(1, 2.0)
    >>> g.add_edge(0, 1, 3.0)
    >>> to_networkx(g).edges[0, 1]["comm"]
    3.0
    """
    import networkx as nx

    g = nx.DiGraph(name=graph.name)
    for t in graph.tasks():
        g.add_node(t, cost=graph.cost(t))
    for u, v in graph.edges():
        g.add_edge(u, v, comm=graph.comm_cost(u, v))
    return g


def from_networkx(nxg, name: str = None) -> TaskGraph:
    """Build a :class:`TaskGraph` from a ``networkx.DiGraph``.

    Node attribute ``cost`` (or ``weight``) gives execution cost; edge
    attribute ``comm`` (or ``weight``) gives communication cost.

    >>> g = TaskGraph(); g.add_task("a", 4.0)
    >>> from_networkx(to_networkx(g)).cost("a")
    4.0
    """
    g = TaskGraph(name=name or getattr(nxg, "name", None) or "from_networkx")
    for node, attrs in nxg.nodes(data=True):
        cost = attrs.get("cost", attrs.get("weight"))
        if cost is None:
            raise GraphError(f"node {node!r} lacks a 'cost'/'weight' attribute")
        g.add_task(node, cost)
    for u, v, attrs in nxg.edges(data=True):
        comm = attrs.get("comm", attrs.get("weight", 0.0))
        g.add_edge(u, v, comm)
    return g


def to_dot(graph: TaskGraph) -> str:
    """Graphviz DOT text for quick visual inspection of small graphs.

    Costs render at ``%g`` precision — for an exact, re-importable DOT
    export use :func:`repro.graph.interchange.write_dot` instead
    (:func:`~repro.graph.interchange.read_dot` accepts both).

    >>> g = TaskGraph(name="one"); g.add_task("a", 2.0)
    >>> print(to_dot(g))
    digraph "one" {
      "a" [label="a\\n2"];
    }
    """
    lines = [f'digraph "{graph.name}" {{']
    for t in graph.tasks():
        lines.append(f'  "{t}" [label="{t}\\n{graph.cost(t):g}"];')
    for u, v in graph.edges():
        lines.append(f'  "{u}" -> "{v}" [label="{graph.comm_cost(u, v):g}"];')
    lines.append("}")
    return "\n".join(lines)
