"""Task-graph interchange: read and write external workload formats.

The generators in :mod:`repro.workloads` cover the paper's two synthetic
suites; this module is the front door for everything else. The formats
are funneled through one registry (:data:`FORMATS`) with
filename/content sniffing and strict validation against
:mod:`repro.graph.validation`:

* **stg** — the Standard Task Graph format of Kasahara's benchmark
  suite (one line per task: ``id cost n_preds pred...``). Plain STG
  carries no communication costs and no task names; the writer emits
  ``#@`` comment directives (ignored by other STG readers) so that
  ``read(write(g))`` round-trips ids and exact float costs. Zero-cost
  dummy entry/exit tasks, customary in published STG files, are
  stripped on read (the model requires positive execution costs).
* **dot** — Graphviz digraphs. The writer stores exact costs in
  ``cost=`` / ``comm=`` attributes next to the human-readable labels;
  the reader also accepts foreign DOT (and the display-oriented
  :func:`repro.graph.io.to_dot` output) by falling back to labels and
  ``default_cost`` / ``default_comm``.
* **trace** — a JSON "workflow trace" that preserves heterogeneity:
  each task may carry a per-processor execution-cost vector
  (``costs``) instead of a scalar nominal cost, so a platform-bound
  workload survives the round trip without being re-sampled.
  :meth:`ExternalWorkload.bind` turns it back into a
  :class:`~repro.network.system.HeterogeneousSystem` via the exact
  cost table.

* **dax** — Pegasus DAX XML, the classic scientific-workflow
  description (Montage, CyberShake, Epigenomics releases). Job
  ``runtime`` attributes map to execution costs; the communication
  cost of every parent→child edge sums the sizes of the files the
  parent outputs and the child inputs. The writer emits one synthetic
  file per edge (plus a ``reproid`` attribute foreign tools ignore),
  so round trips are lossless.
* **wfcommons** — WfCommons JSON workflow instances (wfformat), both
  the modern ``specification``/``execution`` split and the legacy flat
  task list, with the same runtime→cost and file-size→comm mapping as
  DAX.

The cache-native :func:`repro.graph.io.graph_to_json` dialect is also
registered (**json**) so ``repro convert`` can reach it.

Imports that are not weakly connected (e.g. published STG files whose
only connectors were the stripped dummies) can be repaired with
``bridge="epsilon"`` on :func:`load_workload` — see
:func:`bridge_components`.

Everything a reader returns is an :class:`ExternalWorkload`: the graph,
the optional per-processor cost table, and the content hash used by
:mod:`repro.workloads.external` to build cache keys.

Examples
--------
>>> from repro.graph.model import TaskGraph
>>> g = TaskGraph(name="demo")
>>> g.add_task("a", 4.0); g.add_task("b", 2.0); g.add_edge("a", "b", 1.5)
>>> h = read_stg(write_stg(g)).graph
>>> graphs_equal(g, h)
True
>>> h.name, h.cost("b"), h.comm_cost("a", "b")
('demo', 2.0, 1.5)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import ConfigurationError, GraphError
from repro.graph.io import _parse_id, graph_from_json, graph_to_json
from repro.graph.model import TaskGraph, TaskId
from repro.graph.validation import validate_graph
from repro.util.checked import is_int, is_number, is_task_id, loads, want

__all__ = [
    "ExternalWorkload",
    "GraphFormat",
    "FORMATS",
    "format_names",
    "sniff_format",
    "load_workload",
    "loads_workload",
    "save_workload",
    "dumps_workload",
    "convert_file",
    "relabel_tasks",
    "graphs_equal",
    "content_hash",
    "read_stg",
    "write_stg",
    "read_dot",
    "write_dot",
    "read_trace",
    "write_trace",
    "trace_to_dict",
    "trace_from_dict",
    "read_dax",
    "write_dax",
    "read_wfcommons",
    "write_wfcommons",
    "bridge_components",
    "BRIDGE_POLICIES",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


# ----------------------------------------------------------------------
# the common container readers return
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExternalWorkload:
    """An imported task graph, plus whatever platform data the file had.

    ``exec_costs`` is ``None`` for platform-independent formats (stg,
    dot, json); trace files with per-task ``costs`` vectors populate it
    with the *actual* execution cost of every task on every processor,
    exactly as read — heterogeneity is preserved, never re-sampled.

    Examples
    --------
    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("tiny"); g.add_task(0, 5.0); g.add_task(1, 3.0)
    >>> g.add_edge(0, 1, 2.0)
    >>> wl = ExternalWorkload(graph=g)
    >>> wl.n_procs is None
    True
    >>> from repro.network.topology import chain
    >>> system = wl.bind(chain(2), het_range=(1.0, 2.0), seed=0)
    >>> system.n_procs
    2
    """

    graph: TaskGraph
    #: task id -> per-processor actual execution costs (trace files only)
    exec_costs: Optional[Mapping[TaskId, Tuple[float, ...]]] = None
    #: where the workload came from ("<memory>" when built from text)
    source: str = "<memory>"
    #: registry name of the format it was read from
    fmt: str = "trace"
    #: sha256 of the raw file text ("" when built programmatically)
    content_hash: str = ""

    @property
    def n_procs(self) -> Optional[int]:
        """Processor count implied by the cost vectors (``None`` if the
        format carried no platform data)."""
        if self.exec_costs is None:
            return None
        return len(next(iter(self.exec_costs.values())))

    def bind(
        self,
        topology,
        het_range: Tuple[float, float] = (1.0, 50.0),
        link_het_range: Optional[Tuple[float, float]] = None,
        seed: int = 0,
    ):
        """Bind the workload to ``topology`` as a
        :class:`~repro.network.system.HeterogeneousSystem`.

        With per-processor cost vectors the topology size must match and
        the vectors are used verbatim (``from_exec_table``); otherwise
        execution factors are sampled from ``het_range`` exactly like
        the generated suites.
        """
        from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
        from repro.util.rng import RngStream

        if self.exec_costs is None:
            return HeterogeneousSystem.sample(
                self.graph,
                topology,
                het_range=het_range,
                link_het_range=link_het_range,
                seed=seed,
            )
        if topology.n_procs != self.n_procs:
            raise ConfigurationError(
                f"workload {self.graph.name!r} carries {self.n_procs}-processor "
                f"cost vectors but topology {topology.name!r} has "
                f"{topology.n_procs} processors"
            )
        if link_het_range is None:
            return HeterogeneousSystem.from_exec_table(
                self.graph, topology, self.exec_costs
            )
        llo, lhi = link_het_range
        return HeterogeneousSystem.from_exec_table(
            self.graph,
            topology,
            self.exec_costs,
            link_mode=LinkHeterogeneity.PER_MESSAGE_LINK,
            link_factor_range=(llo, lhi),
            link_seed=RngStream(seed).fork("link-factors").seed,
        )


def _as_graph(obj) -> TaskGraph:
    """Accept a TaskGraph, an ExternalWorkload, or a HeterogeneousSystem."""
    if isinstance(obj, TaskGraph):
        return obj
    if isinstance(obj, ExternalWorkload):
        return obj.graph
    graph = getattr(obj, "graph", None)
    if isinstance(graph, TaskGraph):
        return graph
    raise GraphError(f"cannot interpret {type(obj).__name__} as a task graph")


def _id_repr(task: TaskId) -> str:
    """Repr of an int/str task id, rejecting everything else up front.

    The repr is a Python literal, so :func:`repro.graph.io._parse_id`
    inverts it exactly (escapes and embedded newlines included) and the
    one-line-per-record formats stay line-based."""
    if not is_task_id(task):
        raise GraphError(
            f"interchange formats support int and str task ids; got "
            f"{task!r} ({type(task).__name__}) — relabel with "
            f"relabel_tasks() first"
        )
    return repr(task)


def _num(x: float) -> str:
    """Exact, round-trippable text for a float (shortest repr)."""
    return repr(float(x))


def content_hash(text: str) -> str:
    """sha256 hex digest of the raw file text.

    >>> content_hash("42\\n")[:12]
    '084c799cd551'
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# STG — Standard Task Graph (Kasahara suite) with #@ extensions
# ----------------------------------------------------------------------

def write_stg(obj) -> str:
    """Serialize a graph to STG text (with ``#@`` fidelity directives).

    The body is plain Kasahara STG — task count, then one
    ``index cost n_preds pred...`` line per task in insertion order —
    readable by any STG consumer. Trailing ``#@`` comments record the
    graph name, non-index task ids, and exact communication costs so
    :func:`read_stg` reconstructs the graph losslessly. Per-processor
    cost vectors (trace workloads) are not representable; only the
    nominal graph is written.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("pair"); g.add_task(0, 2.0); g.add_task(1, 4.0)
    >>> g.add_edge(0, 1, 3.0)
    >>> print(write_stg(g))
    # STG written by repro.graph.interchange (directives: #@)
    2
    0 2.0 0
    1 4.0 1 0
    #@ name "pair"
    #@ comm 0 1 3.0
    """
    graph = _as_graph(obj)
    tasks = graph.tasks()
    index = {t: i for i, t in enumerate(tasks)}
    for t in tasks:
        _id_repr(t)  # reject non-int/str ids before emitting anything
    lines = ["# STG written by repro.graph.interchange (directives: #@)"]
    lines.append(str(len(tasks)))
    for t in tasks:
        preds = [str(index[p]) for p in graph.predecessors(t)]
        lines.append(
            f"{index[t]} {_num(graph.cost(t))} {len(preds)}"
            + ("" if not preds else " " + " ".join(preds))
        )
    # JSON-encoded so empty names and embedded newlines survive the
    # line-based format
    lines.append(f"#@ name {json.dumps(graph.name)}")
    for t in tasks:
        if t != index[t]:
            lines.append(f"#@ task {index[t]} {_id_repr(t)}")
    for u, v in graph.edges():
        lines.append(f"#@ comm {index[u]} {index[v]} {_num(graph.comm_cost(u, v))}")
    return "\n".join(lines)


def read_stg(
    text: str,
    name: Optional[str] = None,
    default_comm: float = 1.0,
    strip_dummies: bool = True,
) -> ExternalWorkload:
    """Parse STG text into an :class:`ExternalWorkload`.

    Accepts both layouts found in the wild: a declared count matching
    the task lines exactly, or the Kasahara convention of ``count + 2``
    lines where the first and last tasks are zero-cost dummy entry/exit
    nodes. Zero-cost source/sink tasks are stripped when
    ``strip_dummies`` (the model requires positive costs); a zero-cost
    *interior* task is an error. Edges found only in the task lines get
    ``default_comm`` as communication cost; ``#@ comm`` directives give
    exact per-edge costs.

    >>> wl = read_stg("2\\n0 10 0\\n1 20 1 0\\n", default_comm=5.0)
    >>> wl.graph.comm_cost(0, 1)
    5.0
    """
    if default_comm < 0:
        raise GraphError(f"default_comm must be >= 0, got {default_comm}")
    directives: List[Tuple[str, str]] = []
    body: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#@"):
            parts = line[2:].strip().split(None, 1)
            if len(parts) != 2:
                raise GraphError(f"malformed STG directive: {raw!r}")
            directives.append((parts[0], parts[1]))
        elif not line or line.startswith("#"):
            continue
        else:
            body.append(line)
    if not body:
        raise GraphError("STG text has no task lines")
    try:
        declared = int(body[0])
    except ValueError:
        raise GraphError(f"STG must start with a task count, got {body[0]!r}") from None
    task_lines = body[1:]
    if len(task_lines) not in (declared, declared + 2):
        raise GraphError(
            f"STG declares {declared} tasks but has {len(task_lines)} task "
            f"lines (expected {declared} or, with dummy entry/exit, "
            f"{declared + 2})"
        )

    costs: Dict[int, float] = {}
    preds: Dict[int, List[int]] = {}
    order: List[int] = []
    for line in task_lines:
        fields = line.split()
        if len(fields) < 3:
            raise GraphError(f"malformed STG task line: {line!r}")
        try:
            idx = int(fields[0])
            cost = float(fields[1])
            n_preds = int(fields[2])
        except ValueError:
            raise GraphError(f"malformed STG task line: {line!r}") from None
        if idx in costs:
            raise GraphError(f"duplicate STG task index {idx}")
        if len(fields) != 3 + n_preds:
            raise GraphError(
                f"STG task {idx} declares {n_preds} predecessors but "
                f"lists {len(fields) - 3}"
            )
        try:
            plist = [int(f) for f in fields[3:]]
        except ValueError:
            raise GraphError(f"malformed STG predecessor list: {line!r}") from None
        costs[idx] = cost
        preds[idx] = plist
        order.append(idx)
    for idx, plist in preds.items():
        for p in plist:
            if p not in costs:
                raise GraphError(f"STG task {idx} references unknown task {p}")

    # apply directives before stripping so renames survive
    graph_name = name
    id_of: Dict[int, TaskId] = {}
    comm: Dict[Tuple[int, int], float] = {}
    for key, value in directives:
        if key == "name":
            if graph_name is None:
                try:
                    decoded = loads(value, GraphError, "#@ name")
                except GraphError:
                    decoded = value  # hand-written unquoted name
                graph_name = decoded if isinstance(decoded, str) else value
        elif key == "task":
            parts = value.split(None, 1)
            if len(parts) != 2:
                raise GraphError(f"malformed #@ task directive: {value!r}")
            try:
                id_of[int(parts[0])] = _parse_id(parts[1])
            except ValueError:
                raise GraphError(
                    f"malformed #@ task directive: {value!r}"
                ) from None
        elif key == "comm":
            parts = value.split()
            if len(parts) != 3:
                raise GraphError(f"malformed #@ comm directive: {value!r}")
            try:
                comm[(int(parts[0]), int(parts[1]))] = float(parts[2])
            except ValueError:
                raise GraphError(
                    f"malformed #@ comm directive: {value!r}"
                ) from None
        else:
            raise GraphError(f"unknown STG directive #@ {key}")

    succ_count = {idx: 0 for idx in order}
    for idx, plist in preds.items():
        for p in plist:
            succ_count[p] += 1
    if strip_dummies:
        # iteratively drop zero-cost entry/exit tasks (published STG
        # files pad with one of each; stripping can expose another)
        while True:
            dead = [
                idx for idx in order
                if costs[idx] == 0.0 and (not preds[idx] or succ_count[idx] == 0)
            ]
            if not dead:
                break
            for idx in dead:
                for p in preds[idx]:
                    if p in succ_count:  # pred may be dead in the same round
                        succ_count[p] -= 1
                order.remove(idx)
                del costs[idx], preds[idx], succ_count[idx]
            for idx in order:
                preds[idx] = [p for p in preds[idx] if p in costs]

    graph = TaskGraph(name=graph_name if graph_name is not None else "stg")
    for idx in order:
        if costs[idx] <= 0:
            raise GraphError(
                f"STG task {idx} has non-positive cost {costs[idx]!r}; the "
                f"model requires positive execution costs (zero-cost "
                f"entry/exit dummies are stripped automatically)"
            )
        graph.add_task(id_of.get(idx, idx), costs[idx])
    for idx in order:
        for p in preds[idx]:
            c = comm.get((p, idx), default_comm)
            graph.add_edge(id_of.get(p, p), id_of.get(idx, idx), c)
    return ExternalWorkload(graph=graph, fmt="stg", content_hash=content_hash(text))


# ----------------------------------------------------------------------
# DOT — Graphviz digraph with cost=/comm= attributes
# ----------------------------------------------------------------------

_DOT_BARE = r"[A-Za-z0-9_.\-]+"
_DOT_QUOTED = r'"(?:[^"\\]|\\.)*"'
# re.S: quoted ids/labels may contain literal newlines
_DOT_ID = re.compile(rf"({_DOT_QUOTED}|{_DOT_BARE})", re.S)
_DOT_ATTR = re.compile(rf"(\w+)\s*=\s*({_DOT_QUOTED}|[^,\s\]]+)", re.S)


def _split_attr_block(stmt: str) -> Tuple[str, str]:
    """Split a DOT statement into ``(core, attr text)`` at the first
    ``[`` that sits *outside* quoted ids (a quoted id may contain one);
    the attr block runs to the last ``]``."""
    in_quote = False
    escaped = False
    for i, ch in enumerate(stmt):
        if in_quote:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
        elif ch == "[":
            end = stmt.rfind("]")
            return stmt[:i].strip(), stmt[i + 1:end if end > i else len(stmt)]
    return stmt.strip(), ""


def _split_arrows(core: str) -> List[str]:
    """Split an edge chain on ``->`` outside quoted ids (a quoted id may
    legally contain the arrow, e.g. ``"a->b" [cost=1.0]``)."""
    parts: List[str] = []
    current: List[str] = []
    in_quote = False
    escaped = False
    i = 0
    while i < len(core):
        ch = core[i]
        if in_quote:
            current.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
            current.append(ch)
        elif core.startswith("->", i):
            parts.append("".join(current))
            current = []
            i += 2
            continue
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return [p.strip() for p in parts]


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_render_id(task: TaskId) -> str:
    """Ints render bare, strings quoted — the reader inverts this, so
    id *types* survive the round trip."""
    _id_repr(task)
    if isinstance(task, int):
        return str(task)
    return f'"{_dot_escape(task)}"'


def _dot_parse_id(token: str) -> TaskId:
    token = token.strip()
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    try:
        return int(token)
    except ValueError:
        return token


def write_dot(obj) -> str:
    """Serialize a graph to DOT with exact ``cost=`` / ``comm=`` attrs.

    Unlike the display-oriented :func:`repro.graph.io.to_dot` (whose
    ``%g`` labels are lossy), every cost is also stored as a full-repr
    attribute, so ``read_dot(write_dot(g))`` is exact. Integer ids
    render as bare numerals and string ids as quoted strings, which is
    how the reader tells them apart.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("pair"); g.add_task("a", 2.0); g.add_task(1, 4.0)
    >>> g.add_edge("a", 1, 0.5)
    >>> print(write_dot(g))
    digraph "pair" {
      "a" [label="a\\n2" cost=2.0];
      1 [label="1\\n4" cost=4.0];
      "a" -> 1 [label="0.5" comm=0.5];
    }
    """
    graph = _as_graph(obj)
    lines = [f'digraph "{_dot_escape(graph.name)}" {{']
    for t in graph.tasks():
        lines.append(
            f'  {_dot_render_id(t)} [label="{_dot_escape(str(t))}'
            f'\\n{graph.cost(t):g}" cost={_num(graph.cost(t))}];'
        )
    for u, v in graph.edges():
        c = graph.comm_cost(u, v)
        lines.append(
            f"  {_dot_render_id(u)} -> {_dot_render_id(v)} "
            f'[label="{c:g}" comm={_num(c)}];'
        )
    lines.append("}")
    return "\n".join(lines)


def _dot_statements(text: str) -> Tuple[Optional[str], List[str]]:
    """Split DOT text into (graph name, statement strings)."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    m = re.search(rf"digraph\s*({_DOT_QUOTED}|{_DOT_BARE})?\s*\{{", text)
    if not m:
        raise GraphError("not a DOT digraph (no 'digraph ... {' found)")
    name = _dot_parse_id(m.group(1)) if m.group(1) else None
    end = text.rfind("}")
    body = text[m.end():end if end > m.end() else len(text)]
    # split on ';' / newline, but never inside a quoted string (labels
    # may contain either) or inside an attribute [...] block
    statements: List[str] = []
    current: List[str] = []
    in_quote = False
    escaped = False
    depth = 0
    for ch in body:
        if in_quote:
            current.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
            current.append(ch)
        elif ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth = max(0, depth - 1)
            current.append(ch)
        elif ch in ";\n" and depth == 0:
            stmt = "".join(current).strip()
            if stmt:
                statements.append(stmt)
            current = []
        else:
            current.append(ch)
    stmt = "".join(current).strip()
    if stmt:
        statements.append(stmt)
    return (str(name) if name is not None else None), statements


def read_dot(
    text: str,
    name: Optional[str] = None,
    default_cost: Optional[float] = None,
    default_comm: float = 0.0,
) -> ExternalWorkload:
    """Parse a DOT digraph into an :class:`ExternalWorkload`.

    Reads the :func:`write_dot` dialect exactly; for foreign DOT it
    falls back, per node/edge, to a trailing ``\\n<number>`` in the
    ``label`` (the :func:`repro.graph.io.to_dot` convention, lossy at
    ``%g`` precision) and then to ``default_cost`` / ``default_comm``.
    A node with no recoverable cost is an error unless ``default_cost``
    is given.

    >>> wl = read_dot('digraph d { 0 [cost=3.0]; 1 [cost=1.0]; 0 -> 1; }')
    >>> wl.graph.n_tasks, wl.graph.comm_cost(0, 1)
    (2, 0.0)
    """
    if default_comm < 0:
        raise GraphError(f"default_comm must be >= 0, got {default_comm}")
    dot_name, statements = _dot_statements(text)
    node_attrs: Dict[TaskId, Dict[str, str]] = {}
    node_order: List[TaskId] = []
    edges: List[Tuple[TaskId, TaskId, Dict[str, str]]] = []

    def note_node(task: TaskId, attrs: Dict[str, str]) -> None:
        if task not in node_attrs:
            node_attrs[task] = {}
            node_order.append(task)
        node_attrs[task].update(attrs)

    for stmt in statements:
        core, attr_text = _split_attr_block(stmt)
        attrs = {k: v for k, v in _DOT_ATTR.findall(attr_text)}
        if not core:
            continue
        if core in ("graph", "node", "edge"):
            continue  # default-attribute statements carry no structure
        parts = _split_arrows(core)
        if len(parts) > 1:
            ids = []
            for p in parts:
                m_id = _DOT_ID.fullmatch(p)
                if not m_id:
                    raise GraphError(f"cannot parse DOT edge endpoint {p!r}")
                ids.append(_dot_parse_id(m_id.group(1)))
            for u, v in zip(ids, ids[1:]):
                edges.append((u, v, attrs))
        elif "=" in core and not core.startswith('"'):
            continue  # bare graph attribute like rankdir=LR
        else:
            m_id = _DOT_ID.fullmatch(core)
            if not m_id:
                raise GraphError(f"cannot parse DOT statement {stmt!r}")
            note_node(_dot_parse_id(m_id.group(1)), attrs)
    for u, v, _ in edges:
        note_node(u, {})
        note_node(v, {})

    def _value(attrs: Dict[str, str], key: str, fallback: Optional[float]) -> Optional[float]:
        if key in attrs:
            try:
                return float(_dot_parse_id(attrs[key]))
            except ValueError:
                raise GraphError(
                    f"DOT attribute {key}={attrs[key]!r} is not a number"
                ) from None
        label = attrs.get("label")
        if label is not None:
            tail = str(_dot_parse_id(label)).split("\\n")[-1]
            try:
                return float(tail)
            except ValueError:
                pass
        return fallback

    if name is None:
        name = dot_name if dot_name is not None else "dot"
    graph = TaskGraph(name=name)
    for t in node_order:
        cost = _value(node_attrs[t], "cost", default_cost)
        if cost is None:
            raise GraphError(
                f"DOT node {t!r} has no cost= attribute or numeric label; "
                f"pass default_cost to import cost-less DOT files"
            )
        graph.add_task(t, cost)
    for u, v, attrs in edges:
        graph.add_edge(u, v, _value(attrs, "comm", default_comm))
    return ExternalWorkload(graph=graph, fmt="dot", content_hash=content_hash(text))


# ----------------------------------------------------------------------
# trace — JSON workflow trace with per-processor cost vectors
# ----------------------------------------------------------------------

def trace_to_dict(obj) -> Dict[str, Any]:
    """The plain-dict form of the JSON workflow-trace schema.

    This is :func:`write_trace` without the final ``json.dumps`` — the
    building block :mod:`repro.schedule.io` embeds in schedule bundles.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("t"); g.add_task(0, 1.5)
    >>> trace_to_dict(g)["tasks"]
    [{'id': 0, 'cost': 1.5}]
    """
    graph = _as_graph(obj)
    exec_costs: Optional[Mapping[TaskId, Tuple[float, ...]]] = None
    if isinstance(obj, ExternalWorkload):
        exec_costs = obj.exec_costs
    elif not isinstance(obj, TaskGraph):  # HeterogeneousSystem-like
        exec_costs = {t: obj.exec_cost_row(t) for t in graph.tasks()}
    for t in graph.tasks():
        _id_repr(t)
    doc: Dict[str, Any] = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "name": graph.name,
    }
    if exec_costs is not None:
        doc["n_procs"] = len(next(iter(exec_costs.values())))
        doc["tasks"] = [
            {"id": t, "costs": list(exec_costs[t])} for t in graph.tasks()
        ]
    else:
        doc["tasks"] = [
            {"id": t, "cost": graph.cost(t)} for t in graph.tasks()
        ]
    doc["edges"] = [
        {"src": u, "dst": v, "comm": graph.comm_cost(u, v)}
        for u, v in graph.edges()
    ]
    return doc


def write_trace(obj, indent: Optional[int] = 2) -> str:
    """Serialize to the JSON workflow-trace schema.

    Accepts a :class:`~repro.graph.model.TaskGraph` (scalar ``cost`` per
    task), an :class:`ExternalWorkload`, or a
    :class:`~repro.network.system.HeterogeneousSystem` — the latter two
    emit per-processor ``costs`` vectors when they have them, so a
    bound platform's heterogeneity is preserved verbatim.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("t"); g.add_task(0, 1.5)
    >>> print(write_trace(g, indent=None))
    {"format": "repro-trace", "version": 1, "name": "t", "tasks": [{"id": 0, "cost": 1.5}], "edges": []}
    """
    return json.dumps(trace_to_dict(obj), indent=indent)


def trace_from_dict(doc, name: Optional[str] = None) -> ExternalWorkload:
    """Rebuild an :class:`ExternalWorkload` from :func:`trace_to_dict`
    output — :func:`read_trace` without the JSON parsing, the building
    block :mod:`repro.schedule.io` uses for schedule bundles.
    ``content_hash`` is empty because there is no file text to hash.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("t"); g.add_task(0, 1.5)
    >>> trace_from_dict(trace_to_dict(g)).graph.cost(0)
    1.5
    """
    if not isinstance(doc, dict) or doc.get("format") != TRACE_FORMAT:
        raise GraphError(
            f"not a {TRACE_FORMAT} document (format={doc.get('format')!r} "
            "if it parsed at all)" if isinstance(doc, dict)
            else f"not a {TRACE_FORMAT} document"
        )
    if doc.get("version") != TRACE_VERSION:
        raise GraphError(f"unsupported trace version {doc.get('version')!r}")
    tasks = doc.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise GraphError("trace has no tasks")
    for entry in tasks:
        if not isinstance(entry, dict) or "id" not in entry:
            raise GraphError(f"malformed trace task entry {entry!r:.60}")
    has_vectors = any("costs" in t for t in tasks)
    has_scalars = any("cost" in t for t in tasks)
    if has_vectors and has_scalars:
        raise GraphError("trace mixes scalar 'cost' and vector 'costs' tasks")
    if not has_vectors and not has_scalars:
        raise GraphError("trace tasks carry neither 'cost' nor 'costs'")
    n_procs = doc.get("n_procs")
    if has_vectors:
        if not is_int(n_procs) or n_procs <= 0:
            raise GraphError(
                "trace with per-processor 'costs' vectors must declare a "
                "positive integer 'n_procs'"
            )
    doc_name = want(doc.get("name", "trace"), str, "trace field name", GraphError)
    graph = TaskGraph(name=name or doc_name)
    exec_costs: Dict[TaskId, Tuple[float, ...]] = {}
    for entry in tasks:
        tid = want(entry["id"], is_task_id, "trace task id", GraphError)
        if has_vectors:
            row = entry.get("costs")
            if not isinstance(row, list) or len(row) != n_procs:
                raise GraphError(
                    f"task {tid!r}: 'costs' must be a list of {n_procs} numbers"
                )
            if not all(map(is_number, row)):
                raise GraphError(
                    f"task {tid!r}: 'costs' must be numbers, got {row!r:.60}")
            row_t = tuple(map(float, row))
            # min(row_t) skips a NaN entry, so the graph's own check on
            # the nominal cost cannot catch it
            if not all(0 < c <= sys.float_info.max for c in row_t):
                raise GraphError(
                    f"task {tid!r}: execution costs must be positive and finite")
            graph.add_task(tid, min(row_t))
            exec_costs[tid] = row_t
        else:
            cost = want(entry.get("cost"), is_number, f"task {tid!r}: 'cost'",
                        GraphError)
            graph.add_task(tid, float(cost))
    for entry in want(doc.get("edges", []), list, "trace field edges", GraphError):
        if not isinstance(entry, dict) or "src" not in entry or "dst" not in entry:
            raise GraphError(f"malformed trace edge entry {entry!r:.60}")
        src, dst, comm = entry["src"], entry["dst"], entry.get("comm", 0.0)
        if not (is_task_id(src) and is_task_id(dst)):
            raise GraphError(
                f"trace edge ids must be int or str, got {src!r:.60}->{dst!r:.60}")
        want(comm, is_number, f"edge {src!r}->{dst!r}: 'comm'", GraphError)
        graph.add_edge(src, dst, float(comm))
    return ExternalWorkload(
        graph=graph,
        exec_costs=exec_costs or None,
        fmt="trace",
    )


def read_trace(text: str, name: Optional[str] = None) -> ExternalWorkload:
    """Parse a JSON workflow trace into an :class:`ExternalWorkload`.

    Strict: the document must declare ``"format": "repro-trace"`` and a
    supported version; tasks must uniformly use scalar ``cost`` or
    vector ``costs`` (vectors all of length ``n_procs``); ids must be
    JSON ints or strings. With vectors, the graph's nominal cost is the
    vector minimum — "cost on the fastest processor", matching the
    paper's convention — and the full table lands in ``exec_costs``.

    >>> wl = read_trace(
    ...     '{"format": "repro-trace", "version": 1, "n_procs": 2,'
    ...     ' "tasks": [{"id": "a", "costs": [4.0, 2.0]}], "edges": []}')
    >>> wl.graph.cost("a"), wl.exec_costs["a"], wl.n_procs
    (2.0, (4.0, 2.0), 2)
    """
    workload = trace_from_dict(loads(text, GraphError, "trace"), name=name)
    return dataclasses.replace(workload, content_hash=content_hash(text))


# ----------------------------------------------------------------------
# DAX — Pegasus abstract-workflow XML (scientific workflows)
# ----------------------------------------------------------------------

_DAX_NS = "http://pegasus.isi.edu/schema/DAX"


def _xml_local(tag: str) -> str:
    """Element tag without its ``{namespace}`` prefix."""
    return tag.rsplit("}", 1)[-1]


def _positive_scales(runtime_scale: float, size_scale: float, default_comm: float, what: str) -> None:
    if runtime_scale <= 0:
        raise GraphError(f"{what}: runtime_scale must be > 0, got {runtime_scale}")
    if size_scale <= 0:
        raise GraphError(f"{what}: size_scale must be > 0, got {size_scale}")
    if default_comm < 0:
        raise GraphError(f"{what}: default_comm must be >= 0, got {default_comm}")


def write_dax(obj) -> str:
    """Serialize a graph to Pegasus DAX XML.

    Jobs carry ``runtime`` (the exact execution cost) and one synthetic
    file per outgoing edge whose ``size`` is the exact communication
    cost, so :func:`read_dax`'s runtime→cost and shared-file→comm
    mapping inverts the writer losslessly. A ``reproid`` attribute
    (ignored by Pegasus tools) preserves non-``ID%05d`` task ids and
    their int/str type.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("w"); g.add_task("a", 2.0); g.add_task("b", 4.0)
    >>> g.add_edge("a", "b", 3.0)
    >>> wl = read_dax(write_dax(g))
    >>> graphs_equal(g, wl.graph), wl.graph.name
    (True, 'w')
    """
    from xml.sax.saxutils import quoteattr

    graph = _as_graph(obj)
    tasks = graph.tasks()
    index = {t: i for i, t in enumerate(tasks)}
    for t in tasks:
        _id_repr(t)  # reject non-int/str ids before emitting anything

    def jid(t: TaskId) -> str:
        return f"ID{index[t]:05d}"

    def fid(u: TaskId, v: TaskId) -> str:
        return f"e{index[u]}_{index[v]}"

    n_children = sum(1 for t in tasks if graph.predecessors(t))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<adag xmlns="{_DAX_NS}" version="2.1" name={quoteattr(graph.name)} '
        f'jobCount="{len(tasks)}" fileCount="{graph.n_edges}" '
        f'childCount="{n_children}">',
    ]
    for t in tasks:
        lines.append(
            f'  <job id="{jid(t)}" name={quoteattr(str(t))} '
            f'runtime="{_num(graph.cost(t))}" reproid={quoteattr(_id_repr(t))}>'
        )
        for p in graph.predecessors(t):
            lines.append(
                f'    <uses file="{fid(p, t)}" link="input" '
                f'size="{_num(graph.comm_cost(p, t))}"/>'
            )
        for s in graph.successors(t):
            lines.append(
                f'    <uses file="{fid(t, s)}" link="output" '
                f'size="{_num(graph.comm_cost(t, s))}"/>'
            )
        lines.append("  </job>")
    for t in tasks:
        preds = graph.predecessors(t)
        if not preds:
            continue
        lines.append(f'  <child ref="{jid(t)}">')
        for p in preds:
            lines.append(f'    <parent ref="{jid(p)}"/>')
        lines.append("  </child>")
    lines.append("</adag>")
    return "\n".join(lines)


def read_dax(
    text: str,
    name: Optional[str] = None,
    runtime_scale: float = 1.0,
    size_scale: float = 1.0,
    default_comm: float = 0.0,
) -> ExternalWorkload:
    """Parse a Pegasus DAX XML workflow into an :class:`ExternalWorkload`.

    Execution cost is the job's ``runtime`` attribute times
    ``runtime_scale`` (a job without a positive runtime is an error —
    DAX carries no other cost signal). The communication cost of each
    ``<child>``/``<parent>`` edge is the summed ``size`` of every file
    the parent declares as ``link="output"`` and the child as
    ``link="input"`` (times ``size_scale``); edges sharing no file get
    ``default_comm``. Both DAX 2.x (``<uses file=...>``) and 3.x
    (``<uses name=...>``) spellings are accepted, any XML namespace is
    ignored, and a ``reproid`` attribute written by :func:`write_dax`
    restores the original task id and type.

    >>> wl = read_dax(
    ...     '<adag name="d"><job id="A" runtime="2"/>'
    ...     '<job id="B" runtime="3"/>'
    ...     '<child ref="B"><parent ref="A"/></child></adag>',
    ...     default_comm=1.5)
    >>> wl.graph.tasks(), wl.graph.comm_cost("A", "B")
    (['A', 'B'], 1.5)
    """
    import xml.etree.ElementTree as ET

    _positive_scales(runtime_scale, size_scale, default_comm, "DAX")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GraphError(f"DAX is not well-formed XML: {exc}") from None
    if _xml_local(root.tag) != "adag":
        raise GraphError(
            f"not a DAX document (root element <{_xml_local(root.tag)}>, "
            f"expected <adag>)"
        )
    order: List[str] = []
    tid_of: Dict[str, TaskId] = {}
    cost: Dict[str, float] = {}
    inputs: Dict[str, Dict[str, float]] = {}
    outputs: Dict[str, Dict[str, float]] = {}
    edges: List[Tuple[str, str]] = []
    for el in root:
        tag = _xml_local(el.tag)
        if tag == "job":
            jid = el.get("id")
            if not jid:
                raise GraphError("DAX job without an id attribute")
            if jid in cost:
                raise GraphError(f"duplicate DAX job id {jid!r}")
            runtime = el.get("runtime")
            if runtime is None:
                raise GraphError(
                    f"DAX job {jid!r} has no runtime attribute; runtimes "
                    f"are the only execution-cost signal a DAX carries"
                )
            try:
                c = float(runtime) * runtime_scale
            except ValueError:
                raise GraphError(
                    f"DAX job {jid!r}: runtime={runtime!r} is not a number"
                ) from None
            if c <= 0:
                raise GraphError(
                    f"DAX job {jid!r} has non-positive runtime {runtime!r}; "
                    f"the model requires positive execution costs"
                )
            reproid = el.get("reproid")
            if reproid is not None:
                try:
                    tid = _parse_id(reproid)
                except ValueError:
                    raise GraphError(
                        f"DAX job {jid!r}: malformed reproid {reproid!r}"
                    ) from None
            else:
                tid = jid
            order.append(jid)
            cost[jid] = c
            tid_of[jid] = tid
            inputs[jid] = {}
            outputs[jid] = {}
            for use in el:
                if _xml_local(use.tag) != "uses":
                    continue
                fname = use.get("file") or use.get("name")
                if fname is None:
                    continue
                try:
                    size = float(use.get("size", 0.0))
                except ValueError:
                    raise GraphError(
                        f"DAX job {jid!r}: size of file {fname!r} is not "
                        f"a number"
                    ) from None
                link = (use.get("link") or "").lower()
                if link == "input":
                    inputs[jid][fname] = size
                elif link == "output":
                    outputs[jid][fname] = size
        elif tag == "child":
            ref = el.get("ref")
            if ref is None:
                raise GraphError("DAX <child> element without a ref attribute")
            for par in el:
                if _xml_local(par.tag) != "parent":
                    continue
                pref = par.get("ref")
                if pref is None:
                    raise GraphError(
                        f"DAX <parent> under child {ref!r} has no ref attribute"
                    )
                edges.append((pref, ref))
    if not order:
        raise GraphError("DAX document has no jobs")
    if name is None:
        name = root.get("name")
        if name is None:
            name = "dax"
    graph = TaskGraph(name=name)
    for jid in order:
        graph.add_task(tid_of[jid], cost[jid])
    seen_edges: set = set()
    for pref, ref in edges:
        if pref not in cost:
            raise GraphError(f"DAX child {ref!r} references unknown parent {pref!r}")
        if ref not in cost:
            raise GraphError(f"DAX <child ref={ref!r}> references an unknown job")
        if (pref, ref) in seen_edges:
            continue  # repeated parent/child declarations are legal DAX
        seen_edges.add((pref, ref))
        shared = [f for f in outputs[pref] if f in inputs[ref]]
        comm = (
            sum(outputs[pref][f] for f in shared) * size_scale
            if shared else default_comm
        )
        graph.add_edge(tid_of[pref], tid_of[ref], comm)
    return ExternalWorkload(graph=graph, fmt="dax", content_hash=content_hash(text))


# ----------------------------------------------------------------------
# WfCommons — JSON workflow instances (wfformat)
# ----------------------------------------------------------------------

WFCOMMONS_SCHEMA_VERSION = "1.5"


#: node name of the synthetic execution machine written on export —
#: graph costs are nominal *reference-machine* costs (paper §2.1), so
#: the execution block reports one reference node running every task
WFCOMMONS_REFERENCE_MACHINE = "repro_reference"


def write_wfcommons(obj, indent: Optional[int] = 2) -> str:
    """Serialize a graph to a WfCommons JSON workflow instance.

    Emits the modern split layout: structure (parents/children and one
    synthetic file per edge) under ``workflow.specification``, exact
    runtimes under ``workflow.execution``. File ``sizeInBytes`` carries
    the exact communication cost, so :func:`read_wfcommons` inverts the
    writer losslessly; ids are written as native JSON values, so int
    and str ids keep their types.

    The execution block carries the machine metadata external WfCommons
    tools expect of an instance: a ``machines`` table (one synthetic
    reference node — nominal costs are reference-machine costs), each
    task's ``machines`` assignment, and the serial
    ``makespanInSeconds`` of running every task on that node.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("w"); g.add_task(0, 2.0); g.add_task("b", 4.0)
    >>> g.add_edge(0, "b", 3.0)
    >>> wl = read_wfcommons(write_wfcommons(g))
    >>> graphs_equal(g, wl.graph), wl.graph.name
    (True, 'w')
    """
    graph = _as_graph(obj)
    tasks = graph.tasks()
    index = {t: i for i, t in enumerate(tasks)}
    for t in tasks:
        _id_repr(t)

    def fid(u: TaskId, v: TaskId) -> str:
        return f"e{index[u]}_{index[v]}"

    doc: Dict[str, Any] = {
        "name": graph.name,
        "schemaVersion": WFCOMMONS_SCHEMA_VERSION,
        "workflow": {
            "specification": {
                "tasks": [
                    {
                        "id": t,
                        "parents": list(graph.predecessors(t)),
                        "children": list(graph.successors(t)),
                        "inputFiles": [fid(p, t) for p in graph.predecessors(t)],
                        "outputFiles": [fid(t, s) for s in graph.successors(t)],
                    }
                    for t in tasks
                ],
                "files": [
                    {"id": fid(u, v), "sizeInBytes": graph.comm_cost(u, v)}
                    for u, v in graph.edges()
                ],
            },
            "execution": {
                "makespanInSeconds": graph.total_exec_cost(),
                "machines": [
                    {
                        "nodeName": WFCOMMONS_REFERENCE_MACHINE,
                        "cpu": {"coreCount": 1},
                    },
                ],
                "tasks": [
                    {
                        "id": t,
                        "runtimeInSeconds": graph.cost(t),
                        "machines": [WFCOMMONS_REFERENCE_MACHINE],
                    }
                    for t in tasks
                ],
            },
        },
    }
    return json.dumps(doc, indent=indent)


def _wf_file_size(entry: Mapping, what: str) -> float:
    size = entry.get("sizeInBytes", entry.get("size"))
    if size is None:
        return 0.0
    if not is_number(size):
        raise GraphError(f"{what}: file size {size!r:.60} is not a number")
    return float(size)


def _wf_list(entry: Mapping, key: str, what: str, ids: bool = False) -> list:
    """``entry[key]`` as a list (empty when absent or null); with
    ``ids``, every item must be an int or str id."""
    value = entry.get(key)
    if value is None:
        return []
    want(value, list, f"{what}: {key!r}", GraphError)
    if ids:
        for x in value:
            want(x, is_task_id, f"{what}: {key!r} entry", GraphError)
    return value


def read_wfcommons(
    text: str,
    name: Optional[str] = None,
    runtime_scale: float = 1.0,
    size_scale: float = 1.0,
    default_comm: float = 0.0,
) -> ExternalWorkload:
    """Parse a WfCommons JSON workflow instance.

    Accepts both wfformat layouts found in the wild: the modern split
    (``workflow.specification.tasks`` + ``workflow.execution.tasks``,
    schema >= 1.4) and the legacy flat list (``workflow.tasks`` with
    inline ``runtime``/``files``). Execution cost is
    ``runtimeInSeconds`` (or ``runtime``) times ``runtime_scale`` and
    must be positive; the communication cost of every parent→child edge
    sums the sizes of the files the parent outputs and the child
    inputs (times ``size_scale``), falling back to ``default_comm``
    when no file is shared.

    >>> wl = read_wfcommons('{"name": "w", "workflow": {"tasks": ['
    ...     '{"name": "a", "runtime": 2.0, "parents": []},'
    ...     '{"name": "b", "runtime": 3.0, "parents": ["a"]}]}}',
    ...     default_comm=0.5)
    >>> wl.graph.tasks(), wl.graph.comm_cost("a", "b")
    (['a', 'b'], 0.5)
    """
    _positive_scales(runtime_scale, size_scale, default_comm, "WfCommons")
    doc = loads(text, GraphError, "WfCommons document")
    if not isinstance(doc, dict) or not isinstance(doc.get("workflow"), dict):
        raise GraphError("not a WfCommons document (no 'workflow' object)")
    wf = doc["workflow"]

    def task_key(entry, prefer: Tuple[str, str]) -> TaskId:
        if not isinstance(entry, dict):
            raise GraphError(f"malformed WfCommons task entry {entry!r}")
        tid = entry.get(prefer[0], entry.get(prefer[1]))
        if tid is None:
            raise GraphError(f"WfCommons task entry without id/name: {entry!r}")
        return want(tid, is_task_id, "WfCommons task id", GraphError)

    def task_cost(tid: TaskId, runtime) -> float:
        if runtime is None:
            raise GraphError(
                f"WfCommons task {tid!r} has no runtime; runtimes are the "
                f"only execution-cost signal a workflow instance carries"
            )
        if not is_number(runtime):
            raise GraphError(
                f"WfCommons task {tid!r}: runtime {runtime!r:.60} is not a number")
        c = float(runtime) * runtime_scale
        if c <= 0:
            raise GraphError(
                f"WfCommons task {tid!r} has non-positive runtime "
                f"{runtime!r}; the model requires positive execution costs"
            )
        return c

    order: List[TaskId] = []
    cost: Dict[TaskId, float] = {}
    parents: Dict[TaskId, List] = {}
    children: Dict[TaskId, List] = {}
    inputs: Dict[TaskId, Dict[str, float]] = {}
    outputs: Dict[TaskId, Dict[str, float]] = {}

    spec = wf.get("specification")
    if isinstance(spec, dict) and isinstance(spec.get("tasks"), list):
        # modern layout: structure under specification, runtimes under
        # execution, file sizes in a shared table
        sizes: Dict[str, float] = {}
        for f in _wf_list(spec, "files", "WfCommons specification"):
            fid = f.get("id", f.get("name")) if isinstance(f, dict) else None
            if fid is not None:
                sizes[want(fid, is_task_id, "WfCommons file id", GraphError)] = \
                    _wf_file_size(f, "WfCommons")
        runtimes: Dict[TaskId, Any] = {}
        execution = wf.get("execution")
        if isinstance(execution, dict):
            for e in _wf_list(execution, "tasks", "WfCommons execution"):
                if isinstance(e, dict):
                    eid = want(e.get("id", e.get("name")), is_task_id,
                               "WfCommons execution task id", GraphError)
                    runtimes[eid] = e.get("runtimeInSeconds", e.get("runtime"))
        for entry in spec["tasks"]:
            tid = task_key(entry, ("id", "name"))
            if tid in cost:
                raise GraphError(f"duplicate WfCommons task id {tid!r}")
            runtime = runtimes.get(
                tid, entry.get("runtimeInSeconds", entry.get("runtime"))
            )
            cost[tid] = task_cost(tid, runtime)
            order.append(tid)
            what = f"WfCommons task {tid!r}"
            parents[tid] = _wf_list(entry, "parents", what, ids=True)
            children[tid] = _wf_list(entry, "children", what, ids=True)
            inputs[tid] = {f: sizes.get(f, 0.0)
                           for f in _wf_list(entry, "inputFiles", what, ids=True)}
            outputs[tid] = {f: sizes.get(f, 0.0)
                            for f in _wf_list(entry, "outputFiles", what, ids=True)}
    elif isinstance(wf.get("tasks"), list):
        # legacy flat layout: runtimes and files inline on each task.
        # Identity is the *name* here — legacy instances list parents/
        # children by name even when tasks also carry a surrogate id
        for entry in wf["tasks"]:
            tid = task_key(entry, ("name", "id"))
            if tid in cost:
                raise GraphError(f"duplicate WfCommons task id {tid!r}")
            runtime = entry.get("runtimeInSeconds", entry.get("runtime"))
            cost[tid] = task_cost(tid, runtime)
            order.append(tid)
            what = f"WfCommons task {tid!r}"
            parents[tid] = _wf_list(entry, "parents", what, ids=True)
            children[tid] = _wf_list(entry, "children", what, ids=True)
            ins: Dict[str, float] = {}
            outs: Dict[str, float] = {}
            for f in _wf_list(entry, "files", what):
                if not isinstance(f, dict):
                    continue
                fname = f.get("id", f.get("name"))
                if fname is None:
                    continue
                want(fname, is_task_id, f"{what}: file id", GraphError)
                link = f.get("link")
                if link is not None and not isinstance(link, str):
                    raise GraphError(
                        f"{what}: file link {link!r:.60} must be a string")
                link = (link or "").lower()
                if link == "input":
                    ins[fname] = _wf_file_size(f, what)
                elif link == "output":
                    outs[fname] = _wf_file_size(f, what)
            inputs[tid] = ins
            outputs[tid] = outs
    else:
        raise GraphError(
            "WfCommons workflow carries neither 'specification.tasks' "
            "nor a flat 'tasks' list"
        )

    graph_name = name if name is not None else doc.get("name")
    graph = TaskGraph(
        name=graph_name if isinstance(graph_name, str) else "wfcommons"
    )
    for tid in order:
        graph.add_task(tid, cost[tid])
    pairs: List[Tuple[TaskId, TaskId]] = []
    seen: set = set()
    for tid in order:
        for p in parents[tid]:
            if p not in cost:
                raise GraphError(
                    f"WfCommons task {tid!r} references unknown parent {p!r}"
                )
            if (p, tid) not in seen:
                seen.add((p, tid))
                pairs.append((p, tid))
    for tid in order:
        for ch in children[tid]:
            if ch not in cost:
                raise GraphError(
                    f"WfCommons task {tid!r} references unknown child {ch!r}"
                )
            if (tid, ch) not in seen:
                seen.add((tid, ch))
                pairs.append((tid, ch))
    for u, v in pairs:
        shared = [f for f in outputs[u] if f in inputs[v]]
        comm = (
            sum(outputs[u][f] for f in shared) * size_scale
            if shared else default_comm
        )
        graph.add_edge(u, v, comm)
    return ExternalWorkload(
        graph=graph, fmt="wfcommons", content_hash=content_hash(text)
    )


# ----------------------------------------------------------------------
# the cache-native json dialect (graph/io.py), for convert completeness
# ----------------------------------------------------------------------

def _read_json(text: str, name: Optional[str] = None) -> ExternalWorkload:
    graph = graph_from_json(text)
    if name is not None:
        graph.name = name
    return ExternalWorkload(graph=graph, fmt="json", content_hash=content_hash(text))


def _write_json(obj) -> str:
    return graph_to_json(_as_graph(obj))


# ----------------------------------------------------------------------
# registry + sniffing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GraphFormat:
    """One interchange format: how to read, write and recognize it."""

    name: str
    extensions: Tuple[str, ...]
    reader: Callable[..., ExternalWorkload]
    writer: Callable[[Any], str]
    sniffer: Callable[[str], bool]
    description: str


def _sniff_stg(text: str) -> bool:
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        return bool(re.fullmatch(r"\d+", line))
    return False


def _sniff_dot(text: str) -> bool:
    return re.search(r"\bdigraph\b", text) is not None


def _json_doc(text: str) -> Optional[dict]:
    if not text.lstrip().startswith("{"):
        return None
    try:
        doc = loads(text, GraphError, "document")
    except GraphError:
        return None
    return doc if isinstance(doc, dict) else None


def _sniff_trace(text: str) -> bool:
    doc = _json_doc(text)
    return doc is not None and doc.get("format") == TRACE_FORMAT


def _sniff_dax(text: str) -> bool:
    return "<adag" in text


def _sniff_wfcommons(text: str) -> bool:
    doc = _json_doc(text)
    if doc is None:
        return False
    wf = doc.get("workflow")
    return isinstance(wf, dict) and ("tasks" in wf or "specification" in wf)


def _sniff_json(text: str) -> bool:
    doc = _json_doc(text)
    return (
        doc is not None
        and "format" not in doc
        and "tasks" in doc
        and "version" in doc
    )


#: the interchange registry, keyed by format name
FORMATS: Dict[str, GraphFormat] = {
    "stg": GraphFormat(
        "stg", (".stg",), read_stg, write_stg, _sniff_stg,
        "Standard Task Graph (Kasahara) with #@ fidelity directives",
    ),
    "dot": GraphFormat(
        "dot", (".dot", ".gv"), read_dot, write_dot, _sniff_dot,
        "Graphviz digraph with exact cost=/comm= attributes",
    ),
    "trace": GraphFormat(
        "trace", (".trace.json", ".trace"), read_trace, write_trace, _sniff_trace,
        "JSON workflow trace (optional per-processor cost vectors)",
    ),
    "json": GraphFormat(
        "json", (".json",), _read_json, _write_json, _sniff_json,
        "repro.graph.io cache-native JSON dict",
    ),
    "dax": GraphFormat(
        "dax", (".dax",), read_dax, write_dax, _sniff_dax,
        "Pegasus DAX XML workflow (runtime -> cost, shared file sizes -> comm)",
    ),
    "wfcommons": GraphFormat(
        "wfcommons", (".wfcommons.json",), read_wfcommons, write_wfcommons,
        _sniff_wfcommons,
        "WfCommons JSON workflow instance (runtime -> cost, file sizes -> comm)",
    ),
}


def format_names() -> Tuple[str, ...]:
    """Registered format names, in registry order.

    >>> format_names()
    ('stg', 'dot', 'trace', 'json', 'dax', 'wfcommons')
    """
    return tuple(FORMATS)


def _formats_by_extension(filename: str) -> List[Tuple[int, str]]:
    """``(matched suffix length, format name)`` for every format whose
    extension matches ``filename``, longest suffix first — the shared
    tie-break for sniffing and for :func:`save_workload` (so
    ``x.trace.json`` resolves to ``trace`` over ``json`` in both)."""
    lowered = filename.lower()
    scored = []
    for f in FORMATS.values():
        lengths = [len(ext) for ext in f.extensions if lowered.endswith(ext)]
        if lengths:
            scored.append((max(lengths), f.name))
    scored.sort(key=lambda s: -s[0])
    return scored


def sniff_format(text: str, filename: Optional[str] = None) -> str:
    """Identify the format of ``text`` (filename extension helps but the
    content decides — ``.json`` may be a trace or a plain graph dict).

    >>> sniff_format("digraph g { }")
    'dot'
    >>> sniff_format("3\\n", filename="graphs/app.stg")
    'stg'
    """
    candidates = [f.name for f in FORMATS.values() if f.sniffer(text)]
    if len(candidates) == 1:
        return candidates[0]
    if filename:
        scored = _formats_by_extension(filename)
        if candidates:
            scored = [s for s in scored if s[1] in candidates]
        if scored and (len(scored) == 1 or scored[0][0] > scored[1][0]):
            return scored[0][1]
    if candidates:
        raise GraphError(
            f"ambiguous graph format (matches {candidates}); "
            f"pass fmt= explicitly"
        )
    raise GraphError(
        f"cannot determine graph format"
        + (f" of {filename!r}" if filename else "")
        + f"; known formats: {list(FORMATS)}"
    )


#: import policies for graphs that are not weakly connected: "none"
#: rejects them (unless require_connected=False), "epsilon" inserts
#: minimal-cost connector edges via :func:`bridge_components`, and
#: "components" keeps the components exactly as imported — no connector
#: edges — and marks the graph so validation and the schedulers treat
#: them as independent programs co-scheduled on one machine
BRIDGE_POLICIES = ("none", "epsilon", "components")

#: communication cost of an epsilon connector edge (zero is the true
#: minimum — the engines support zero-cost edges explicitly)
BRIDGE_COMM = 0.0


def bridge_components(graph: TaskGraph, comm: float = BRIDGE_COMM) -> TaskGraph:
    """Connect a disconnected DAG with minimal-cost connector edges.

    Published STG corpora sometimes use the zero-cost entry/exit
    dummies as the *only* link between otherwise-independent chains;
    stripping the dummies (required — the model needs positive task
    costs) then breaks the schedulers' connected-DAG assumption. This
    repairs such graphs: the first source task of the first component
    becomes a hub, and one ``hub -> first source of component`` edge of
    communication cost ``comm`` (default 0.0) is added per remaining
    component. The bridge edges serialize each bridged component behind
    the hub task's completion — a distortion the zero communication
    cost keeps as small as the precedence model allows.

    Returns ``graph`` itself (not a copy) when it is already weakly
    connected.

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph("two"); g.add_task("a", 1.0); g.add_task("b", 2.0)
    >>> h = bridge_components(g)
    >>> h.edges(), h.comm_cost("a", "b")
    ([('a', 'b')], 0.0)
    """
    from repro.graph.validation import weak_components

    if comm < 0:
        raise GraphError(f"bridge comm cost must be >= 0, got {comm}")
    components = weak_components(graph)
    if len(components) <= 1:
        return graph

    def first_source(members):
        # bridging runs before the DAG check, so a cyclic component
        # (which has no source) must fail cleanly here, not later
        source = next(
            (t for t in members if not graph.predecessors(t)), None
        )
        if source is None:
            raise GraphError(
                f"cannot bridge {graph.name!r}: a component has no source "
                f"task, so the graph contains a cycle"
            )
        return source

    out = graph.copy()
    hub = first_source(components[0])
    for members in components[1:]:
        out.add_edge(hub, first_source(members), comm)
    return out


def _apply_bridge(workload: ExternalWorkload, bridge: str) -> ExternalWorkload:
    if bridge not in BRIDGE_POLICIES:
        raise GraphError(
            f"unknown bridge policy {bridge!r}; known: {list(BRIDGE_POLICIES)}"
        )
    if bridge == "none":
        return workload
    if bridge == "components":
        # no hub edges: the weak components stay exactly as imported and
        # are scheduled as independent programs sharing the machine — no
        # serialization behind a hub task, at the price of leaving the
        # paper's connected-DAG assumption (the flag exempts the graph
        # from the connectivity check engine-wide)
        from repro.graph.validation import weak_components

        if len(weak_components(workload.graph)) <= 1:
            return workload
        marked = workload.graph.copy()
        marked.components_independent = True
        return dataclasses.replace(workload, graph=marked)
    bridged = bridge_components(workload.graph)
    if bridged is workload.graph:
        return workload
    return dataclasses.replace(workload, graph=bridged)


def loads_workload(
    text: str,
    fmt: Optional[str] = None,
    validate: bool = True,
    require_connected: bool = True,
    bridge: str = "none",
    **reader_kwargs,
) -> ExternalWorkload:
    """Read a workload from in-memory text (see :func:`load_workload`)."""
    if fmt is None:
        fmt = sniff_format(text)
    try:
        handler = FORMATS[fmt]
    except KeyError:
        raise GraphError(
            f"unknown graph format {fmt!r}; known: {list(FORMATS)}"
        ) from None
    if reader_kwargs:
        # options are format-specific (default_comm means nothing to a
        # trace, which carries explicit costs) — pass through only what
        # this reader understands, so callers can set options that
        # apply "wherever relevant" without pre-sniffing the format.
        # A kwarg no registered reader accepts is a typo, not an
        # inapplicable option — reject it instead of silently dropping.
        import inspect

        known = {
            name
            for f in FORMATS.values()
            for name in inspect.signature(f.reader).parameters
        }
        unknown = sorted(set(reader_kwargs) - known)
        if unknown:
            raise GraphError(
                f"unknown reader option(s) {unknown}; no registered "
                f"format accepts them"
            )
        accepted = inspect.signature(handler.reader).parameters
        reader_kwargs = {k: v for k, v in reader_kwargs.items() if k in accepted}
    workload = handler.reader(text, **reader_kwargs)
    workload = _apply_bridge(workload, bridge)
    if validate:
        validate_graph(workload.graph, require_connected=require_connected)
    return workload


def load_workload(
    path: str,
    fmt: Optional[str] = None,
    validate: bool = True,
    require_connected: bool = True,
    bridge: str = "none",
    **reader_kwargs,
) -> ExternalWorkload:
    """Read a task-graph file, sniffing the format unless ``fmt`` given.

    The graph is validated strictly (non-empty, acyclic and — unless
    ``require_connected=False`` — weakly connected, the paper's
    standing assumption) before it is returned. ``bridge="epsilon"``
    repairs a disconnected import first (see
    :func:`bridge_components`); ``bridge="components"`` instead marks
    the weak components as independent co-scheduled programs, adding
    no edges. Reader keyword options
    (``default_comm``, ``strip_dummies``, ``default_cost``,
    ``runtime_scale``, ...) pass through to the format's reader.
    """
    with open(path) as fh:
        text = fh.read()
    if fmt is None:
        fmt = sniff_format(text, filename=path)
    workload = loads_workload(
        text, fmt, validate=validate,
        require_connected=require_connected, bridge=bridge, **reader_kwargs,
    )
    return dataclasses.replace(workload, source=path)


def dumps_workload(obj, fmt: str) -> str:
    """Serialize a graph/workload/system to ``fmt`` text."""
    try:
        handler = FORMATS[fmt]
    except KeyError:
        raise GraphError(
            f"unknown graph format {fmt!r}; known: {list(FORMATS)}"
        ) from None
    return handler.writer(obj)


def save_workload(obj, path: str, fmt: Optional[str] = None) -> str:
    """Write a graph/workload/system to ``path``; format from extension
    unless given. Returns the format name used."""
    if fmt is None:
        scored = _formats_by_extension(path)
        if not scored:
            raise GraphError(
                f"cannot infer a graph format from {path!r}; pass fmt="
            )
        if len(scored) > 1 and scored[0][0] == scored[1][0]:
            raise GraphError(
                f"extension of {path!r} is ambiguous "
                f"({[name for _, name in scored]}); pass fmt="
            )
        fmt = scored[0][1]
    text = dumps_workload(obj, fmt)
    with open(path, "w") as fh:
        fh.write(text)
    return fmt


def convert_file(
    src: str,
    dst: str,
    from_fmt: Optional[str] = None,
    to_fmt: Optional[str] = None,
    validate: bool = True,
    require_connected: bool = True,
    bridge: str = "none",
    **reader_kwargs,
) -> Tuple[str, str, ExternalWorkload]:
    """Convert ``src`` to ``dst`` between any two registered formats.

    Returns ``(input format, output format, workload)``. Conversion to
    a format that cannot carry per-processor cost vectors (everything
    but ``trace``) keeps only the nominal graph.
    """
    workload = load_workload(
        src, fmt=from_fmt, validate=validate,
        require_connected=require_connected, bridge=bridge, **reader_kwargs,
    )
    out_fmt = save_workload(workload, dst, fmt=to_fmt)
    return workload.fmt, out_fmt, workload


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def relabel_tasks(
    graph: TaskGraph,
    rename: Optional[Callable[[TaskId], TaskId]] = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Copy ``graph`` with every task id passed through ``rename``.

    The default rename makes any graph interchange-safe: int/str ids
    pass through, everything else (e.g. the tuple ids of the generated
    regular applications) becomes a compact string.

    >>> from repro.workloads.forkjoin import fork_join
    >>> g = relabel_tasks(fork_join(1, 2))
    >>> g.tasks()
    ['J_0', 'F_1', 'W_1_0', 'W_1_1', 'J_1']
    """
    if rename is None:
        def rename(t: TaskId) -> TaskId:
            if is_task_id(t):
                return t
            if isinstance(t, tuple):
                return "_".join(str(part) for part in t)
            return str(t)
    mapping = {t: rename(t) for t in graph.tasks()}
    if len(set(mapping.values())) != len(mapping):
        raise GraphError("relabel_tasks: rename collapsed distinct task ids")
    out = TaskGraph(name=name or graph.name)
    for t in graph.tasks():
        out.add_task(mapping[t], graph.cost(t))
    for u, v in graph.edges():
        out.add_edge(mapping[u], mapping[v], graph.comm_cost(u, v))
    return out


def graphs_equal(a: TaskGraph, b: TaskGraph, check_name: bool = False) -> bool:
    """Exact structural equality: same task ids in the same insertion
    order with identical costs, and the same edge set with identical
    communication costs. (Edge *order* is not compared — STG groups
    edges by destination, so only the set survives every round trip.)

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph(); g.add_task(0, 1.0)
    >>> graphs_equal(g, g.copy())
    True
    """
    if check_name and a.name != b.name:
        return False
    if a.tasks() != b.tasks():
        return False
    if any(a.cost(t) != b.cost(t) for t in a.tasks()):
        return False
    ea = {(u, v): a.comm_cost(u, v) for u, v in a.edges()}
    eb = {(u, v): b.comm_cost(u, v) for u, v in b.edges()}
    return ea == eb
