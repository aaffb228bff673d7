"""The task graph model.

A parallel program is a weighted DAG (paper §2.1): tasks ``T1..Tn`` carry a
*nominal execution cost* ``tau_i`` (the cost on the reference — fastest —
machine) and each edge ``(i, j)`` carries a *nominal communication cost*
``c_ij`` for the message ``Mij``. Heterogeneity factors live in
:mod:`repro.network.system`, not here: the graph is platform-independent.

Task identifiers are arbitrary hashables (ints in generated workloads,
strings like ``"T1"`` in the paper example). Iteration orders are
deterministic: insertion order, which all generators keep topological-ish
and seeded.
"""

from __future__ import annotations

import sys
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CycleError, GraphError

TaskId = Hashable
Edge = Tuple[TaskId, TaskId]

#: NaN, infinities and ints too large for a float fail every ``<= _MAX`` check
_MAX = sys.float_info.max


class TaskGraph:
    """A directed acyclic task graph with execution and communication costs.

    Parameters
    ----------
    name:
        Optional human-readable name (used in reports and cache keys).

    Examples
    --------
    >>> g = TaskGraph(name="demo")
    >>> g.add_task("a", 10.0)
    >>> g.add_task("b", 5.0)
    >>> g.add_edge("a", "b", 2.0)
    >>> g.n_tasks, g.n_edges
    (2, 1)
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self._cost: Dict[TaskId, float] = {}
        self._succ: Dict[TaskId, Dict[TaskId, float]] = {}
        self._pred: Dict[TaskId, Dict[TaskId, float]] = {}
        self._index: Dict[TaskId, int] = {}
        self._zero_comm: Optional[bool] = None  # cache for has_zero_cost_edge
        self._pred_edges: Dict[TaskId, tuple] = {}  # cache for pred_edges
        #: declares a deliberately disconnected graph: its weak components
        #: are independent programs sharing the machine, and validation /
        #: the schedulers must accept them as-is instead of demanding the
        #: paper's connected-DAG assumption (set by the ``components``
        #: bridge policy in :mod:`repro.graph.interchange`)
        self.components_independent: bool = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: TaskId, cost: float) -> None:
        """Add a task with nominal execution cost ``cost`` (finite, > 0)."""
        if task in self._cost:
            raise GraphError(f"duplicate task {task!r}")
        if not 0 < cost <= _MAX:
            raise GraphError(f"task {task!r} must have positive finite cost, got {cost}")
        self._index[task] = len(self._cost)
        self._cost[task] = float(cost)
        self._succ[task] = {}
        self._pred[task] = {}

    def add_edge(self, src: TaskId, dst: TaskId, cost: float) -> None:
        """Add a message edge ``src -> dst`` with nominal cost ``cost`` (finite, >= 0)."""
        if src not in self._cost:
            raise GraphError(f"unknown source task {src!r}")
        if dst not in self._cost:
            raise GraphError(f"unknown destination task {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        if dst in self._succ[src]:
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        if not 0 <= cost <= _MAX:
            raise GraphError(
                f"edge {src!r}->{dst!r} must have non-negative finite cost, got {cost}")
        self._succ[src][dst] = float(cost)
        self._pred[dst][src] = float(cost)
        self._zero_comm = None
        self._pred_edges.pop(dst, None)

    def set_task_cost(self, task: TaskId, cost: float) -> None:
        if task not in self._cost:
            raise GraphError(f"unknown task {task!r}")
        if not 0 < cost <= _MAX:
            raise GraphError(f"task {task!r} must have positive finite cost, got {cost}")
        self._cost[task] = float(cost)

    def set_edge_cost(self, src: TaskId, dst: TaskId, cost: float) -> None:
        if dst not in self._succ.get(src, {}):
            raise GraphError(f"unknown edge {src!r} -> {dst!r}")
        if not 0 <= cost <= _MAX:
            raise GraphError(f"edge cost must be non-negative and finite, got {cost}")
        self._succ[src][dst] = float(cost)
        self._pred[dst][src] = float(cost)
        self._zero_comm = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._cost)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def tasks(self) -> List[TaskId]:
        """All task ids in insertion order."""
        return list(self._cost)

    def task_index(self, task: TaskId) -> int:
        """Position of ``task`` in graph (insertion) order — the order
        :meth:`tasks` returns. O(1); used for deterministic tie-breaks."""
        try:
            return self._index[task]
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def edges(self) -> List[Edge]:
        """All edges in deterministic (source-insertion) order."""
        return [(u, v) for u in self._cost for v in self._succ[u]]

    def has_task(self, task: TaskId) -> bool:
        return task in self._cost

    def has_edge(self, src: TaskId, dst: TaskId) -> bool:
        return dst in self._succ.get(src, {})

    def pred_edges(self, task: TaskId) -> tuple:
        """Cached ``((pred, (pred, task)), ...)`` pairs for every
        incoming edge — lets hot loops index route tables without
        allocating a fresh edge tuple per predecessor per visit."""
        e = self._pred_edges.get(task)
        if e is None:
            e = self._pred_edges[task] = tuple(
                (u, (u, task)) for u in self._pred[task]
            )
        return e

    def has_zero_cost_edge(self) -> bool:
        """True when any message has nominal cost 0 (cached; such hops
        have zero duration on every link, which the incremental settle
        engine's cycle-growth argument cannot handle — it falls back to
        the full pass for these graphs)."""
        if self._zero_comm is None:
            self._zero_comm = any(
                c == 0.0 for s in self._succ.values() for c in s.values()
            )
        return self._zero_comm

    def cost(self, task: TaskId) -> float:
        """Nominal execution cost ``tau_i``."""
        try:
            return self._cost[task]
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def comm_cost(self, src: TaskId, dst: TaskId) -> float:
        """Nominal communication cost ``c_ij`` of message ``(src, dst)``."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise GraphError(f"unknown edge {src!r} -> {dst!r}") from None

    def successors(self, task: TaskId) -> List[TaskId]:
        try:
            return list(self._succ[task])
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def predecessors(self, task: TaskId) -> List[TaskId]:
        try:
            return list(self._pred[task])
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def in_degree(self, task: TaskId) -> int:
        return len(self._pred[task])

    def out_degree(self, task: TaskId) -> int:
        return len(self._succ[task])

    def sources(self) -> List[TaskId]:
        """Tasks with no predecessors (entry tasks)."""
        return [t for t in self._cost if not self._pred[t]]

    def sinks(self) -> List[TaskId]:
        """Tasks with no successors (exit tasks)."""
        return [t for t in self._cost if not self._succ[t]]

    def total_exec_cost(self) -> float:
        return sum(self._cost.values())

    def total_comm_cost(self) -> float:
        return sum(c for s in self._succ.values() for c in s.values())

    def mean_exec_cost(self) -> float:
        return self.total_exec_cost() / self.n_tasks if self.n_tasks else 0.0

    def mean_comm_cost(self) -> float:
        return self.total_comm_cost() / self.n_edges if self.n_edges else 0.0

    # ------------------------------------------------------------------
    # orderings
    # ------------------------------------------------------------------
    def topological_order(self) -> List[TaskId]:
        """Kahn topological order (deterministic: insertion order ties).

        Raises :class:`CycleError` if the graph has a directed cycle.
        """
        indeg = {t: len(self._pred[t]) for t in self._cost}
        ready = [t for t in self._cost if indeg[t] == 0]
        order: List[TaskId] = []
        head = 0
        while head < len(ready):
            t = ready[head]
            head += 1
            order.append(t)
            for s in self._succ[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != self.n_tasks:
            stuck = [t for t, d in indeg.items() if d > 0]
            raise CycleError(f"task graph {self.name!r} contains a cycle", stuck)
        return order

    def is_topological(self, order: Iterable[TaskId]) -> bool:
        """True when ``order`` lists every task once, predecessors first."""
        pos = {}
        for i, t in enumerate(order):
            if t in pos or t not in self._cost:
                return False
            pos[t] = i
        if len(pos) != self.n_tasks:
            return False
        return all(pos[u] < pos[v] for u, v in self.edges())

    def ancestors(self, task: TaskId) -> set:
        """All transitive predecessors of ``task`` (excluding itself)."""
        seen: set = set()
        stack = list(self._pred[task])
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(self._pred[t])
        return seen

    def descendants(self, task: TaskId) -> set:
        """All transitive successors of ``task`` (excluding itself)."""
        seen: set = set()
        stack = list(self._succ[task])
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(self._succ[t])
        return seen

    def independent(self, a: TaskId, b: TaskId) -> bool:
        """True when neither ``a < b`` nor ``b < a`` in the partial order."""
        if a == b:
            return False
        return b not in self.descendants(a) and a not in self.descendants(b)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        g = TaskGraph(name=name or self.name)
        for t, c in self._cost.items():
            g.add_task(t, c)
        for u, v in self.edges():
            g.add_edge(u, v, self._succ[u][v])
        g.components_independent = self.components_independent
        return g

    def __contains__(self, task: TaskId) -> bool:
        return task in self._cost

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._cost)

    def __len__(self) -> int:
        return self.n_tasks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph({self.name!r}, n={self.n_tasks}, e={self.n_edges})"
