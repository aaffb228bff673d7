"""Level analysis: t-levels, b-levels, critical paths, granularity.

Definitions follow the paper (§2.2):

* **b-level** of a task = length of the longest path *beginning* with the
  task (includes the task's own execution cost and downstream
  communication costs).
* **t-level** of a task = length of the longest path *reaching* the task
  (excludes the task's own cost; includes upstream execution and
  communication costs).
* **critical path (CP)** = path with the largest sum of execution and
  communication costs; every CP task satisfies
  ``t_level + b_level == cp_length``.

All functions accept an optional ``exec_cost`` mapping so the same code
computes nominal levels (``tau_i``) and per-processor *actual* levels
(``h_ix * tau_i``) — the latter drive BSA's pivot selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graph.model import TaskGraph, TaskId
from repro.util.rng import RngStream
from repro.util.tolerance import TIE_EPS


def _resolve_cost(graph: TaskGraph, exec_cost) -> Callable[[TaskId], float]:
    if exec_cost is None:
        return graph.cost
    if callable(exec_cost):
        return exec_cost
    return lambda t: exec_cost[t]


def t_levels(graph: TaskGraph, exec_cost=None) -> Dict[TaskId, float]:
    """Top levels: longest path length *into* each task (excl. own cost)."""
    cost = _resolve_cost(graph, exec_cost)
    tl: Dict[TaskId, float] = {}
    for t in graph.topological_order():
        best = 0.0
        for p in graph.predecessors(t):
            cand = tl[p] + cost(p) + graph.comm_cost(p, t)
            if cand > best:
                best = cand
        tl[t] = best
    return tl


def b_levels(graph: TaskGraph, exec_cost=None) -> Dict[TaskId, float]:
    """Bottom levels: longest path length *from* each task (incl. own cost)."""
    cost = _resolve_cost(graph, exec_cost)
    bl: Dict[TaskId, float] = {}
    for t in reversed(graph.topological_order()):
        best = 0.0
        for s in graph.successors(t):
            cand = graph.comm_cost(t, s) + bl[s]
            if cand > best:
                best = cand
        bl[t] = cost(t) + best
    return bl


def static_b_levels(graph: TaskGraph, exec_cost=None) -> Dict[TaskId, float]:
    """b-levels computed *without* communication costs (DLS static level)."""
    cost = _resolve_cost(graph, exec_cost)
    bl: Dict[TaskId, float] = {}
    for t in reversed(graph.topological_order()):
        best = 0.0
        for s in graph.successors(t):
            if bl[s] > best:
                best = bl[s]
        bl[t] = cost(t) + best
    return bl


def cp_length(graph: TaskGraph, exec_cost=None) -> float:
    """Length of the critical path (max b-level over entry tasks)."""
    bl = b_levels(graph, exec_cost)
    return max(bl.values()) if bl else 0.0


def critical_path(
    graph: TaskGraph,
    exec_cost=None,
    rng: Optional[RngStream] = None,
) -> List[TaskId]:
    """One critical path, as an ordered task list.

    When several paths tie for the largest total length, the paper selects
    the one with the larger sum of *execution* costs, breaking remaining
    ties randomly; we do the same (deterministically when ``rng`` is None,
    by preferring the earliest task in graph insertion order).
    """
    cost = _resolve_cost(graph, exec_cost)
    bl = b_levels(graph, exec_cost)
    if not bl:
        return []
    # exec-only weight of the heaviest-exec critical path starting at t
    exec_sum: Dict[TaskId, float] = {}
    next_hop: Dict[TaskId, List[TaskId]] = {}
    for t in reversed(graph.topological_order()):
        candidates = []
        for s in graph.successors(t):
            if abs(graph.comm_cost(t, s) + bl[s] - (bl[t] - cost(t))) <= TIE_EPS:
                candidates.append(s)
        next_hop[t] = candidates
        if candidates:
            exec_sum[t] = cost(t) + max(exec_sum[s] for s in candidates)
        else:
            exec_sum[t] = cost(t)

    cp_len = max(bl.values())
    starts = [t for t in graph.tasks() if abs(bl[t] - cp_len) <= TIE_EPS and not graph.predecessors(t)]
    if not starts:  # numerical fallback: any task achieving the max b-level
        starts = [t for t in graph.tasks() if abs(bl[t] - cp_len) <= TIE_EPS]
    starts = _argmax_ties(starts, lambda t: exec_sum[t], rng)

    path = [starts]
    while next_hop[path[-1]]:
        nxt = _argmax_ties(next_hop[path[-1]], lambda t: exec_sum[t], rng)
        path.append(nxt)
    return path


def _argmax_ties(items: Sequence[TaskId], key, rng: Optional[RngStream]):
    best = max(key(t) for t in items)
    tied = [t for t in items if abs(key(t) - best) <= TIE_EPS]
    if len(tied) == 1 or rng is None:
        return tied[0]
    return rng.choice(tied)


def granularity(graph: TaskGraph) -> float:
    """Paper's granularity: average execution cost / average comm cost.

    Returns ``inf`` for graphs whose messages are all free.
    """
    mc = graph.mean_comm_cost()
    if mc == 0:
        return float("inf")
    return graph.mean_exec_cost() / mc


@dataclass
class GraphAnalysis:
    """Bundled level analysis of one graph under one cost model.

    Computing t-levels, b-levels and the CP repeatedly is the hot path of
    serialization; this object computes them once and exposes derived
    queries.
    """

    graph: TaskGraph
    exec_cost: Optional[object] = None
    rng: Optional[RngStream] = None
    t_level: Dict[TaskId, float] = field(init=False)
    b_level: Dict[TaskId, float] = field(init=False)
    cp: List[TaskId] = field(init=False)
    cp_len: float = field(init=False)

    def __post_init__(self):
        self.t_level = t_levels(self.graph, self.exec_cost)
        self.b_level = b_levels(self.graph, self.exec_cost)
        self.cp = critical_path(self.graph, self.exec_cost, self.rng)
        self.cp_len = max(self.b_level.values()) if self.b_level else 0.0

