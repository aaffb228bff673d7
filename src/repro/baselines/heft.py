"""Contention-aware HEFT (extension beyond the paper).

HEFT (Topcuoglu et al.) ranks tasks by *upward rank* (mean execution cost
plus the heaviest successor chain including nominal communication) and
places each task, in rank order, on the processor minimizing its earliest
finish time with slot insertion. Classic HEFT assumes a contention-free
network; here messages are routed over the shortest-path table and reserve
exclusive link slots, so results are directly comparable with BSA/DLS on
the same substrate.
"""

from __future__ import annotations

from typing import Dict

from repro.graph.model import TaskId
from repro.graph.validation import validate_graph
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.baselines.common import ListScheduleBuilder
from repro.schedule.schedule import Schedule


def upward_ranks(system: HeterogeneousSystem) -> Dict[TaskId, float]:
    """HEFT's rank_u with mean execution costs and nominal comm costs."""
    graph = system.graph
    rank: Dict[TaskId, float] = {}
    for t in reversed(graph.topological_order()):
        best = 0.0
        for s in graph.successors(t):
            cand = graph.comm_cost(t, s) + rank[s]
            if cand > best:
                best = cand
        rank[t] = system.mean_exec_cost(t) + best
    return rank


def schedule_heft(system: HeterogeneousSystem) -> Schedule:
    """Run contention-aware HEFT and return a complete schedule.

    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import ring
    >>> from repro.workloads.suites import random_graph
    >>> system = HeterogeneousSystem.sample(
    ...     random_graph(12, seed=3), ring(4), seed=0)
    >>> schedule = schedule_heft(system)
    >>> schedule.algorithm, len(schedule.slots)
    ('HEFT', 12)
    """
    validate_graph(system.graph)
    graph = system.graph
    builder = ListScheduleBuilder(
        system,
        algorithm="HEFT",
        routing=RoutingTable(system.topology),
        link_insertion=True,
        proc_insertion=True,
    )
    rank = upward_ranks(system)
    order_index = {t: k for k, t in enumerate(graph.tasks())}
    # descending rank is precedence-safe: rank(parent) > rank(child)
    order = sorted(graph.tasks(), key=lambda t: (-rank[t], order_index[t]))

    for task in order:
        builder.place_earliest_finish(task)
    return builder.finish()
