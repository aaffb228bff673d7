"""Contention-aware CPOP (extension beyond the paper).

CPOP (Topcuoglu et al.) assigns every critical-path task to the single
processor minimizing the CP's total execution time; other tasks are placed
by earliest finish time. Priorities are ``rank_u + rank_d``. As with our
HEFT variant, messages are routed with real link reservations so the
comparison with BSA/DLS is on equal footing.
"""

from __future__ import annotations

import heapq
from typing import Dict, Set

from repro.graph.model import TaskId
from repro.graph.validation import validate_graph
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.baselines.common import ListScheduleBuilder
from repro.baselines.heft import upward_ranks
from repro.schedule.schedule import Schedule
from repro.util.tolerance import TIE_EPS


def downward_ranks(system: HeterogeneousSystem) -> Dict[TaskId, float]:
    """rank_d: heaviest chain from an entry task into each task."""
    graph = system.graph
    rank: Dict[TaskId, float] = {}
    for t in graph.topological_order():
        best = 0.0
        for p in graph.predecessors(t):
            cand = rank[p] + system.mean_exec_cost(p) + graph.comm_cost(p, t)
            if cand > best:
                best = cand
        rank[t] = best
    return rank


def schedule_cpop(system: HeterogeneousSystem) -> Schedule:
    """Run contention-aware CPOP and return a complete schedule.

    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import ring
    >>> from repro.workloads.suites import random_graph
    >>> system = HeterogeneousSystem.sample(
    ...     random_graph(12, seed=3), ring(4), seed=0)
    >>> schedule = schedule_cpop(system)
    >>> schedule.algorithm, len(schedule.slots)
    ('CPOP', 12)
    """
    validate_graph(system.graph)
    graph = system.graph
    ru = upward_ranks(system)
    rd = downward_ranks(system)
    priority = {t: ru[t] + rd[t] for t in graph.tasks()}
    cp_value = max(priority.values())

    # walk one critical path by priority
    cp_tasks: Set[TaskId] = set()
    entries = [t for t in graph.tasks() if not graph.predecessors(t)]
    cur = max(entries, key=lambda t: (priority[t] >= cp_value - TIE_EPS, priority[t]))
    cp_tasks.add(cur)
    while graph.successors(cur):
        nxt = max(
            graph.successors(cur),
            key=lambda s: (abs(priority[s] - cp_value) <= TIE_EPS, priority[s]),
        )
        cp_tasks.add(nxt)
        cur = nxt

    cp_proc = min(
        system.topology.processors,
        key=lambda p: sum(system.exec_cost(t, p) for t in cp_tasks),
    )

    builder = ListScheduleBuilder(
        system,
        algorithm="CPOP",
        routing=RoutingTable(system.topology),
        link_insertion=True,
        proc_insertion=True,
    )

    order_index = {t: k for k, t in enumerate(graph.tasks())}
    n_unsched = {t: graph.in_degree(t) for t in graph.tasks()}
    heap = [(-priority[t], order_index[t], t) for t in graph.tasks() if n_unsched[t] == 0]
    heapq.heapify(heap)

    while heap:
        _, _, task = heapq.heappop(heap)
        if task in cp_tasks:
            builder.place(task, cp_proc)
        else:
            builder.place_earliest_finish(task)
        for s in graph.successors(task):
            n_unsched[s] -= 1
            if n_unsched[s] == 0:
                heapq.heappush(heap, (-priority[s], order_index[s], s))
    return builder.finish()
