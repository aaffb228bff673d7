"""Trivial reference schedulers used as sanity bounds in tests and benches.

``schedule_serial`` is the best single-processor execution: every parallel
schedule should beat or match it on parallel-friendly graphs, and no
contention model can make it invalid (there are no messages).

``schedule_round_robin`` spreads tasks over processors with no cost
awareness; it exercises the routing substrate heavily and provides an
upper-bound-ish reference for how bad naive mapping gets on sparse
topologies.
"""

from __future__ import annotations

from repro.graph.validation import validate_graph
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.baselines.common import ListScheduleBuilder
from repro.schedule.schedule import Schedule


def schedule_serial(system: HeterogeneousSystem) -> Schedule:
    """All tasks, in topological order, on the fastest single processor."""
    validate_graph(system.graph)
    graph = system.graph
    proc = min(
        system.topology.processors,
        key=lambda p: sum(system.exec_cost(t, p) for t in graph.tasks()),
    )
    builder = ListScheduleBuilder(system, algorithm="serial")
    for task in graph.topological_order():
        builder.place(task, proc)
    return builder.finish()


def schedule_round_robin(system: HeterogeneousSystem) -> Schedule:
    """Topological order, processors assigned cyclically."""
    validate_graph(system.graph)
    graph = system.graph
    builder = ListScheduleBuilder(
        system,
        algorithm="round-robin",
        routing=RoutingTable(system.topology),
        link_insertion=True,
        proc_insertion=False,
    )
    procs = system.topology.processors
    for i, task in enumerate(graph.topological_order()):
        proc = procs[i % len(procs)]
        builder.place(task, proc)
    return builder.finish()
