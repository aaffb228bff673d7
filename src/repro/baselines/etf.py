"""Contention-aware ETF — Earliest Task First (Hwang et al. 1989).

ETF is the classic greedy-by-start-time list scheduler: at every step it
evaluates all (ready task, processor) pairs and commits the pair with the
*earliest start time*, breaking ties by larger static level (so the
critical path is preferred among equally early candidates). It is the
natural counterpoint to DLS (which maximizes level *minus* start time)
and a common yardstick in the contention-aware scheduling literature that
followed this paper.

Messages route over the static shortest-path table with exclusive link
reservations, identical to our DLS substrate, so all baselines compare on
equal footing.

The argmin runs in
:meth:`~repro.baselines.common.ListScheduleBuilder.place_ready_pairs`
with the key ``(start, -static level, task index, processor)``. Links
and processors append, so a pair's start only grows as the schedule
does: the pairs wait in a lazy priority queue, and only those whose
stale key could still win are planned again.
"""

from __future__ import annotations

from repro.graph.analysis import static_b_levels
from repro.graph.validation import validate_graph
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.baselines.common import ListScheduleBuilder
from repro.schedule.schedule import Schedule


def schedule_etf(system: HeterogeneousSystem) -> Schedule:
    """Run contention-aware ETF and return a complete schedule.

    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import ring
    >>> from repro.workloads.suites import random_graph
    >>> system = HeterogeneousSystem.sample(
    ...     random_graph(12, seed=3), ring(4), seed=0)
    >>> schedule = schedule_etf(system)
    >>> schedule.algorithm, len(schedule.slots)
    ('ETF', 12)
    """
    validate_graph(system.graph)
    graph = system.graph
    builder = ListScheduleBuilder(
        system,
        algorithm="ETF",
        routing=RoutingTable(system.topology),
        link_insertion=False,   # contemporaneous with DLS: greedy links
        proc_insertion=False,
    )

    # static level on median costs, as in the DLS comparison setting
    median = {t: system.median_exec_cost(t) for t in graph.tasks()}
    sl = static_b_levels(graph, exec_cost=lambda t: median[t])
    order_index = {t: k for k, t in enumerate(graph.tasks())}

    builder.place_ready_pairs(
        lambda task, proc, start: (start, -sl[task], order_index[task], proc)
    )
    return builder.finish()
