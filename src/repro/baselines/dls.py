"""Dynamic Level Scheduling (Sih & Lee 1993) — the paper's baseline.

DLS is a greedy dynamic list scheduler for heterogeneous,
interconnection-constrained systems. At every step it evaluates all
(ready task, processor) pairs and schedules the pair with the largest
*dynamic level*:

    DL(Ti, Px) = SL*(Ti) - max(DA(Ti, Px), TF(Px)) + Delta(Ti, Px)

* ``SL*`` — static level: the largest sum of *median* execution costs
  along any path from the task to a sink (communication excluded);
* ``DA`` — data arrival: when the last incoming message lands on ``Px``,
  with messages routed over the static shortest-path routing table and
  reserving exclusive link slots (store-and-forward);
* ``TF`` — the time the processor finishes its last scheduled task (DLS
  appends; no processor-slot insertion);
* ``Delta(Ti, Px) = E*(Ti) - E(Ti, Px)`` — the heterogeneity bonus for
  placing the task on a fast processor.

The paper criticizes exactly this structure: the greedy, locally-earliest
choice plus fixed table routes can clog links for later tasks. We keep the
algorithm faithful so that comparison is meaningful.

The argmax runs in
:meth:`~repro.baselines.common.ListScheduleBuilder.place_ready_pairs`
with the key ``(-DL, task index, processor)``. ``-DL`` only grows with
the pair's start, so with append links (the default) the pairs wait in a
lazy priority queue and most are never planned; with
``link_insertion=True`` every step rescans the ready pairs, skipping
those whose queue-free bound already loses. Either way the chosen pair
is the exhaustive loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.graph.analysis import static_b_levels
from repro.graph.validation import validate_graph
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.baselines.common import ListScheduleBuilder
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class DLSOptions:
    """Knobs for the DLS baseline.

    ``link_insertion=False`` (default) reserves link slots greedily in
    scheduling order, as Sih & Lee describe — and as the paper's critique
    of DLS's message handling presumes. Setting it True gives DLS the
    earliest-gap insertion substrate (a stronger variant than the paper's
    baseline; used in ablations).

    ``routing_strategy`` selects the static routing table: ``"bfs"``
    shortest paths (any topology), ``"ecube"`` dimension-ordered routing
    (hypercubes only — the static policy the paper names in §2.3), or
    ``"weighted"`` cost-aware Dijkstra over per-hop transfer time
    ``1/bandwidth`` (prefers fat links on heterogeneous topologies; the
    ``dls-weighted`` registry variant).
    """

    link_insertion: bool = False
    routing_strategy: str = "bfs"


def schedule_dls(
    system: HeterogeneousSystem,
    options: Optional[DLSOptions] = None,
) -> Schedule:
    """Run DLS and return a complete schedule.

    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import ring
    >>> from repro.workloads.suites import random_graph
    >>> system = HeterogeneousSystem.sample(
    ...     random_graph(12, seed=3), ring(4), seed=0)
    >>> schedule = schedule_dls(system)
    >>> schedule.algorithm, len(schedule.slots)
    ('DLS', 12)
    """
    options = options or DLSOptions()
    validate_graph(system.graph)
    graph = system.graph
    builder = ListScheduleBuilder(
        system,
        algorithm="DLS",
        routing=RoutingTable(system.topology, strategy=options.routing_strategy),
        link_insertion=options.link_insertion,
        proc_insertion=False,
    )

    # static level: median execution costs, no communication
    median = {t: system.median_exec_cost(t) for t in graph.tasks()}
    sl_star = static_b_levels(graph, exec_cost=lambda t: median[t])
    order_index = {t: k for k, t in enumerate(graph.tasks())}

    def key(task, proc, start):
        # -DL, so the smallest key is the largest dynamic level
        dl = sl_star[task] - start + (median[task]
                                      - system.exec_cost(task, proc))
        return (-dl, order_index[task], proc)

    builder.place_ready_pairs(key)
    sched = builder.finish()
    if len(sched.slots) != graph.n_tasks:
        raise ConfigurationError("DLS failed to schedule all tasks")
    return sched
