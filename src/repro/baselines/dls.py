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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.graph.analysis import static_b_levels
from repro.graph.model import TaskId
from repro.graph.validation import validate_graph
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.baselines.common import ListScheduleBuilder, MessagePlan
from repro.schedule.linkplan import arrival_lower_bound
from repro.schedule.schedule import Schedule
from repro.util.intervals import reference_mode


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

    n_unsched_preds: Dict[TaskId, int] = {
        t: graph.in_degree(t) for t in graph.tasks()
    }
    ready: List[TaskId] = [t for t in graph.tasks() if n_unsched_preds[t] == 0]
    procs = system.topology.processors

    use_pruning = not reference_mode()
    # With homogeneous link factors and uniform unit bandwidth every hop
    # of message (k, task) costs its nominal c, and table routes have a
    # fixed hop count — so the queue-free store-and-forward chain
    # lower-bounds the data arrival per (pred, proc) pair float-exactly.
    # Skewed bandwidths make fast-link hops cheaper than c, so the chain
    # would overshoot; fall back to the producer-finish bound there.
    distance_bound = use_pruning and (
        system.link_mode is LinkHeterogeneity.HOMOGENEOUS
        and system.topology.uniform_bandwidth
    )
    routing = builder.routing
    slots = builder.sched.slots
    # DLS is monotonic: once a task's predecessors are placed their procs
    # and finish times never change, so the per-(task, proc) arrival
    # bound is computed once when the task first becomes ready.
    da_lb_cache: Dict[TaskId, List[float]] = {}
    while ready:
        best = None  # (key, task, proc, start, plans)
        for task in ready:
            sl = sl_star[task]
            oi = order_index[task]
            if use_pruning:
                # Exact upper bound on DL(task, proc): the data arrival
                # can never precede the latest predecessor finish plus
                # (for homogeneous links) the queue-free store-and-
                # forward chain over the table route's hop count, so
                #   DL <= sl - max(da_lb, TF) + delta
                # float-exactly (same subtraction/addition operands,
                # repeated addition mirroring the plan's hop chain).
                # A pair is skipped only when even that bound loses to
                # the incumbent key, making the argmax — and hence the
                # schedule — identical to exhaustive evaluation.
                lbs = da_lb_cache.get(task)
                if lbs is None:
                    pred_info = [
                        (builder.sched.proc_of(k), slots[k].finish,
                         graph.comm_cost(k, task))
                        for k in graph.predecessors(task)
                    ]
                    hop_distance = (
                        (lambda p, q: len(routing.path(p, q)) - 1)
                        if distance_bound else None
                    )
                    lbs = [
                        arrival_lower_bound(pred_info, proc, hop_distance)
                        for proc in procs
                    ]
                    da_lb_cache[task] = lbs
            for proc in procs:
                tf = builder.proc_available(proc)
                delta = median[task] - system.exec_cost(task, proc)
                if use_pruning and best is not None:
                    dl_ub = sl - max(lbs[proc], tf) + delta
                    if (-dl_ub, oi, proc) >= best[0]:
                        continue
                da, plans = builder.plan_messages(task, proc)
                start = max(da, tf)
                dl = sl - start + delta
                key = (-dl, oi, proc)
                if best is None or key < best[0]:
                    best = (key, task, proc, start, plans)
        _, task, proc, start, plans = best
        builder.commit(task, proc, start, plans)
        ready.remove(task)
        for s in graph.successors(task):
            n_unsched_preds[s] -= 1
            if n_unsched_preds[s] == 0:
                ready.append(s)

    sched = builder.finish()
    if len(sched.slots) != graph.n_tasks:
        raise ConfigurationError("DLS failed to schedule all tasks")
    return sched
