"""Shared helpers for workload generators.

The paper's regular applications have *fixed structure and fixed relative
execution costs* (determined by the modeled algorithm); only communication
costs vary, via the granularity parameter. ``scale_exec_costs`` rescales a
graph's relative weights so the mean execution cost hits a target (the
paper uses ≈150), and ``ensure_connected`` patches rare disconnected
random graphs without breaking acyclicity.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import WorkloadError
from repro.graph.model import TaskGraph, TaskId
from repro.graph.validation import weak_components
from repro.util.rng import RngStream


def scale_exec_costs(graph: TaskGraph, target_mean: float) -> TaskGraph:
    """Rescale all execution costs in place so their mean equals
    ``target_mean`` (relative magnitudes preserved).

    >>> from repro.graph.model import TaskGraph
    >>> g = TaskGraph(); g.add_task("a", 1.0); g.add_task("b", 3.0)
    >>> _ = scale_exec_costs(g, 150.0)
    >>> g.cost("a"), g.cost("b")
    (75.0, 225.0)
    """
    if target_mean <= 0:
        raise WorkloadError(f"target mean must be positive, got {target_mean}")
    mean = graph.mean_exec_cost()
    if mean <= 0:
        raise WorkloadError("graph has no positive-cost tasks to scale")
    factor = target_mean / mean
    for t in graph.tasks():
        graph.set_task_cost(t, graph.cost(t) * factor)
    return graph


def ensure_connected(
    graph: TaskGraph,
    layer_of: Dict[TaskId, int],
    rng: RngStream,
    comm_cost: float = 1.0,
) -> TaskGraph:
    """Make the graph weakly connected by bridging components.

    ``layer_of`` must topologically stratify tasks (edges only go from a
    lower to a strictly higher layer), so any added bridge keeps the graph
    acyclic.

    >>> from repro.graph.model import TaskGraph
    >>> from repro.util.rng import RngStream
    >>> g = TaskGraph()
    >>> for t in ("a", "b"): g.add_task(t, 1.0)
    >>> g = ensure_connected(g, {"a": 0, "b": 1}, RngStream(0))
    >>> g.n_edges
    1
    """
    comps = weak_components(graph)
    if len(comps) <= 1:
        return graph
    comps.sort(key=len, reverse=True)
    main = comps[0]
    for comp in comps[1:]:
        main_list = sorted(main, key=lambda t: (layer_of[t], str(t)))
        comp_list = sorted(comp, key=lambda t: (layer_of[t], str(t)))
        # bridge from the main component into this component (or out of it)
        candidates = [
            (u, v)
            for u in main_list
            for v in comp_list[:1]
            if layer_of[u] < layer_of[v]
        ]
        if candidates:
            u, v = rng.choice(candidates)
        else:
            # component starts at layer <= everything in main: bridge outward
            u = comp_list[0]
            targets = [w for w in main_list if layer_of[w] > layer_of[u]]
            if not targets:
                raise WorkloadError("cannot bridge components without a cycle")
            v = rng.choice(targets)
        graph.add_edge(u, v, comm_cost)
        main += comp
    return graph
