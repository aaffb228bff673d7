"""Granularity control (paper §3).

The paper defines granularity as *average execution cost / average
communication cost*: granularity 0.1 means messages cost ~10x a task
(fine-grained), 10.0 means ~10% of a task (coarse-grained).

``apply_granularity`` redraws every edge cost from a uniform band around
the target mean, then rescales exactly so the achieved granularity equals
the request (the uniform draw alone would only hit it in expectation).
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.graph.model import TaskGraph
from repro.util.rng import RngStream


def apply_granularity(
    graph: TaskGraph,
    granularity: float,
    seed: int = 0,
    spread: float = 0.5,
) -> TaskGraph:
    """Set communication costs in place for the target ``granularity``.

    ``spread`` controls per-edge variation: costs are drawn uniformly from
    ``[(1-spread), (1+spread)] * mean`` before exact rescaling.
    """
    if granularity <= 0:
        raise WorkloadError(f"granularity must be positive, got {granularity}")
    if not (0 <= spread < 1):
        raise WorkloadError(f"spread must be in [0, 1), got {spread}")
    if graph.n_edges == 0:
        return graph
    rng = RngStream(seed).fork("granularity", graph.name, granularity)
    target_mean = graph.mean_exec_cost() / granularity
    edges = graph.edges()
    draws = rng.uniforms((1 - spread) * target_mean, (1 + spread) * target_mean,
                         len(edges))
    for (u, v), cost in zip(edges, draws):
        graph.set_edge_cost(u, v, cost)
    achieved_mean = graph.mean_comm_cost()
    correction = target_mean / achieved_mean
    for u, v in graph.edges():
        graph.set_edge_cost(u, v, graph.comm_cost(u, v) * correction)
    return graph
