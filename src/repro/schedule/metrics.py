"""Schedule quality metrics.

Beyond the paper's headline metric (schedule length), these are the
standard quantities used to discuss contention-aware schedules: total
communication (Figure 2 reports it), processor/link utilization, speedup
against the best serial execution, and the CP-based lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.graph.analysis import static_b_levels
from repro.network.topology import Link, Proc
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class ScheduleMetrics:
    """Bundle of summary statistics for one schedule."""

    schedule_length: float
    total_comm_cost: float           # sum of hop durations (Fig. 2 metric)
    n_routed_messages: int
    n_hops: int
    serial_best: float               # best single-processor execution time
    speedup: float                   # serial_best / schedule_length
    efficiency: float                # speedup / n_procs
    cp_exec_lower_bound: float       # heaviest exec-only path, fastest procs
    normalized_sl: float             # schedule_length / cp_exec_lower_bound
    proc_utilization: Dict[Proc, float]
    link_utilization: Dict[Link, float]


def compute_metrics(schedule: Schedule) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` for a complete schedule."""
    system = schedule.system
    graph = system.graph
    sl = schedule.schedule_length()

    total_comm = sum(h.duration for r in schedule.routes.values() for h in r.hops)
    n_routed = sum(1 for r in schedule.routes.values() if not r.is_local)
    n_hops = sum(len(r.hops) for r in schedule.routes.values())

    # one cost row per task; each processor's column summed in task order
    tasks = graph.tasks()
    rows = list(map(system.exec_cost_row, tasks))
    serial_best = min(map(sum, zip(*rows)), default=0)

    # exec-only critical path with each task on its fastest processor: no
    # schedule can beat the heaviest chain even with free communication.
    fastest = dict(zip(tasks, map(min, rows)))
    bl = static_b_levels(graph, fastest)
    lower = max(bl.values()) if bl else 0.0

    horizon = sl if sl > 0 else 1.0
    proc_util = {
        p: sum(schedule.slots[t].duration for t in order) / horizon
        for p, order in schedule.proc_order.items()
    }
    link_util = {
        l: sum(h.duration for h in hops) / horizon
        for l, hops in schedule.link_order.items()
    }

    return ScheduleMetrics(
        schedule_length=sl,
        total_comm_cost=total_comm,
        n_routed_messages=n_routed,
        n_hops=n_hops,
        serial_best=serial_best,
        speedup=serial_best / sl if sl > 0 else float("inf"),
        efficiency=(serial_best / sl / system.n_procs) if sl > 0 else float("inf"),
        cp_exec_lower_bound=lower,
        normalized_sl=sl / lower if lower > 0 else float("inf"),
        proc_utilization=proc_util,
        link_utilization=link_util,
    )
