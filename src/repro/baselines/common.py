"""Shared scaffolding for routing-table list schedulers (DLS/HEFT/CPOP).

These algorithms build a schedule monotonically: once a task is placed its
times never change. Messages are routed over *static shortest paths*
(:class:`repro.network.routing.RoutingTable`) with store-and-forward
timing and exclusive link reservations — the contention model is identical
to BSA's substrate, only the route choice differs (table vs incremental).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.graph.model import TaskId
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.network.topology import Proc
from repro.schedule.events import Edge
from repro.schedule.linkplan import LinkPlanner, slot_start
from repro.schedule.schedule import Schedule
from repro.util.intervals import reference_mode


@dataclass
class MessagePlan:
    """Planned (not yet committed) routing of one incoming message."""

    edge: Edge
    path: Optional[List[Proc]]          # None => local
    hop_starts: Optional[List[float]]
    arrival: float


class ListScheduleBuilder:
    """Monotonic schedule construction with routed messages."""

    def __init__(
        self,
        system: HeterogeneousSystem,
        algorithm: str,
        routing: Optional[RoutingTable] = None,
        link_insertion: bool = True,
        proc_insertion: bool = False,
    ):
        self.system = system
        self.sched = Schedule(system, algorithm)
        self.routing = routing or RoutingTable(system.topology)
        self.link_insertion = link_insertion
        self.proc_insertion = proc_insertion

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def plan_messages(self, task: TaskId, proc: Proc) -> Tuple[float, List[MessagePlan]]:
        """Plan the routing of all incoming messages of ``task`` onto
        ``proc``; return (data-arrival time, plans). Nothing is committed.

        Plans within one call share a tentative link load so two messages
        of the same task never plan overlapping reservations.
        """
        graph = self.system.graph
        planner = LinkPlanner(self.sched, self.link_insertion)
        plans: List[MessagePlan] = []
        da = 0.0
        for k in graph.predecessors(task):
            edge = (k, task)
            if not self.sched.is_scheduled(k):
                raise SchedulingError(
                    f"cannot place {task!r}: predecessor {k!r} unscheduled"
                )
            src_proc = self.sched.proc_of(k)
            ready = self.sched.slots[k].finish
            if src_proc == proc:
                plans.append(MessagePlan(edge, None, None, ready))
            else:
                path = self.routing.path(src_proc, proc)
                hop_starts, arrival = planner.walk_path(edge, path, ready)
                plans.append(MessagePlan(edge, path, hop_starts, arrival))
            da = max(da, plans[-1].arrival)
        return da, plans

    def earliest_start(self, task: TaskId, proc: Proc, data_arrival: float) -> float:
        """Earliest start on ``proc`` given arrival, per the slot policy."""
        duration = self.system.exec_cost(task, proc)
        return slot_start(self.sched, proc, data_arrival, duration,
                          self.proc_insertion)

    def proc_available(self, proc: Proc) -> float:
        """Finish time of the last task on ``proc`` (DLS's ``TF``)."""
        if reference_mode():
            busy = self.sched.proc_busy(proc)
            return busy[-1].finish if busy else 0.0
        return self.sched.proc_timeline(proc).last_finish()

    # ------------------------------------------------------------------
    # commitment
    # ------------------------------------------------------------------
    def commit(
        self,
        task: TaskId,
        proc: Proc,
        start: float,
        plans: List[MessagePlan],
    ) -> None:
        """Place ``task`` at ``start`` on ``proc`` and commit its messages."""
        for plan in plans:
            if plan.path is None:
                self.sched.mark_local(plan.edge)
            else:
                self.sched.set_route(plan.edge, plan.path, hop_starts=plan.hop_starts)
        self.sched.place_task(task, proc, start=start)

    def finish(self) -> Schedule:
        """Final bookkeeping: mark still-unrouted local edges, sanity-check."""
        graph = self.system.graph
        for edge in graph.edges():
            if edge not in self.sched.routes:
                u, v = edge
                if (
                    self.sched.is_scheduled(u)
                    and self.sched.is_scheduled(v)
                    and self.sched.proc_of(u) == self.sched.proc_of(v)
                ):
                    self.sched.mark_local(edge)
        return self.sched
