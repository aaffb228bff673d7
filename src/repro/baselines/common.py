"""Shared scaffolding for routing-table list schedulers (DLS, ETF, HEFT,
CPOP, spdecomp).

These algorithms build a schedule monotonically: once a task is placed its
times never change. Messages are routed over *static shortest paths*
(:class:`repro.network.routing.RoutingTable`) with store-and-forward
timing and exclusive link reservations — the contention model is identical
to BSA's substrate, only the route choice differs (table vs incremental).

HEFT, CPOP and spdecomp share one earliest-finish argmin,
:meth:`ListScheduleBuilder.place_earliest_finish`, which screens the
candidate processors with a committed-load lower bound before planning
any message exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.graph.model import TaskId
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.network.topology import Proc
from repro.obs import counters as _obs
from repro.schedule.events import Edge
from repro.schedule.linkplan import (
    LinkPlanner,
    committed_arrival_bounds,
    slot_start,
)
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
        #: exact plans / screened-out candidates of place_earliest_finish
        self.candidates_evaluated = 0
        self.candidates_pruned = 0

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

    def arrival_bounds(self, task: TaskId) -> List[float]:
        """Per-processor lower bound on ``task``'s data-arrival time
        (indexed by processor): each incoming message walked over the
        committed link load along the table's route trie
        (:func:`~repro.schedule.linkplan.committed_arrival_bounds`), then
        the plain max over messages :meth:`plan_messages` takes. Sound
        only under link insertion."""
        sched = self.sched
        lbs = [0.0] * self.system.topology.n_procs
        tl_memo: dict = {}
        for k in self.system.graph.predecessors(task):
            trie = self.routing.trie(sched.proc_of(k))
            for p, b in enumerate(
                committed_arrival_bounds(sched, (k, task), trie, tl_memo)
            ):
                if b > lbs[p]:
                    lbs[p] = b
        return lbs

    def place_earliest_finish(
        self, task: TaskId, tail: Sequence[TaskId] = ()
    ) -> Proc:
        """Commit ``task`` on the processor minimizing ``(EFT + exec cost
        of tail there, proc)`` and return that processor.

        ``tail`` prices further tasks that will follow ``task`` on the
        same processor (spdecomp's chain lookahead); HEFT and CPOP pass
        none. The engine sorts the candidates by a lower bound on that
        score — the earliest slot after :meth:`arrival_bounds`, plus the
        execution and tail costs — and plans them exactly, cheapest
        first, until a candidate's ``(bound, proc)`` exceeds the best
        exact ``(score, proc)``: neither it nor any later candidate can
        win. Every step of the bound is float-monotone in the exact
        plan's operands (earliest-gap queries grow with ready time and
        reservation set; the arrival is a plain max; the sums add the
        same floats), so no slack is needed and the chosen processor is
        the exhaustive loop's. The legacy reference mode, and the
        append link policy (where the committed walk is no bound),
        evaluate every processor in order.
        """
        system = self.system
        procs = system.topology.processors
        exec_row = system.exec_cost_row(task)
        tail_cost = [sum(system.exec_cost(m, p) for m in tail) for p in procs]
        if reference_mode() or not self.link_insertion:
            candidates = [(float("-inf"), p) for p in procs]
        else:
            lbs = self.arrival_bounds(task)
            candidates = sorted(
                (slot_start(self.sched, p, lbs[p], exec_row[p],
                            self.proc_insertion)
                 + exec_row[p] + tail_cost[p], p)
                for p in procs
            )
        best = None  # (score, proc, start, plans)
        evaluated = 0
        for bound, proc in candidates:
            if best is not None and (bound, proc) > best[:2]:
                break
            da, plans = self.plan_messages(task, proc)
            start = self.earliest_start(task, proc, da)
            score = start + exec_row[proc] + tail_cost[proc]
            evaluated += 1
            if best is None or (score, proc) < best[:2]:
                best = (score, proc, start, plans)
        self.candidates_evaluated += evaluated
        self.candidates_pruned += len(candidates) - evaluated
        _, proc, start, plans = best
        self.commit(task, proc, start, plans)
        return proc

    def place(self, task: TaskId, proc: Proc) -> None:
        """Commit ``task`` on ``proc`` at its earliest start there."""
        da, plans = self.plan_messages(task, proc)
        self.commit(task, proc, self.earliest_start(task, proc, da), plans)

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
        if _obs.ACTIVE:
            _obs.inc("list.candidates_evaluated", self.candidates_evaluated)
            _obs.inc("list.candidates_pruned", self.candidates_pruned)
        return self.sched
