"""Shared scaffolding for routing-table list schedulers (DLS, ETF, HEFT,
CPOP, spdecomp).

These algorithms build a schedule monotonically: once a task is placed its
times never change. Messages are routed over *static shortest paths*
(:class:`repro.network.routing.RoutingTable`) with store-and-forward
timing and exclusive link reservations — the contention model is identical
to BSA's substrate, only the route choice differs (table vs incremental).

HEFT, CPOP and spdecomp share one earliest-finish argmin,
:meth:`ListScheduleBuilder.place_earliest_finish`, which screens the
candidate processors with a one-hop bound, then a committed-load bound
toward the survivors, before planning their messages exactly. DLS and
ETF share one argmin over ready (task, processor) pairs,
:meth:`ListScheduleBuilder.place_ready_pairs`, which keeps the pairs in
a lazy priority queue when links append.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.graph.model import TaskId
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.network.topology import Proc
from repro.obs import counters as _obs
from repro.schedule.events import Edge
from repro.schedule.linkplan import (
    LinkPlanner,
    chain_arrival_bounds,
    committed_arrival_bounds,
    one_hop_arrival_bounds,
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
        #: exact plans / skipped candidates of the two argmins
        self.candidates_evaluated = 0
        self.candidates_pruned = 0
        #: earliest-finish placements whose one-hop screen pruned every
        #: processor but the incumbent, so no route trie was walked
        self.walks_skipped = 0

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

    def place_earliest_finish(
        self, task: TaskId, tail: Sequence[TaskId] = ()
    ) -> Proc:
        """Commit ``task`` on the processor minimizing ``(EFT + exec cost
        of tail there, proc)`` and return that processor.

        ``tail`` prices further tasks that will follow ``task`` on the
        same processor (spdecomp's chain lookahead); HEFT and CPOP pass
        none. A processor's lower bound on that score is the earliest
        slot after a lower bound on its data arrival, plus the execution
        and tail costs, added as the exact score adds them. The screen
        bounds every processor with
        :func:`~repro.schedule.linkplan.one_hop_arrival_bounds` first
        and plans the best-bounded one exactly as the incumbent. Then it
        walks each producer's route trie
        (:func:`~repro.schedule.linkplan.committed_arrival_bounds`) only
        toward the processors whose ``(bound, proc)`` is still below the
        best exact ``(score, proc)``, and prunes again after each
        producer. When the one-hop screen leaves none, no trie is walked
        (:attr:`walks_skipped`). The survivors are planned exactly,
        cheapest bound first, until a bound exceeds the best score.

        A processor is skipped only when a lower bound on its exact score
        exceeds an exact ``(score, proc)``, so the chosen processor is
        the exhaustive loop's. No slack is needed: the one-hop bound is
        at most the walk and the walk at most the planned arrival (see
        :mod:`repro.schedule.linkplan`), a max over operands that are
        each no larger is no larger, ``slot_start`` grows with its ready
        time, and the sums add the same floats in the same order. The
        legacy reference mode, and the append link policy (which the
        walk's argument does not cover), plan every processor.
        """
        system = self.system
        sched = self.sched
        procs = system.topology.processors
        exec_row = system.exec_cost_row(task)
        if tail:
            tail_cost = [sum(system.exec_cost(m, p) for m in tail)
                         for p in procs]
        else:
            tail_cost = [0.0] * len(procs)

        def plan(proc: Proc):
            da, plans = self.plan_messages(task, proc)
            start = self.earliest_start(task, proc, da)
            return (start + exec_row[proc] + tail_cost[proc], proc, start,
                    plans)

        if reference_mode() or not self.link_insertion:
            best = min(plan(p) for p in procs)
            evaluated = len(procs)
        else:
            graph = system.graph
            slots = sched.slots
            preds = graph.predecessors(task)
            insertion = self.proc_insertion
            lbs = one_hop_arrival_bounds(
                [(slots[k].proc, slots[k].finish, graph.comm_cost(k, task))
                 for k in preds],
                len(procs), system.uniform_hops)
            # slot_start's production branch, read straight off the
            # live timeline: this branch never runs in the reference mode
            timeline = sched.proc_timeline

            def bound(p: Proc) -> float:
                tl = timeline(p)
                slot = (tl.earliest_gap(lbs[p], exec_row[p]) if insertion
                        else max(lbs[p], tl.last_finish()))
                return (slot + exec_row[p]) + tail_cost[p]

            bounds = [bound(p) for p in procs]
            best = plan(min(procs, key=bounds.__getitem__))
            evaluated = 1
            top = best[:2]
            alive = [p for p in procs if p != top[1] and (bounds[p], p) < top]
            if not alive:
                self.walks_skipped += 1
            tl_memo: dict = {}
            for k in preds:
                if not alive:
                    break
                kb = committed_arrival_bounds(
                    sched, (k, task), self.routing.trie(slots[k].proc),
                    tl_memo, alive)
                kept = []
                for p in alive:
                    if kb[p] > lbs[p]:
                        lbs[p] = kb[p]
                        bounds[p] = bound(p)
                    if (bounds[p], p) < best[:2]:
                        kept.append(p)
                alive = kept
            for b, p in sorted((bounds[p], p) for p in alive):
                if (b, p) > best[:2]:
                    break
                candidate = plan(p)
                evaluated += 1
                if candidate[:2] < best[:2]:
                    best = candidate
        self.candidates_evaluated += evaluated
        self.candidates_pruned += len(procs) - evaluated
        _, proc, start, plans = best
        self.commit(task, proc, start, plans)
        return proc

    def place(self, task: TaskId, proc: Proc) -> None:
        """Commit ``task`` on ``proc`` at its earliest start there."""
        da, plans = self.plan_messages(task, proc)
        self.commit(task, proc, self.earliest_start(task, proc, da), plans)

    def queue_free_arrival_bounds(self, task: TaskId) -> List[float]:
        """Per-processor lower bound on ``task``'s data arrival under
        either link policy (indexed by processor), from
        :func:`~repro.schedule.linkplan.chain_arrival_bounds`: each
        message's store-and-forward chain over the table's hop-distance
        row from its producer (:meth:`RoutingTable.hop_row`) under
        uniform hops (``HeterogeneousSystem.uniform_hops``), else the
        latest producer finish."""
        system = self.system
        graph = system.graph
        sched = self.sched
        pred_info = [
            (sched.proc_of(k), sched.slots[k].finish, graph.comm_cost(k, task))
            for k in graph.predecessors(task)
        ]
        hop_row = self.routing.hop_row if system.uniform_hops else None
        return chain_arrival_bounds(pred_info, system.topology.n_procs,
                                    hop_row)

    def place_ready_pairs(
        self, key: Callable[[TaskId, Proc, float], tuple]
    ) -> None:
        """Schedule the whole graph greedily: each step commits the ready
        (task, processor) pair with the smallest ``key(task, proc,
        start)``, where ``start`` is the pair's planned start
        ``max(data arrival, proc_available(proc))`` — processors append,
        as in DLS and ETF.

        ``key`` must be nondecreasing in ``start``, float for float, and
        distinct for distinct pairs (DLS and ETF end theirs with the
        task's graph index and the processor).

        With append links, outside the reference mode, the pairs wait in
        a lazy priority queue (Minoux's accelerated greedy). On an
        append channel every reservation starts at or after the
        channel's last finish, so a commit can only delay another pair's
        planned start, and a key from an earlier step is a lower bound
        on the pair's current key. A pair enters the queue when its task
        becomes ready, keyed by :meth:`queue_free_arrival_bounds` maxed
        with the processor's current finish. Each step pops the smallest
        key; a key from an earlier step is planned exactly and pushed
        back, and the first key of the current step wins. It is no
        larger than any other pair's current key, so the pair, its start
        and its message plans are the exhaustive loop's.

        Under link insertion a pair's start can drop: a commit can push
        one message's tentative hop into a later gap and free an earlier
        gap for another message of the same task. There every step
        rescans the ready pairs, skipping a pair whose bound key already
        loses to the best exact key. The reference mode rescans without
        skipping: it is the oracle.
        """
        graph = self.system.graph
        procs = self.system.topology.processors
        waiting = {t: graph.in_degree(t) for t in graph.tasks()}
        ready = [t for t in graph.tasks() if waiting[t] == 0]
        reference = reference_mode()
        scan = reference or self.link_insertion
        # per ready task, the rescan's arrival bounds (None: no skipping)
        bounds: Dict[TaskId, Optional[List[float]]] = {}
        # (key, step it was planned at or -1 for a bound, task, proc,
        # start, plans); keys are distinct, so ties never reach plans
        heap: list = []
        # proc_available per processor, refreshed on each commit
        tf = [self.proc_available(p) for p in procs]

        def enqueue(task: TaskId) -> None:
            if reference:
                bounds[task] = None
                return
            lbs = self.queue_free_arrival_bounds(task)
            if scan:
                bounds[task] = lbs
                return
            for p in procs:
                heapq.heappush(heap, (key(task, p, max(lbs[p], tf[p])), -1,
                                      task, p, None, None))

        for task in ready:
            enqueue(task)
        evaluated_before = self.candidates_evaluated
        pairs = 0
        step = 0
        while ready:
            pairs += len(ready) * len(procs)
            if scan:
                task, proc, start, plans = self._scan_ready_pairs(
                    key, ready, bounds)
            else:
                task, proc, start, plans = self._pop_ready_pair(
                    key, heap, step, tf)
            self.commit(task, proc, start, plans)
            tf[proc] = self.proc_available(proc)
            step += 1
            ready.remove(task)
            bounds.pop(task, None)
            for s in graph.successors(task):
                waiting[s] -= 1
                if waiting[s] == 0:
                    ready.append(s)
                    enqueue(s)
        self.candidates_pruned += pairs - (
            self.candidates_evaluated - evaluated_before)

    def _plan_start(self, task: TaskId, proc: Proc, tf: float):
        """Exact plans and append start of one pair (one evaluation)."""
        da, plans = self.plan_messages(task, proc)
        self.candidates_evaluated += 1
        return max(da, tf), plans

    def _scan_ready_pairs(self, key, ready, bounds):
        """The rescan step of :meth:`place_ready_pairs`: every ready pair
        in (ready order, processor) order, skipping one whose bound key
        is no better than the best exact key so far."""
        procs = self.system.topology.processors
        best = None  # (key, task, proc, start, plans)
        for task in ready:
            lbs = bounds[task]
            for proc in procs:
                tf = self.proc_available(proc)
                if (lbs is not None and best is not None
                        and key(task, proc, max(lbs[proc], tf)) >= best[0]):
                    continue
                start, plans = self._plan_start(task, proc, tf)
                k = key(task, proc, start)
                if best is None or k < best[0]:
                    best = (k, task, proc, start, plans)
        return best[1:]

    def _pop_ready_pair(self, key, heap, step, tf):
        """The queue step of :meth:`place_ready_pairs`: pop until the
        smallest key was planned at this step, re-planning stale ones."""
        while True:
            _, planned, task, proc, start, plans = heapq.heappop(heap)
            if self.sched.is_scheduled(task):
                continue  # another pair of a task committed earlier
            if planned == step:
                return task, proc, start, plans
            start, plans = self._plan_start(task, proc, tf[proc])
            heapq.heappush(heap, (key(task, proc, start), step, task, proc,
                                  start, plans))

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
            _obs.inc("list.walks_skipped", self.walks_skipped)
        return self.sched
