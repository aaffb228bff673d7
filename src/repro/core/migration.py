"""Migration mechanics: candidate evaluation and committed moves (§2.3).

``evaluate_migration`` answers, without mutating anything: *if task* ``Ti``
*left the pivot for neighbor* ``Py``, *when would its messages arrive
(DRT), when could it start (ST), and when would it finish (FT)?* Message
finish times are computed against the current link timelines (the paper's
``ComputeMFT``), task start against the neighbor's processor timeline —
both with earliest-gap insertion (or pure append, for the ablation).

``commit_migration`` applies a chosen plan: the task slot moves, incoming
and outgoing routes are rebuilt, and a settle pass re-derives all times so
downstream occupants "bubble up" into freed space.

Route modes
-----------
* ``"incremental"`` — the ICPP text, literally: an incoming route is the
  historical path extended by the hop ``pivot -> neighbor`` (truncated
  when it would double back); outgoing routes get the reverse hop
  prepended. Routes *wander*: after several migrations a message may
  traverse many more links than the processor distance requires, paying
  full store-and-forward cost per hop.
* ``"shortest"`` (default) — whenever a task moves, its messages are
  re-routed over an on-demand BFS shortest path between the producer's
  and consumer's current processors (no precomputed routing table, per the
  paper's design goal). This realizes the paper's claim that migration
  yields "optimized routes"; with the literal incremental mode we measure
  per-route hop inflation up to ~1.2x and 2.7-3.8x longer schedules that
  invert the paper's BSA-vs-DLS results (see EXPERIMENTS.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SchedulingError
from repro.graph.model import TaskId
from repro.network.routing import shortest_path
from repro.network.topology import Proc, link_id
from repro.schedule.events import Edge
from repro.schedule.linkplan import LinkPlanner, slot_start
from repro.schedule.schedule import Schedule
from repro.schedule.settle import settle, settle_incremental
from repro.util.intervals import reference_mode
from repro.util.tolerance import DRT_EPS

#: incoming-route plan kinds
_LOCAL, _TRUNCATE, _EXTEND, _REBUILD = "local", "truncate", "extend", "rebuild"

ROUTE_MODES = ("shortest", "incremental")


@dataclass
class InRoutePlan:
    """What happens to one incoming message if the migration commits."""

    kind: str                            # local | truncate | extend | rebuild
    path: Optional[List[Proc]]           # full new processor path (None = local)
    hop_starts: Optional[List[float]]    # starts for *new* hops (see kind)
    arrival: float                       # availability at the new processor


@dataclass
class MigrationPlan:
    """A fully evaluated candidate migration (not yet applied)."""

    task: TaskId
    src: Proc
    dst: Proc
    drt: float
    vip: Optional[TaskId]
    st: float
    ft: float
    route_mode: str
    in_plans: Dict[Edge, InRoutePlan] = field(default_factory=dict)


def current_drt_vip(sched: Schedule, task: TaskId) -> Tuple[float, Optional[TaskId]]:
    """Data-ready time and VIP of ``task`` in its *current* placement.

    The VIP (very important predecessor) is the predecessor whose message
    arrives last; ties (arrivals within ``DRT_EPS`` of the maximum)
    resolve to the earliest predecessor in graph order — which is *not*
    necessarily the first one ``graph.predecessors`` yields, since edge
    insertion order can differ from task insertion order (locked by
    ``tests/test_migration.py``'s diamond-graph tie test).
    """
    graph = sched.system.graph
    drt, vip = 0.0, None
    for k in graph.predecessors(task):
        arr = sched.arrival_time((k, task))
        if arr > drt + DRT_EPS:
            drt, vip = arr, k
        elif (
            vip is not None
            and arr >= drt - DRT_EPS
            and graph.task_index(k) < graph.task_index(vip)
        ):
            vip = k
    return drt, vip


def evaluate_migration(
    sched: Schedule,
    task: TaskId,
    dst: Proc,
    insertion: bool = True,
    truncate: bool = True,
    route_mode: str = "shortest",
) -> MigrationPlan:
    """Evaluate moving ``task`` from its current processor to ``dst``."""
    if route_mode not in ROUTE_MODES:
        raise ConfigurationError(f"route_mode must be one of {ROUTE_MODES}")
    system = sched.system
    graph = system.graph
    src = sched.proc_of(task)
    if src == dst:
        raise SchedulingError(f"task {task!r} is already on P{dst}")

    planner = LinkPlanner(sched, insertion)
    in_plans: Dict[Edge, InRoutePlan] = {}
    drt, vip = 0.0, None

    for k in graph.predecessors(task):
        edge = (k, task)
        producer_proc = sched.proc_of(k)
        if route_mode == "shortest":
            plan = _plan_in_shortest(sched, planner, edge, producer_proc, dst)
        else:
            plan = _plan_in_incremental(
                sched, planner, edge, producer_proc, src, dst, truncate
            )
        in_plans[edge] = plan
        if plan.arrival > drt + DRT_EPS:
            drt, vip = plan.arrival, k
        elif (
            vip is not None
            and plan.arrival >= drt - DRT_EPS
            and graph.task_index(k) < graph.task_index(vip)
        ):
            # same graph-order tie-break as current_drt_vip, so
            # MigrationPlan.vip agrees with the documented semantics
            vip = k

    cost = system.exec_cost(task, dst)
    st = slot_start(sched, dst, drt, cost, insertion)
    return MigrationPlan(
        task=task, src=src, dst=dst, drt=drt, vip=vip,
        st=st, ft=st + cost, route_mode=route_mode, in_plans=in_plans,
    )


def _plan_in_shortest(
    sched: Schedule,
    planner: LinkPlanner,
    edge: Edge,
    producer_proc: Proc,
    dst: Proc,
) -> InRoutePlan:
    """Fresh BFS route from the producer's processor to ``dst``."""
    producer_finish = sched.slots[edge[0]].finish
    if producer_proc == dst:
        return InRoutePlan(_LOCAL, None, None, producer_finish)
    path = shortest_path(sched.system.topology, producer_proc, dst)
    starts, arrival = planner.walk_path(edge, path, producer_finish)
    return InRoutePlan(_REBUILD, path, starts, arrival)


def _plan_in_incremental(
    sched: Schedule,
    planner: LinkPlanner,
    edge: Edge,
    producer_proc: Proc,
    src: Proc,
    dst: Proc,
    truncate: bool,
) -> InRoutePlan:
    """The ICPP text's route extension/truncation."""
    from repro.core.routes import new_incoming_path

    route = sched.routes.get(edge)
    old_path = route.procs if (route and not route.is_local) else None
    new_path = new_incoming_path(old_path, producer_proc, src, dst, truncate)

    if new_path is None:
        return InRoutePlan(_LOCAL, None, None, sched.slots[edge[0]].finish)
    if old_path is not None and len(new_path) < len(old_path):
        # truncated: the message already reaches dst partway along the route
        arrival = route.hops[len(new_path) - 2].finish
        return InRoutePlan(_TRUNCATE, new_path, None, arrival)
    # extended: one new hop src -> dst appended to the route
    ready = route.arrival if old_path is not None else sched.slots[edge[0]].finish
    duration = sched.system.hop_cost(edge, link_id(src, dst))
    start = planner.reserve(sched.system.topology.channel(src, dst), ready, duration)
    return InRoutePlan(_EXTEND, new_path, [start], start + duration)


def commit_migration(
    sched: Schedule,
    plan: MigrationPlan,
    insertion: bool = True,
    truncate: bool = True,
    hold: AbstractSet[TaskId] = frozenset(),
) -> None:
    """Apply ``plan`` to the schedule and settle times.

    Outside the reference mode the final settle recomputes only the
    affected cone, seeded by the transaction's mutation log (an
    anonymous transaction is opened if the caller didn't provide one);
    the schedule must therefore be settled on entry, which every BSA
    state is, apart from the tasks in ``hold``: those the settle leaves
    alone (see :func:`~repro.schedule.settle.settle_incremental`). The
    reference mode runs the full settle pass.
    """
    system = sched.system
    graph = system.graph
    task, src, dst = plan.task, plan.src, plan.dst
    if sched.proc_of(task) != src:
        raise SchedulingError(
            f"stale migration plan: {task!r} on P{sched.proc_of(task)}, plan expects P{src}"
        )

    own_txn = not reference_mode() and sched.txn is None
    if own_txn:
        sched.begin_txn()
    try:
        # incoming messages ----------------------------------------------
        sched.remove_task(task)
        for edge, rp in plan.in_plans.items():
            route = sched.routes.get(edge)
            if rp.kind == _LOCAL:
                sched.mark_local(edge)
            elif rp.kind == _REBUILD:
                sched.set_route(edge, rp.path, hop_starts=rp.hop_starts)
            elif rp.kind == _TRUNCATE:
                starts = [h.start for h in route.hops[: len(rp.path) - 1]]
                sched.set_route(edge, rp.path, hop_starts=starts)
            else:  # extend
                starts = [h.start for h in route.hops] if (route and not route.is_local) else []
                sched.set_route(edge, rp.path, hop_starts=starts + rp.hop_starts)

        # outgoing messages ----------------------------------------------
        out_planner = LinkPlanner(sched, insertion)
        for j in graph.successors(task):
            if j not in sched.slots:
                continue  # partial schedules (not produced by BSA) tolerate this
            edge = (task, j)
            consumer_proc = sched.proc_of(j)
            if plan.route_mode == "shortest":
                _commit_out_shortest(sched, out_planner, edge, dst, consumer_proc, plan.ft)
            else:
                _commit_out_incremental(
                    sched, out_planner, edge, src, dst, consumer_proc, plan.ft, truncate
                )

        sched.place_task(task, dst, start=plan.st)
        txn = sched.txn
        if txn is not None and not reference_mode():
            settle_incremental(sched, txn.seed_tasks, txn.seed_hops, hold)
        else:
            settle(sched)
    finally:
        # an anonymous transaction must not leak; on error the schedule
        # stays partially mutated exactly as in the reference mode — the
        # transactional caller (BSA) owns rollback, not us
        if own_txn and sched.txn is not None:
            sched.commit_txn()


def _commit_out_shortest(
    sched: Schedule,
    planner: LinkPlanner,
    edge: Edge,
    dst: Proc,
    consumer_proc: Proc,
    producer_finish: float,
) -> None:
    if consumer_proc == dst:
        sched.mark_local(edge)
        return
    path = shortest_path(sched.system.topology, dst, consumer_proc)
    starts, _ = planner.walk_path(edge, path, producer_finish)
    sched.set_route(edge, path, hop_starts=starts)


def _commit_out_incremental(
    sched: Schedule,
    planner: LinkPlanner,
    edge: Edge,
    src: Proc,
    dst: Proc,
    consumer_proc: Proc,
    producer_finish: float,
    truncate: bool,
) -> None:
    from repro.core.routes import new_outgoing_path

    route = sched.routes.get(edge)
    old_path = route.procs if (route and not route.is_local) else None
    new_path = new_outgoing_path(old_path, consumer_proc, src, dst, truncate)
    if new_path is None:
        sched.mark_local(edge)
    elif old_path is not None and len(new_path) < len(old_path):
        drop = len(old_path) - len(new_path)
        starts = [h.start for h in route.hops[drop:]]
        sched.set_route(edge, new_path, hop_starts=starts)
    else:
        # the prepended hop travels dst -> src (new proc toward old)
        duration = sched.system.hop_cost(edge, link_id(dst, src))
        start = planner.reserve(
            sched.system.topology.channel(dst, src), producer_finish, duration
        )
        old_starts = [h.start for h in route.hops] if old_path is not None else []
        sched.set_route(edge, new_path, hop_starts=[start] + old_starts)
