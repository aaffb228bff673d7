"""Prefix-preserving schedule repair.

The committed-prefix contract: at event time ``T`` every slot and hop
with ``start < T`` has already begun executing and is immutable — its
``(proc, start, finish)`` never changes, byte for byte.  Only the
*tail* (``start >= T``) may move, and nothing in the tail may start
before ``T``.

The engine has three layers:

* :func:`tail_settle` — the frontier form of the one Kahn pass,
  :func:`repro.schedule.settle.kahn_settle`: frozen nodes contribute
  their current ``finish`` as constants and are never recomputed,
  every tail node is floored at the frontier, and each time write-back
  is recorded in the open :class:`~repro.schedule.schedule.ScheduleTxn`
  so a rejected repair rolls back bit-for-bit.  It deliberately does
  **not** resort occupant orders (resorts are not undo-logged); the
  caller resorts only after committing;
* placement primitives (:func:`place_dynamic`, routing through
  :func:`repro.network.routing.alive_path`) — deterministic
  min-finish-time re-placement of one task over the alive processors,
  rebuilding its message routes while preserving every frozen hop
  prefix verbatim;
* :func:`cone_repair` / (in :mod:`repro.dynamic.replan`)
  ``replan_tail`` — the event-level drivers.  Both run inside one
  transaction and validate before committing; any failure (no alive
  route, contradictory orders, validator violations) rolls the
  schedule back to the exact pre-event state.

Failure semantics are drain-style (see :mod:`repro.dynamic.events`):
a dead processor/link stops accepting *new* work, so frozen slots and
hops on dead resources stay in place, and evacuating data *off* a dead
processor is allowed — ``alive_path`` accepts a dead source but
never a dead intermediate or destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import CycleError, RoutingError, SchedulingError
from repro.network.routing import alive_path
from repro.network.topology import link_id
from repro.schedule.linkplan import LinkPlanner, slot_start
from repro.schedule.schedule import Schedule
from repro.schedule.settle import kahn_settle
from repro.schedule.validator import schedule_violations

__all__ = [
    "RepairResult",
    "alive_path",
    "tail_settle",
    "place_dynamic",
    "cone_repair",
]


@dataclass
class RepairResult:
    """Outcome of one repair (or replan) attempt."""

    ok: bool
    strategy: str  # "repair" | "replan"
    moved: List = field(default_factory=list)
    rerouted: List = field(default_factory=list)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# frontier-aware settle


def tail_settle(schedule: Schedule, frontier: float) -> Schedule:
    """Settle every tail node (``start >= frontier``) in place.

    Frozen nodes are constants: they are never enqueued and their
    ``finish`` values enter the longest-path computation as initial
    floors.  Every tail node is additionally floored at ``frontier`` —
    a decision made at the event time cannot take effect earlier.
    Edges *into* frozen nodes are dropped: a settled prefix has no tail
    predecessor of a frozen node (positive durations force every
    constraint predecessor of a ``start < T`` node to start earlier
    still), so the drop can only be exercised within float tolerance,
    where the frozen times are already valid.

    Raises :class:`~repro.errors.CycleError` — *before* any write-back
    — when the tail orders are contradictory.  Write-backs that change
    a time are recorded in the open transaction's undo log, so callers
    can roll back an entire failed repair exactly.  Occupant orders are
    **not** resorted here: resorts are not undo-logged, so the caller
    must resort only after committing the transaction. The write-back
    does not patch the schedule's live timelines; it drops them.
    """
    return kahn_settle(schedule, frontier)


# ---------------------------------------------------------------------------
# placement primitives


def _route_prefix(sched: Schedule, edge, frontier: float):
    """The frozen hop prefix of ``edge``'s route, or ``None``.

    Returns ``(procs, hop_starts, last_finish)`` where ``procs`` is the
    processor path covered by the frozen hops.  These hops have already
    transmitted (or are in flight) and must be recreated verbatim in
    any rebuilt route.
    """
    route = sched.routes.get(edge)
    if route is None or not route.hops:
        return None
    pre = [h for h in route.hops if h.start < frontier]
    if not pre:
        return None
    return (
        [pre[0].src] + [h.dst for h in pre],
        [h.start for h in pre],
        pre[-1].finish,
    )


def _pred_info(sched: Schedule, task, frontier: float):
    """``(pred, edge, frozen-prefix)`` for every scheduled predecessor."""
    graph = sched.system.graph
    info = []
    for u, e in graph.pred_edges(task):
        if u in sched.slots:
            info.append((u, e, _route_prefix(sched, e, frontier)))
    return info


def _choose_placement(sched, task, info, frontier, dead_procs, dead_links):
    """Min-finish-time alive processor for ``task`` (ties to lowest id).

    Pure estimate: per candidate, a fresh insertion-mode
    :class:`LinkPlanner` accumulates tentative reservations across the
    predecessors' continuation paths, mirroring what the commit will
    do, and the earliest feasible slot after the data-ready time wins.
    """
    system = sched.system
    topo = system.topology
    slots = sched.slots
    best = None
    for p in topo.processors:
        if p in dead_procs:
            continue
        cost = system.exec_cost(task, p)
        planner = LinkPlanner(sched, insertion=True)
        drt = frontier
        ok = True
        for u, e, prespec in info:
            if prespec is not None:
                procs, _, last_finish = prespec
                if procs[0] == p:
                    # the message already departed P{p} on frozen hops,
                    # which byte-identity forbids deleting; a consumer
                    # here would pair a non-local route with co-located
                    # tasks, which the validator rejects
                    ok = False
                    break
                r = procs[-1]
                ready = last_finish if last_finish > frontier else frontier
                if r == p:
                    arr = ready
                else:
                    path = alive_path(topo, r, p, dead_procs, dead_links)
                    if path is None:
                        ok = False
                        break
                    _, arr = planner.walk_path(e, path, ready)
            else:
                u_slot = slots[u]
                if u_slot.proc == p:
                    arr = u_slot.finish
                else:
                    path = alive_path(topo, u_slot.proc, p, dead_procs, dead_links)
                    if path is None:
                        ok = False
                        break
                    ready = u_slot.finish if u_slot.finish > frontier else frontier
                    _, arr = planner.walk_path(e, path, ready)
            if arr > drt:
                drt = arr
        if not ok:
            continue
        st = slot_start(sched, p, drt, cost, True)
        ft = st + cost
        if best is None or (ft, p) < (best[0], best[1]):
            best = (ft, p, st)
    if best is None:
        raise SchedulingError(
            f"no alive placement for task {task!r} "
            f"({len(dead_procs)} dead procs, {len(dead_links)} dead links)"
        )
    return best[1], best[2]


def _rebuild_in_route(sched, planner, edge, u, dest, prespec, frontier,
                      dead_procs, dead_links):
    """Re-route ``edge`` to ``dest``, preserving the frozen hop prefix."""
    topo = sched.system.topology
    if prespec is not None:
        procs, hop_starts, last_finish = prespec
        r = procs[-1]
        if r == dest:
            sched.set_route(edge, procs, hop_starts=hop_starts)
            return
        cont = alive_path(topo, r, dest, dead_procs, dead_links)
        if cont is None:
            raise SchedulingError(
                f"no alive continuation for message {edge} from P{r} to P{dest}"
            )
        ready = last_finish if last_finish > frontier else frontier
        cstarts, _ = planner.walk_path(edge, cont, ready)
        sched.set_route(edge, procs + cont[1:], hop_starts=hop_starts + cstarts)
        return
    u_slot = sched.slots[u]
    if u_slot.proc == dest:
        sched.mark_local(edge)
        return
    path = alive_path(topo, u_slot.proc, dest, dead_procs, dead_links)
    if path is None:
        raise SchedulingError(
            f"no alive route for message {edge} from P{u_slot.proc} to P{dest}"
        )
    ready = u_slot.finish if u_slot.finish > frontier else frontier
    starts, _ = planner.walk_path(edge, path, ready)
    sched.set_route(edge, path, hop_starts=starts)


def place_dynamic(sched, task, frontier, dead_procs, dead_links, pending):
    """(Re-)place one task on the alive system, rebuilding its routes.

    ``pending`` is the set of tasks still awaiting re-placement in this
    repair: out-routes to pending consumers are skipped (the consumer's
    own placement rebuilds them).  Planned starts only choose occupant
    order positions; :func:`tail_settle` computes the final times.
    """
    system = sched.system
    graph = system.graph
    topo = system.topology
    info = _pred_info(sched, task, frontier)
    if sched.is_scheduled(task):
        sched.remove_task(task)
    dest, st = _choose_placement(sched, task, info, frontier, dead_procs, dead_links)
    planner = LinkPlanner(sched, insertion=True)
    for u, e, prespec in info:
        _rebuild_in_route(sched, planner, e, u, dest, prespec, frontier,
                          dead_procs, dead_links)
    slot = sched.place_task(task, dest, start=st)
    ready_out = slot.finish if slot.finish > frontier else frontier
    for v in graph._succ[task]:
        if v in pending or v not in sched.slots:
            continue
        e = (task, v)
        vp = sched.proc_of(v)
        if vp == dest:
            sched.mark_local(e)
            continue
        path = alive_path(topo, dest, vp, dead_procs, dead_links)
        if path is None:
            raise SchedulingError(
                f"no alive route for message {e} from P{dest} to P{vp}"
            )
        starts, _ = planner.walk_path(e, path, ready_out)
        sched.set_route(e, path, hop_starts=starts)
    return dest


# ---------------------------------------------------------------------------
# reroutes


def needs_reroute(route, frontier, dead_procs, dead_links):
    """Index of the first tail hop using a dead resource, or ``None``.

    A tail hop *departing* a dead processor is legal (drain/evacuation);
    a tail hop *entering* one, or crossing a dead link, is not.
    """
    for k, h in enumerate(route.hops):
        if h.start < frontier:
            continue
        if link_id(h.src, h.dst) in dead_links or h.dst in dead_procs:
            return k
    return None


def _reroute_edge(sched, edge, k, frontier, dead_procs, dead_links):
    """Re-route ``edge`` around dead resources, keeping ``hops[:k]``."""
    topo = sched.system.topology
    u, v = edge
    hops = sched.routes[edge].hops
    keep = hops[:k]
    r = keep[-1].dst if keep else sched.proc_of(u)
    dst = sched.proc_of(v)
    keep_procs = [keep[0].src] + [h.dst for h in keep] if keep else [r]
    keep_starts = [h.start for h in keep]
    if r == dst:
        sched.set_route(edge, keep_procs, hop_starts=keep_starts)
        return
    cont = alive_path(topo, r, dst, dead_procs, dead_links)
    if cont is None:
        raise SchedulingError(
            f"no alive reroute for message {edge} from P{r} to P{dst}"
        )
    ready = keep[-1].finish if keep else sched.slots[u].finish
    if ready < frontier:
        ready = frontier
    planner = LinkPlanner(sched, insertion=True)
    starts, _ = planner.walk_path(edge, cont, ready)
    sched.set_route(edge, keep_procs + cont[1:], hop_starts=keep_starts + starts)


# ---------------------------------------------------------------------------
# the cone-repair driver


def cone_repair(sched, frontier, moves, reroutes, dead_procs, dead_links,
                strategy: str = "repair") -> RepairResult:
    """Repair only the affected cone: reroute stale messages, re-place
    the listed tasks (in the given order), settle the tail, validate.

    Runs inside one transaction.  Any failure — no alive path,
    contradictory tail orders, or validator violations — rolls the
    schedule back to the exact pre-call state (times, structure, and
    dict insertion order) and returns ``ok=False``.
    """
    txn = sched.begin_txn()
    try:
        for edge, k in reroutes:
            _reroute_edge(sched, edge, k, frontier, dead_procs, dead_links)
        pending = set(moves)
        for t in moves:
            place_dynamic(sched, t, frontier, dead_procs, dead_links, pending)
            pending.discard(t)
        tail_settle(sched, frontier)
    except (SchedulingError, RoutingError, CycleError) as exc:
        txn.rollback()
        return RepairResult(False, strategy,
                            error=f"{type(exc).__name__}: {exc}")
    return _finalize(sched, txn, strategy, list(moves),
                     [edge for edge, _ in reroutes])


def _finalize(sched, txn, strategy, moved, rerouted) -> RepairResult:
    violations = schedule_violations(sched)
    if violations:
        txn.rollback()
        return RepairResult(
            False, strategy,
            error=f"{len(violations)} violations, first: {violations[0]}",
        )
    sched.commit_txn()
    sched.resort_orders()
    return RepairResult(True, strategy, moved, rerouted, None)
