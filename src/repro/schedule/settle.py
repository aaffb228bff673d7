"""Order-based time settlement (the "bubble" evaluator).

Given a schedule whose *orders* (task order per processor, hop order per
link, hop chain per message) are fixed, compute the earliest-consistent
start/finish time of every task and hop. This is a longest-path
computation over the combined constraint DAG:

* task precedence: a task starts no earlier than each incoming message's
  arrival (last hop finish, or the producer's finish for local messages);
* processor exclusivity *in order*: a task starts no earlier than the
  finish of its predecessor in ``proc_order``;
* hop chaining (store-and-forward): hop ``k+1`` starts no earlier than hop
  ``k`` finishes; the first hop waits for the producer task;
* link exclusivity *in order*: a hop starts no earlier than the finish of
  its predecessor in ``link_order``.

When BSA removes a task from a processor, re-settling makes every
downstream occupant "bubble up" into the freed time — exactly the paper's
metaphor — while provably keeping the schedule feasible.

Raises :class:`repro.errors.CycleError` if the orders are contradictory
(e.g. a task placed before its own ancestor's message lands); BSA treats
that as a rejected migration and rolls back.

A full or incremental settle never reorders anything, and its orders
need no re-sort after it: every occupant is chained to the one before
it, so consecutive
occupants ``a, b`` end with ``b.start >= a.finish = a.start + dur(a)``.
No duration is negative (task costs are positive, edge costs and link
factors non-negative and finite, bandwidths positive), so ``(start,
finish)`` never decreases along an order, zero-duration ties included:
each order is already what a stable sort by settled times would give.
The tasks an incremental settle *holds* (BSA's unexamined first-phase
tasks, see :func:`settle_incremental`) keep their earlier times, so this
holds for the entries outside the hold; a held task rejoins it when it
leaves the hold and is settled.

Implementation note: this runs after every committed migration, so it is
the hottest loop in BSA. Nodes are mapped to dense integer ids and the
Kahn pass runs over plain lists.

Two engines and an oracle:

* :func:`_settle_legacy` — the original closure-per-dependency code
  (the reference oracle, hot-path mode ``legacy``);
* :func:`kahn_settle` — the one production Kahn pass, with flattened
  loops. Without a frontier it is the full pass (what :func:`settle`
  runs in the production engine, and what the incremental engine runs
  on graphs with a zero-cost edge); with one it settles only the nodes
  at or after it, treating earlier ones as constants (the dynamic
  repair's :func:`repro.dynamic.repair.tail_settle`);
* :func:`settle_incremental` — the change-driven engine: instead of
  rebuilding the whole constraint DAG it starts from the *seed set* a
  :class:`~repro.schedule.schedule.ScheduleTxn` collected during the
  mutations (every node whose constraint predecessors changed). One
  exact check on the seeds decides, before anything is written,
  whether the new orders hold a cycle; if they do not, recomputed times
  propagate forward only while they actually change, never into the
  tasks it is told to hold. A rejected settle writes nothing.
  Called by ``commit_migration`` and, once per examined task in BSA's
  first phase, by ``BSAScheduler._run_phase``; :func:`settle` itself
  always runs a full pass (it has no seed information).
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Dict, List, Optional

from repro.errors import CycleError
from repro.obs import counters as _obs
from repro.schedule.schedule import Schedule
from repro.util.intervals import Timeline, reference_mode

_NEG_INF = float("-inf")


def settle(schedule: Schedule) -> Schedule:
    """Recompute all start/finish times in place; returns the schedule."""
    if reference_mode():
        return _settle_legacy(schedule)
    return kahn_settle(schedule)


def kahn_settle(schedule: Schedule, frontier: Optional[float] = None) -> Schedule:
    """One Kahn longest-path pass over the constraint DAG, in place.

    Without a ``frontier`` this is the full pass: every node is
    numbered and starts are floored at 0. With one, only the tail
    (``start >= frontier``) is numbered;
    :func:`repro.dynamic.repair.tail_settle` states that contract.
    Either way the orders are left as they are (the module docstring
    says why a full pass leaves them sorted), so the position maps
    survive; the cached timelines are dropped, because times change.

    Raises :class:`~repro.errors.CycleError` before writing any time,
    and records each time it changes in the open transaction first.
    Times are identical to :func:`_settle_legacy`: Kahn's algorithm
    computes each start as a max over predecessors, whatever the
    traversal order.
    """
    if frontier is None:
        if _obs.ACTIVE:
            _obs.inc("settle.full_passes")
        floor, cut = 0.0, _NEG_INF
    else:
        floor = cut = frontier
    system = schedule.system
    exec_cost = system.exec_cost
    comm_cost = system.comm_cost
    slots = schedule.slots
    routes = schedule.routes

    objs: List[object] = []
    duration: List[float] = []
    append_obj = objs.append
    append_dur = duration.append

    task_ids: Dict[object, int] = {}
    i = 0
    for task, slot in slots.items():
        if slot.start < cut:
            continue
        task_ids[task] = i
        append_obj(slot)
        c = slot.cost
        append_dur(c if c is not None else exec_cost(task, slot.proc))
        i += 1
    hop_ids: Dict[int, int] = {}
    for route in routes.values():
        for hop in route.hops:
            if hop.start < cut:
                continue
            hop_ids[id(hop)] = i
            append_obj(hop)
            c = hop.cost
            append_dur(c if c is not None else comm_cost(hop.edge, hop.link))
            i += 1

    n = i
    succ: List[List[int]] = [[] for _ in range(n)]
    indeg: List[int] = [0] * n
    start = [floor] * n
    task_get = task_ids.get
    hop_get = hop_ids.get

    # Every chain links each numbered node to its predecessor: an edge
    # when the predecessor is numbered too, else the predecessor's
    # finish as a floor. A full pass numbers every node, so it only
    # takes edges.
    for order in schedule.proc_order.values():
        if len(order) > 1:
            a = order[0]
            ia = task_get(a)
            for b in order[1:]:
                ib = task_get(b)
                if ib is not None:
                    if ia is not None:
                        succ[ia].append(ib)
                        indeg[ib] += 1
                    elif slots[a].finish > start[ib]:
                        start[ib] = slots[a].finish
                a, ia = b, ib

    for hops in schedule.link_order.values():
        if len(hops) > 1:
            a = hops[0]
            ia = hop_get(id(a))
            for b in hops[1:]:
                ib = hop_get(id(b))
                if ib is not None:
                    if ia is not None:
                        succ[ia].append(ib)
                        indeg[ib] += 1
                    elif a.finish > start[ib]:
                        start[ib] = a.finish
                a, ia = b, ib

    slots_get = slots.get
    routes_get = routes.get
    # direct adjacency iteration — graph.edges() would build a fresh
    # tuple list on a path hit hundreds of times per schedule
    for u, vs in system.graph._succ.items():
        u_slot = slots_get(u)
        if u_slot is None:
            continue  # partial schedule: constraint not yet active
        iu = task_get(u)
        for v in vs:
            iv = task_get(v)
            if iv is None and v not in slots:
                continue
            a, ia = u_slot, iu
            route = routes_get((u, v))
            if route is not None:
                for b in route.hops:
                    ib = hop_get(id(b))
                    if ib is not None:
                        if ia is not None:
                            succ[ia].append(ib)
                            indeg[ib] += 1
                        elif a.finish > start[ib]:
                            start[ib] = a.finish
                    a, ia = b, ib
            if iv is None:
                continue  # edge into a frozen node: dropped
            if ia is not None:
                succ[ia].append(iv)
                indeg[iv] += 1
            elif a.finish > start[iv]:
                start[iv] = a.finish

    ready = [k for k in range(n) if indeg[k] == 0]
    head = 0
    while head < len(ready):
        k = ready[head]
        head += 1
        finish = start[k] + duration[k]
        for j in succ[k]:
            if finish > start[j]:
                start[j] = finish
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if head != n:
        blocked = [k for k in range(n) if indeg[k] > 0]
        cycle = _extract_cycle(succ, blocked, objs, schedule)
        what = "schedule" if frontier is None else "tail"
        raise CycleError(
            f"contradictory {what} orders ({len(blocked)} nodes blocked); "
            f"cycle: {cycle}",
            blocked,
        )

    txn = schedule._txn
    times_append = txn.times.append if txn is not None else None
    for k in range(n):
        obj = objs[k]
        s = start[k]
        f = s + duration[k]
        if times_append is not None and (obj.start != s or obj.finish != f):
            times_append((obj, obj.start, obj.finish))
        obj.start = s
        obj.finish = f

    schedule.drop_timelines()
    return schedule


def settle_incremental(schedule: Schedule, seed_tasks, seed_hops,
                       hold: AbstractSet = frozenset()) -> Schedule:
    """Change-driven settle: recompute only the affected cone.

    Contract: ``schedule`` was fully settled before the current batch of
    structural mutations, and ``seed_tasks``/``seed_hops`` (typically a
    :class:`~repro.schedule.schedule.ScheduleTxn`'s seed sets) contain
    every node whose constraint predecessors changed — moved/new tasks,
    the order successors of removed or inserted occupants, new hops, and
    the consumers of rerouted messages. Every other node's predecessors
    (and their times) are unchanged, so its settled times are still the
    longest-path fixpoint and need no work.

    Before anything is written, one exact check decides whether the
    orders hold a cycle. Call a constraint edge *backward* when its head
    starts before its tail finishes. Only a seed can head one: every
    other node starts no earlier than each of its unchanged
    predecessors finishes. With positive durations every other edge's
    head starts strictly after its tail starts, so the latest-starting
    node of a cycle is the tail of a backward edge into a seed, and no
    node of the cycle starts later than that tail finishes. The seed
    pass reads each seed's predecessor finishes (the reads its first pop
    makes) and, if any seed heads a backward edge, one DFS from those
    seeds over the nodes starting no later than the latest such finish
    finds a cycle exactly when one exists. It never enters the hold,
    which no edge leaves. This is the affected region of Pearce and
    Kelly's dynamic topological sort (ACM JEA 2006), with the settled
    times as the topological order. On a cycle the settle raises
    :class:`~repro.errors.CycleError` naming it, before any time, cached
    timeline or counter changes (a position map the seed pass builds is
    exact, since no order changes). Zero-cost message edges make
    zero-duration hops, which the argument cannot order, so graphs
    containing one always take the full pass.

    Otherwise seeds are recomputed from their live predecessors; a node
    whose start moves (in either direction — "bubbling up" is a
    *decrease*) has its successors re-enqueued, so recomputation
    propagates exactly as far as times actually change, and the worklist
    runs to its fixpoint. No time is logged in an open transaction: a
    settle that writes always completes, and no caller rolls back after
    one.

    The result is the same longest-path fixpoint a full pass computes,
    so every order is left sorted by ``(start, finish)`` (see the module
    docstring) and nothing is re-sorted: the position maps survive, and
    each cached timeline has its moved entries rewritten in place.

    The fixpoint is unique and max() involves no arithmetic, so the
    resulting times are bit-identical to :func:`kahn_settle` — enforced
    across the whole randomized invariant sweep by
    ``tests/test_hotpath_equivalence.py`` and ``benchmarks/bench_hotpath.py``.

    ``hold`` names tasks this settle neither seeds nor pushes, so their
    times stay as they are. The caller must guarantee that no node
    outside ``hold`` has a constraint predecessor inside it; then every
    other node gets the full pass's times bit for bit, as above. Only
    task slots are held: a message into a held task keeps its hops
    settled. BSA's first phase holds the pivot's unexamined tasks
    (:meth:`repro.core.bsa.BSAScheduler._run_phase` states why that is
    exact). Held tasks are exempt from the sortedness above until they
    leave the hold and are settled.
    """
    system = schedule.system
    graph = system.graph
    if graph.has_zero_cost_edge():
        return kahn_settle(schedule)

    slots = schedule.slots
    routes = schedule.routes
    slots_get = slots.get
    routes_get = routes.get
    proc_order = schedule.proc_order
    link_order = schedule.link_order
    exec_cost = system.exec_cost
    comm_cost = system.comm_cost
    pred_edges = graph.pred_edges
    succ_of = graph._succ

    # Occupant-position indexes, cached on the schedule across settles
    # (invalidated only when an order structurally changes — see
    # Schedule.proc_positions). Hops additionally carry a ``_rpos``
    # backref (index within their route, stamped at creation) so the
    # route chain needs no index. A local memo avoids re-stamping the
    # cache check per pop.
    proc_pos: Dict[object, Dict[object, int]] = {}
    link_pos: Dict[object, Dict[int, int]] = {}
    pp_get = proc_pos.get
    lp_get = link_pos.get
    sched_ppos = schedule.proc_positions
    sched_lpos = schedule.link_positions
    # Live timelines: each write-back is rewritten into the resource's
    # cached Timeline (if it has one) at the order position looked up
    # per pop; ``stale`` keeps the rewritten index span per timeline so
    # its running maximum is refreshed once, after the loop.
    proc_tl_get = schedule._proc_tl.get
    link_tl_get = schedule._link_tl.get
    stale: Dict[Timeline, List[int]] = {}
    stale_get = stale.get
    patches = 0

    # -- seeds and the cycle check ----------------------------------------
    heap: List[tuple] = []
    pending: set = set()
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0
    # the seeds that head a backward edge, and the latest finish of a
    # backward edge's tail
    heads: List[tuple] = []
    reach = _NEG_INF

    for t in seed_tasks:
        slot = slots_get(t)
        if slot is None or t in hold:
            continue
        oid = id(slot)
        if oid in pending:
            continue
        pending.add(oid)
        seq += 1
        s = slot.start
        heappush(heap, (s, seq, False, slot))
        p = slot.proc
        m = pp_get(p)
        if m is None:
            m = proc_pos[p] = sched_ppos(p)
        i = m[t]
        f = slots[proc_order[p][i - 1]].finish if i > 0 else 0.0
        for u, ue in pred_edges(t):
            us = slots_get(u)
            if us is None:
                continue  # partial schedule: constraint not yet active
            r = routes_get(ue)
            a = r.hops[-1].finish if (r is not None and r.hops) else us.finish
            if a > f:
                f = a
        if f > s:
            heads.append((slot, False))
            if f > reach:
                reach = f
    for hop in seed_hops:
        r = routes_get(hop.edge)
        if r is None or not any(h is hop for h in r.hops):
            continue  # a later mutation of the batch removed it
        oid = id(hop)
        if oid in pending:
            continue
        pending.add(oid)
        seq += 1
        s = hop.start
        heappush(heap, (s, seq, True, hop))
        ch = hop._chan
        m = lp_get(ch)
        if m is None:
            m = link_pos[ch] = sched_lpos(ch)
        i = m[oid]
        f = link_order[ch][i - 1].finish if i > 0 else 0.0
        u, v = hop.edge
        if u in slots and v in slots:
            k = hop._rpos
            a = slots[u].finish if k == 0 else r.hops[k - 1].finish
            if a > f:
                f = a
        if f > s:
            heads.append((hop, True))
            if f > reach:
                reach = f
    if heads:
        cycle = _order_cycle(schedule, heads, reach, hold)
        if cycle:
            raise CycleError(
                "contradictory schedule orders (incremental settle); "
                f"cycle: {_cycle_text([o for o, _ in cycle])}",
                [o.edge if is_hop else o.task for o, is_hop in cycle[:-1]],
            )

    # -- worklist ---------------------------------------------------------
    pops = 0
    while heap:
        pops += 1
        _, _, is_hop, obj = heappop(heap)
        pending.discard(id(obj))

        # recompute obj.start as the max over its *live* predecessors
        new_start = 0.0
        if is_hop:
            ch = obj._chan
            order = link_order[ch]
            m = lp_get(ch)
            if m is None:
                m = link_pos[ch] = sched_lpos(ch)
            i = m[id(obj)]
            if i > 0:
                f = order[i - 1].finish
                if f > new_start:
                    new_start = f
            u, v = obj.edge
            chained = u in slots and v in slots
            if chained:
                k = obj._rpos
                f = slots[u].finish if k == 0 else routes[obj.edge].hops[k - 1].finish
                if f > new_start:
                    new_start = f
        else:
            t, p = obj.task, obj.proc
            order = proc_order[p]
            m = pp_get(p)
            if m is None:
                m = proc_pos[p] = sched_ppos(p)
            i = m[t]
            if i > 0:
                f = slots[order[i - 1]].finish
                if f > new_start:
                    new_start = f
            for u, ue in pred_edges(t):
                us = slots_get(u)
                if us is None:
                    continue  # partial schedule: constraint not yet active
                r = routes_get(ue)
                f = r.hops[-1].finish if (r is not None and r.hops) else us.finish
                if f > new_start:
                    new_start = f

        if new_start == obj.start:
            continue  # times converged here; successors are unaffected

        duration = obj.cost
        if duration is None:
            duration = (
                comm_cost(obj.edge, obj.link) if is_hop
                else exec_cost(obj.task, obj.proc)
            )
        old_finish = obj.finish
        obj.start = new_start
        new_finish = new_start + duration
        obj.finish = new_finish
        tl = link_tl_get(ch) if is_hop else proc_tl_get(p)
        if tl is not None:
            tl.rewrite(i, new_start, new_finish)
            patches += 1
            span = stale_get(tl)
            if span is None:
                stale[tl] = [i, i]
            elif i < span[0]:
                span[0] = i
            elif i > span[1]:
                span[1] = i

        # Propagate to constraint successors — but only where this
        # node's finish can actually move them. A successor's start is
        # the max over its predecessor finishes, so a *grown* finish
        # matters only when it exceeds the successor's current start,
        # and a *shrunk* one only when it was the binding constraint
        # (successor start == old finish, an exact float copy). A
        # dominated successor skipped here is re-examined if its binding
        # predecessor ever changes — that predecessor's own write
        # triggers the push, and the recompute reads all predecessors.
        grew = new_finish > old_finish
        if is_hop:
            if i + 1 < len(order):
                nxt = order[i + 1]
                s = nxt.start
                if (new_finish > s) if grew else (s == old_finish):
                    oid = id(nxt)
                    if oid not in pending:
                        pending.add(oid)
                        seq += 1
                        heappush(heap, (s, seq, True, nxt))
            if chained:
                hops = routes[obj.edge].hops
                k = obj._rpos
                more = k + 1 < len(hops)
                if more or v not in hold:
                    nxt = hops[k + 1] if more else slots[v]
                    s = nxt.start
                    if (new_finish > s) if grew else (s == old_finish):
                        oid = id(nxt)
                        if oid not in pending:
                            pending.add(oid)
                            seq += 1
                            heappush(heap, (s, seq, more, nxt))
        else:
            if i + 1 < len(order) and order[i + 1] not in hold:
                nxt = slots[order[i + 1]]
                s = nxt.start
                if (new_finish > s) if grew else (s == old_finish):
                    oid = id(nxt)
                    if oid not in pending:
                        pending.add(oid)
                        seq += 1
                        heappush(heap, (s, seq, False, nxt))
            for v in succ_of[t]:
                vs = slots_get(v)
                if vs is None:
                    continue
                r = routes_get((t, v))
                if r is not None and r.hops:
                    nxt, nxt_hop = r.hops[0], True
                elif v in hold:
                    continue
                else:
                    nxt, nxt_hop = vs, False
                s = nxt.start
                if (new_finish > s) if grew else (s == old_finish):
                    oid = id(nxt)
                    if oid not in pending:
                        pending.add(oid)
                        seq += 1
                        heappush(heap, (s, seq, nxt_hop, nxt))

    for tl, (lo, hi) in stale.items():
        tl.refresh_maxf(lo, hi)
    if _obs.ACTIVE:
        _obs.inc("settle.incremental_runs")
        _obs.inc("settle.cone_pops", pops)
        _obs.inc("timeline.patches", patches)
    return schedule


def _order_cycle(schedule: Schedule, heads, reach: float,
                 hold: AbstractSet) -> list:
    """One constraint cycle reachable from ``heads``, or ``[]``.

    A DFS from the seeds that head a backward edge, over constraint
    successors starting no later than ``reach`` and never into
    ``hold``; :func:`settle_incremental` says why it finds a cycle
    exactly when one exists. It reads times and writes nothing. Nodes
    are ``(node, is_hop)`` pairs, the cycle's first one repeated last.
    """
    slots = schedule.slots
    routes = schedule.routes
    proc_order = schedule.proc_order
    link_order = schedule.link_order
    graph_succ = schedule.system.graph._succ
    lpos = schedule.link_positions
    ppos = schedule.proc_positions

    def successors(pair):
        node, is_hop = pair
        out = []
        if is_hop:
            ch = node._chan
            order = link_order[ch]
            i = lpos(ch)[id(node)] + 1
            if i < len(order):
                out.append((order[i], True))
            u, v = node.edge
            if u in slots and v in slots:
                hops = routes[node.edge].hops
                k = node._rpos + 1
                if k < len(hops):
                    out.append((hops[k], True))
                elif v not in hold:
                    out.append((slots[v], False))
        else:
            t, p = node.task, node.proc
            order = proc_order[p]
            i = ppos(p)[t] + 1
            if i < len(order) and order[i] not in hold:
                out.append((slots[order[i]], False))
            for v in graph_succ[t]:
                vs = slots.get(v)
                if vs is None:
                    continue
                r = routes.get((t, v))
                if r is not None and r.hops:
                    out.append((r.hops[0], True))
                elif v not in hold:
                    out.append((vs, False))
        return [nxt for nxt in out if nxt[0].start <= reach]

    return _first_cycle(heads, successors, lambda pair: id(pair[0]))


def _settle_legacy(schedule: Schedule) -> Schedule:
    graph = schedule.system.graph
    system = schedule.system

    # --- dense node numbering: tasks first, then hops ---------------------
    task_ids: Dict[object, int] = {}
    objs: List[object] = []          # per node: TaskSlot or MessageHop
    duration: List[float] = []

    for task, slot in schedule.slots.items():
        task_ids[task] = len(objs)
        objs.append(slot)
        duration.append(system.exec_cost(task, slot.proc))

    hop_ids: Dict[int, int] = {}     # id(hop) -> node
    for route in schedule.routes.values():
        for hop in route.hops:
            hop_ids[id(hop)] = len(objs)
            objs.append(hop)
            duration.append(system.comm_cost(hop.edge, hop.link))

    n = len(objs)
    succ: List[List[int]] = [[] for _ in range(n)]
    indeg: List[int] = [0] * n

    def dep(a: int, b: int) -> None:
        succ[a].append(b)
        indeg[b] += 1

    # processor order chains ---------------------------------------------
    for order in schedule.proc_order.values():
        for a, b in zip(order, order[1:]):
            dep(task_ids[a], task_ids[b])

    # link order chains -----------------------------------------------------
    for hops in schedule.link_order.values():
        for a, b in zip(hops, hops[1:]):
            dep(hop_ids[id(a)], hop_ids[id(b)])

    # message chains & task precedence -------------------------------------
    slots = schedule.slots
    routes = schedule.routes
    for u, v in graph.edges():
        if u not in slots or v not in slots:
            continue  # partial schedule: constraint not yet active
        route = routes.get((u, v))
        if route is None or not route.hops:
            dep(task_ids[u], task_ids[v])
            continue
        hops = route.hops
        dep(task_ids[u], hop_ids[id(hops[0])])
        for a, b in zip(hops, hops[1:]):
            dep(hop_ids[id(a)], hop_ids[id(b)])
        dep(hop_ids[id(hops[-1])], task_ids[v])

    # Kahn longest-path ------------------------------------------------------
    start = [0.0] * n
    ready = [i for i in range(n) if indeg[i] == 0]
    head = 0
    while head < len(ready):
        i = ready[head]
        head += 1
        finish = start[i] + duration[i]
        for j in succ[i]:
            if finish > start[j]:
                start[j] = finish
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if head != n:
        blocked = [i for i in range(n) if indeg[i] > 0]
        cycle = _extract_cycle(succ, blocked, objs, schedule)
        raise CycleError(
            f"contradictory schedule orders ({len(blocked)} nodes blocked); "
            f"cycle: {cycle}",
            blocked,
        )

    # write back ----------------------------------------------------------
    for i, obj in enumerate(objs):
        obj.start = start[i]
        obj.finish = start[i] + duration[i]

    schedule.resort_orders()
    return schedule


def _extract_cycle(succ, blocked_list, objs, schedule) -> str:
    """Describe one concrete cycle among blocked nodes (debugging aid)."""
    if not blocked_list:
        return "<none>"
    blocked = set(blocked_list)
    cycle = _first_cycle(blocked_list,
                         lambda k: [j for j in succ[k] if j in blocked], int)
    if not cycle:
        return "<no simple cycle found>"
    return _cycle_text([objs[k] for k in cycle])


def _first_cycle(roots, successors, key) -> list:
    """The first cycle a colored DFS from ``roots`` meets, with its first
    node repeated last, or ``[]`` when none is reachable.

    ``successors(node)`` lists a node's successors and ``key(node)``
    identifies it. Classic O(V+E): nodes on the current path are
    *open*, and *done* nodes are fully explored and provably not part of
    a cycle reachable from here (so they are never revisited — keeping
    this linear matters: the exponential naive version once froze whole
    BSA runs).
    """
    OPEN, DONE = 1, 2
    state: Dict[object, int] = {}
    for root in roots:
        if key(root) in state:
            continue
        state[key(root)] = OPEN
        path = [root]
        stack = [iter(successors(root))]
        while stack:
            for nxt in stack[-1]:
                seen = state.get(key(nxt))
                if seen == OPEN:
                    k = key(nxt)
                    i = next(j for j, x in enumerate(path) if key(x) == k)
                    return path[i:] + [nxt]
                if seen is None:
                    state[key(nxt)] = OPEN
                    path.append(nxt)
                    stack.append(iter(successors(nxt)))
                    break
            else:
                stack.pop()
                state[key(path.pop())] = DONE
    return []


def _cycle_text(nodes) -> str:
    """``task 'a'@P0 -> hop ('a', 'b') 0->1 -> ...``, cut after 12 nodes."""
    shown = " -> ".join(
        f"task {o.task!r}@P{o.proc}" if hasattr(o, "task")
        else f"hop {o.edge} {o.src}->{o.dst}" for o in nodes[:12])
    if len(nodes) > 12:
        shown += f" -> ... ({len(nodes)} nodes)"
    return shown
