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

Implementation note: this runs after every committed migration, so it is
the hottest loop in BSA. Nodes are mapped to dense integer ids and the
Kahn pass runs over plain lists.

Two engines and an oracle:

* :func:`_settle_legacy` — the original closure-per-dependency code
  (the reference oracle, hot-path mode ``legacy``);
* :func:`kahn_settle` — the one production Kahn pass, with flattened
  loops. Without a frontier it is the full pass (what :func:`settle`
  runs in the production engine, and the exact fallback of the
  incremental engine); with one it settles only the nodes at or after
  it, treating earlier ones as constants (the dynamic repair's
  :func:`repro.dynamic.repair.tail_settle`);
* :func:`settle_incremental` — the change-driven engine: instead of
  rebuilding the whole constraint DAG it starts from the *seed set* a
  :class:`~repro.schedule.schedule.ScheduleTxn` collected during the
  mutations (every node whose constraint predecessors changed) and
  propagates recomputed times forward only while they actually change.
  Called by ``commit_migration``; :func:`settle` itself always runs a
  full pass (it has no seed information).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

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


def settle_incremental(schedule: Schedule, seed_tasks, seed_hops) -> Schedule:
    """Change-driven settle: recompute only the affected cone.

    Contract: ``schedule`` was fully settled before the current batch of
    structural mutations, and ``seed_tasks``/``seed_hops`` (typically a
    :class:`~repro.schedule.schedule.ScheduleTxn`'s seed sets) contain
    every node whose constraint predecessors changed — moved/new tasks,
    the order successors of removed or inserted occupants, new hops, and
    the consumers of rerouted messages. Every other node's predecessors
    (and their times) are unchanged, so its settled times are still the
    longest-path fixpoint and need no work.

    Seeds are recomputed from their live predecessors; a node whose
    start moves (in either direction — "bubbling up" is a *decrease*)
    has its successors re-enqueued, so recomputation propagates exactly
    as far as times actually change. A worklist pop budget bounds the
    pathological cases: contradictory orders make times grow around the
    cycle without converging, so exceeding the budget falls back to the
    full Kahn pass, which detects the cycle exactly (and is bit-identical
    when there is none). Zero-cost message edges could hide a
    contradictory all-zero-duration hop cycle from the growth argument,
    so graphs containing one always take the full pass.

    When a transaction is open, every time write-back is recorded in its
    undo log first, so a rollback after the fallback's ``CycleError``
    restores the pre-commit times exactly.

    The result is the same longest-path fixpoint a full pass computes,
    so every order is left sorted by ``(start, finish)`` (see the module
    docstring) and nothing is re-sorted: the position maps survive, and
    each cached timeline has its moved entries rewritten in place.

    The fixpoint is unique and max() involves no arithmetic, so the
    resulting times are bit-identical to :func:`kahn_settle` — enforced
    across the whole randomized invariant sweep by
    ``tests/test_hotpath_equivalence.py`` and ``benchmarks/bench_hotpath.py``.
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
    txn = schedule._txn
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
    # its running maximum is refreshed once, after the loop. The early
    # exits (full-pass fallback, CycleError) drop the timelines instead.
    proc_tl_get = schedule._proc_tl.get
    link_tl_get = schedule._link_tl.get
    stale: Dict[Timeline, List[int]] = {}
    stale_get = stale.get
    patches = 0

    # -- worklist ---------------------------------------------------------
    heap: List[tuple] = []
    pending: set = set()
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0

    for t in seed_tasks:
        slot = slots_get(t)
        if slot is not None:
            oid = id(slot)
            if oid not in pending:
                pending.add(oid)
                seq += 1
                heappush(heap, (slot.start, seq, False, slot))
    for hop in seed_hops:
        r = routes_get(hop.edge)
        if r is None or not any(h is hop for h in r.hops):
            continue  # a later mutation of the batch removed it
        oid = id(hop)
        if oid not in pending:
            pending.add(oid)
            seq += 1
            heappush(heap, (hop.start, seq, True, hop))

    times_append = txn.times.append if txn is not None else None
    # Contradictory orders (BSA's rare rejected commits) make times grow
    # around the cycle without converging, so the worklist would never
    # empty. Two heuristics bound that — both only trade performance,
    # because the full-pass fallback is exact whether or not a cycle
    # exists: a node whose start *grows* many times in one settle is on
    # a cycle (legitimate transients re-grow a node once or twice), and
    # a global pop budget of about one pass-worth backstops everything
    # else (a legitimate settle touches far fewer nodes than that).
    regrow: Dict[int, int] = {}
    budget = len(slots) + 3 * len(routes) + 64
    pops = 0

    while heap:
        pops += 1
        if pops > budget:
            # almost certainly a contradictory order cycle: let the full
            # pass prove it (or, if not, settle everything exactly)
            if _obs.ACTIVE:
                _obs.inc("settle.budget_fallbacks")
                _obs.inc("settle.cone_pops", pops)
                _obs.inc("timeline.patches", patches)
            schedule.drop_timelines()
            return kahn_settle(schedule)
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

        if times_append is not None:
            times_append((obj, obj.start, obj.finish))
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
        if grew:
            oid = id(obj)
            c = regrow.get(oid, 0) + 1
            if c >= 3:
                # repeated growth: almost surely a contradictory order
                # cycle through this node — confirm with a successor DFS
                # (far cheaper than proving it via the full pass). A
                # cleared node is a legitimate multi-wave transient:
                # mark it checked and keep iterating (the fixpoint does
                # not depend on processing order; a cycle elsewhere is
                # caught by its own members' growth or the pop budget).
                if _reaches_itself(schedule, obj, is_hop):
                    schedule.drop_timelines()
                    desc = (
                        f"hop {obj.edge} {obj.src}->{obj.dst}" if is_hop
                        else f"task {obj.task!r}@P{obj.proc}"
                    )
                    raise CycleError(
                        "contradictory schedule orders (incremental "
                        f"settle): cycle through {desc}",
                        [obj.edge if is_hop else obj.task],
                    )
                c = -(1 << 30)  # proven cycle-free; never re-check
            regrow[oid] = c
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
                nxt = hops[k + 1] if k + 1 < len(hops) else slots[v]
                s = nxt.start
                if (new_finish > s) if grew else (s == old_finish):
                    oid = id(nxt)
                    if oid not in pending:
                        pending.add(oid)
                        seq += 1
                        heappush(heap, (s, seq, k + 1 < len(hops), nxt))
        else:
            if i + 1 < len(order):
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


def _reaches_itself(schedule: Schedule, start, start_is_hop: bool) -> bool:
    """True when ``start`` lies on a constraint cycle (reachable from its
    own successors). Pure order-graph traversal — no float work, no
    global graph build — so confirming a suspected contradictory commit
    costs a DFS over the reachable cone instead of a full settle pass.
    """
    slots = schedule.slots
    routes = schedule.routes
    proc_order = schedule.proc_order
    link_order = schedule.link_order
    graph_succ = schedule.system.graph._succ
    lpos = schedule.link_positions
    ppos = schedule.proc_positions

    def successors(node, is_hop):
        out = []
        if is_hop:
            ch = node._chan
            order = link_order[ch]
            i = lpos(ch)[id(node)]
            if i + 1 < len(order):
                out.append((order[i + 1], True))
            u, v = node.edge
            if u in slots and v in slots:
                hops = routes[node.edge].hops
                k = node._rpos
                if k + 1 < len(hops):
                    out.append((hops[k + 1], True))
                else:
                    out.append((slots[v], False))
        else:
            t, p = node.task, node.proc
            order = proc_order[p]
            i = ppos(p)[t]
            if i + 1 < len(order):
                out.append((slots[order[i + 1]], False))
            for v in graph_succ[t]:
                vs = slots.get(v)
                if vs is None:
                    continue
                r = routes.get((t, v))
                if r is not None and r.hops:
                    out.append((r.hops[0], True))
                else:
                    out.append((vs, False))
        return out

    stack = successors(start, start_is_hop)
    seen = set()
    while stack:
        node, is_hop = stack.pop()
        if node is start:
            return True
        oid = id(node)
        if oid in seen:
            continue
        seen.add(oid)
        stack.extend(successors(node, is_hop))
    return False


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
    """Find one concrete cycle among blocked nodes (debugging aid).

    Classic O(V+E) colored DFS: *gray* nodes are on the current path, and
    *black* nodes are fully explored and provably not part of a cycle
    reachable from here (so they are never revisited — keeping this linear
    matters: the exponential naive version once froze whole BSA runs).
    """
    blocked = set(blocked_list)
    if not blocked:
        return "<none>"

    def describe(i: int) -> str:
        obj = objs[i]
        if hasattr(obj, "task"):
            return f"task {obj.task!r}@P{obj.proc}"
        return f"hop {obj.edge} {obj.src}->{obj.dst}"

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {i: WHITE for i in blocked}
    for root in blocked_list:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = GRAY
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in blocked or color.get(nxt) == BLACK:
                    continue
                if color[nxt] == GRAY:
                    idx = path.index(nxt)
                    cycle = path[idx:] + [nxt]
                    shown = cycle if len(cycle) <= 12 else cycle[:12]
                    suffix = "" if len(cycle) <= 12 else f" -> ... ({len(cycle)} nodes)"
                    return " -> ".join(describe(k) for k in shown) + suffix
                color[nxt] = GRAY
                path.append(nxt)
                stack.append((nxt, iter(succ[nxt])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                path.pop()
                color[node] = BLACK
    return "<no simple cycle found>"
