"""The mutable schedule container shared by all algorithms.

State model
-----------
* ``proc_order[p]``  — ordered list of task ids on processor ``p``.
* ``slots[task]``    — the :class:`TaskSlot` (processor + times).
* ``routes[edge]``   — the :class:`Route` of every non-local message.
* ``link_order[ch]`` — ordered list of :class:`MessageHop` per link
  *channel* (one shared timeline for a half-duplex link, one per
  direction for a full-duplex link; see :meth:`Topology.channel`). With
  the paper's all-half-duplex default the keys are exactly the
  canonical link ids.

Orders are authoritative; times are derived (via :func:`repro.schedule.
settle.settle`) or set directly by monotonic schedulers. Mutators keep the
cross-indices consistent so BSA's migration machinery can move tasks and
re-route messages without bookkeeping leaks.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.graph.model import TaskId
from repro.network.system import HeterogeneousSystem
from repro.obs import counters as _obs
from repro.network.topology import Link, Proc
from repro.schedule.events import Edge, MessageHop, Route, TaskSlot
from repro.util.intervals import Timeline


class Schedule:
    """A (possibly partial) mapping of tasks and messages onto a system.

    The container is algorithm-agnostic: schedulers place tasks
    (:meth:`place_task`), route messages (:meth:`set_route` /
    :meth:`mark_local`), and either assign times directly or let
    :func:`repro.schedule.settle.settle` derive them from the orders.

    Examples
    --------
    Build a two-task schedule by hand on a two-processor chain:

    >>> from repro.graph.model import TaskGraph
    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import chain
    >>> g = TaskGraph("tiny")
    >>> g.add_task("a", 10.0); g.add_task("b", 5.0); g.add_edge("a", "b", 4.0)
    >>> system = HeterogeneousSystem.from_exec_table(
    ...     g, chain(2), {"a": (10.0, 20.0), "b": (5.0, 5.0)})
    >>> sched = Schedule(system, algorithm="by-hand")
    >>> _ = sched.place_task("a", 0, start=0.0)
    >>> _ = sched.set_route(("a", "b"), [0, 1], hop_starts=[10.0])
    >>> _ = sched.place_task("b", 1, start=14.0)
    >>> sched.schedule_length()
    19.0
    >>> from repro.schedule.validator import validate_schedule
    >>> validate_schedule(sched)
    """

    def __init__(self, system: HeterogeneousSystem, algorithm: str = "unknown"):
        self.system = system
        self.algorithm = algorithm
        self.proc_order: Dict[Proc, List[TaskId]] = {
            p: [] for p in system.topology.processors
        }
        self.slots: Dict[TaskId, TaskSlot] = {}
        self.routes: Dict[Edge, Route] = {}
        self.link_order: Dict[Link, List[MessageHop]] = {
            ch: [] for ch in system.topology.channels()
        }
        # Per-resource Timeline indexes (see repro.util.intervals), built
        # on a resource's first query and then kept live: every mutator
        # and the incremental settle's write-back edit the cached
        # timeline in place at the order index they already know, so a
        # cached timeline always equals Timeline.from_items over its
        # order. Only wholesale changes drop entries: a resort, a
        # rollback, a restore and a Kahn pass (full or dynamic tail).
        self._proc_tl: Dict[Proc, Timeline] = {}
        self._link_tl: Dict[Link, Timeline] = {}
        # Occupant-position maps for the incremental settle engine,
        # under the timeline cache's rule: built on a resource's first
        # query, popped wherever that resource's order changes, cleared
        # by wholesale order changes. A settle rewrites times but never
        # reorders, so these maps survive every settle.
        self._proc_pos: Dict[Proc, Dict[TaskId, int]] = {}
        self._link_pos: Dict[Link, Dict[int, int]] = {}
        # Open transaction (undo log + incremental-settle seed set); see
        # begin_txn. None outside a transactional commit.
        self._txn: Optional["ScheduleTxn"] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def proc_of(self, task: TaskId) -> Proc:
        """Processor the task is placed on (raises if unscheduled)."""
        try:
            return self.slots[task].proc
        except KeyError:
            raise SchedulingError(f"task {task!r} is not scheduled") from None

    def is_scheduled(self, task: TaskId) -> bool:
        """True when the task has a slot in this schedule."""
        return task in self.slots

    def schedule_length(self) -> float:
        """Makespan: latest task finish time (0 for an empty schedule)."""
        if not self.slots:
            return 0.0
        return max(s.finish for s in self.slots.values())

    def proc_busy(self, proc: Proc) -> List[TaskSlot]:
        """Start-sorted busy slots on ``proc`` (assumes settled times).

        Returns the live :class:`TaskSlot` objects — do not mutate.
        """
        slots = self.slots
        return [slots[t] for t in self.proc_order[proc]]

    def link_busy(self, link: Link) -> List[MessageHop]:
        """Start-sorted busy hops on the given link *channel* (assumes
        settled times). Returns the *live* hop list — do not mutate.
        """
        return self.link_order[link]

    def proc_timeline(self, proc: Proc) -> Timeline:
        """Live :class:`Timeline` over ``proc``'s busy slots.

        The schedule edits the returned object in place on every later
        mutation of ``proc``, so read it before mutating the schedule,
        not across a mutation. Callers must not mutate it — tentative
        planners layer their reservations over it with
        :meth:`Timeline.earliest_gap_merged` instead.
        """
        tl = self._proc_tl.get(proc)
        if tl is None:
            if _obs.ACTIVE:
                _obs.inc("timeline.rebuilds")
            slots = self.slots
            tl = self._proc_tl[proc] = Timeline.from_items(
                [slots[t] for t in self.proc_order[proc]])
        return tl

    def link_timeline(self, link: Link) -> Timeline:
        """Live :class:`Timeline` over the given link channel's busy hops
        (edited in place by later mutations, like :meth:`proc_timeline`;
        callers must not mutate it)."""
        tl = self._link_tl.get(link)
        if tl is None:
            if _obs.ACTIVE:
                _obs.inc("timeline.rebuilds")
            tl = self._link_tl[link] = Timeline.from_items(self.link_order[link])
        return tl

    def drop_timelines(self) -> None:
        """Forget every cached timeline, for changes too wholesale to
        patch (resorts, restores, rollbacks and every Kahn pass, full or
        dynamic tail); the next query of a resource rebuilds its
        timeline."""
        self._proc_tl.clear()
        self._link_tl.clear()

    def proc_positions(self, proc: Proc) -> Dict[TaskId, int]:
        """Cached ``task -> index`` map over ``proc_order[proc]`` (shared
        — do not mutate). Valid until the order structurally changes."""
        m = self._proc_pos.get(proc)
        if m is None:
            m = self._proc_pos[proc] = {
                t: i for i, t in enumerate(self.proc_order[proc])}
        return m

    def link_positions(self, channel: Link) -> Dict[int, int]:
        """Cached ``id(hop) -> index`` map over the channel's hop order
        (shared — do not mutate). Valid until the order changes."""
        m = self._link_pos.get(channel)
        if m is None:
            m = self._link_pos[channel] = {
                id(h): i for i, h in enumerate(self.link_order[channel])}
        return m

    def arrival_time(self, edge: Edge) -> float:
        """When the message of ``edge`` is available at the consumer's
        processor: producer finish if local, else last-hop finish."""
        route = self.routes.get(edge)
        if route is None or route.is_local:
            return self.slots[edge[0]].finish
        return route.arrival

    # ------------------------------------------------------------------
    # task mutation
    # ------------------------------------------------------------------
    def place_task(
        self,
        task: TaskId,
        proc: Proc,
        start: float,
        position: Optional[int] = None,
    ) -> TaskSlot:
        """Add ``task`` to ``proc`` with the given start time.

        ``position=None`` inserts in start-time order (stable); an explicit
        position pins the slot in the processor's order list.
        """
        if task in self.slots:
            raise SchedulingError(f"task {task!r} already scheduled")
        duration = self.system.exec_cost(task, proc)
        slot = TaskSlot(task, proc, start, start + duration, cost=duration)
        order = self.proc_order[proc]
        tl = self._proc_tl.get(proc)
        if position is None:
            # a cached timeline's starts mirror the order's
            position = (self._bisect_by_start(order, start) if tl is None
                        else bisect_right(tl.starts, start))
        order.insert(position, task)
        self.slots[task] = slot
        if self._txn is not None:
            self._txn.record_place(task, proc, position, order)
        if tl is not None:
            tl.insert(position, slot.start, slot.finish)
            if _obs.ACTIVE:
                _obs.inc("timeline.patches")
        self._proc_pos.pop(proc, None)
        return slot

    def _bisect_by_start(self, order: List[TaskId], start: float) -> int:
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.slots[order[mid]].start <= start:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def remove_task(self, task: TaskId) -> TaskSlot:
        """Remove ``task`` from its processor (routes are left untouched)."""
        slot = self.slots.pop(task, None)
        if slot is None:
            raise SchedulingError(f"task {task!r} is not scheduled")
        order = self.proc_order[slot.proc]
        pos = order.index(task)
        order.pop(pos)
        if self._txn is not None:
            self._txn.record_remove(task, slot, pos, order)
        tl = self._proc_tl.get(slot.proc)
        if tl is not None:
            tl.delete(pos)
            if _obs.ACTIVE:
                _obs.inc("timeline.patches")
        self._proc_pos.pop(slot.proc, None)
        return slot

    # ------------------------------------------------------------------
    # route mutation
    # ------------------------------------------------------------------
    def set_route(
        self,
        edge: Edge,
        proc_path: List[Proc],
        hop_starts: Optional[List[float]] = None,
    ) -> Route:
        """Install a route along ``proc_path`` (length >= 2), replacing any
        existing route of ``edge``.

        ``hop_starts`` (when given) sets each hop's start time and places
        it in start-order on its link; otherwise hops are appended at the
        end of each link's order (a later settle pass assigns times).
        """
        if len(proc_path) < 2:
            raise SchedulingError(f"route for {edge} needs >= 2 processors")
        system = self.system
        # the directed-pair -> channel map holds no pair of a missing
        # link or a repeated processor, so one lookup per hop checks the
        # path and finds the hop's reservation channel
        dsts = proc_path[1:]
        channels = list(map(system.topology._channel.get, zip(proc_path, dsts)))
        if None in channels:
            i = channels.index(None)
            raise SchedulingError(
                f"no link between {proc_path[i]} and {dsts[i]} for {edge}")
        if edge in self.routes:
            self.clear_route(edge)
        txn = self._txn
        link_order = self.link_order
        link_tl = self._link_tl
        link_pos = self._link_pos
        patches = _obs.ACTIVE
        # hop prices as the planners read them (see repro.schedule.linkplan)
        prices = system.hop_prices
        c = system.graph.comm_cost(*edge)
        hops: List[MessageHop] = []
        entries: List[Tuple[Link, int]] = []
        for i, (a, b, channel) in enumerate(zip(proc_path, dsts, channels)):
            lid = (a, b) if a < b else (b, a)
            if prices is None:
                duration = system.comm_cost(edge, lid)
            else:
                factor, bandwidth = prices[lid]
                duration = factor * c / bandwidth
            start = hop_starts[i] if hop_starts else 0.0
            finish = start + duration
            # _rpos/_chan: backrefs for the incremental settle engine —
            # index within the route (stable: routes are rebuilt whole,
            # never spliced) and the reservation channel, both O(1) walks
            hop = MessageHop(edge, a, b, start, finish, duration, i, channel)
            hops.append(hop)
            order = link_order[channel]
            link_pos.pop(channel, None)
            tl = link_tl.get(channel)
            if not hop_starts:
                pos = len(order)
            elif tl is None:
                pos = self._bisect_hops(order, start)
            else:  # a cached timeline's starts mirror the order's
                pos = bisect_right(tl.starts, start)
            order.insert(pos, hop)
            if tl is not None:
                tl.insert(pos, start, finish)
                if patches:
                    _obs.inc("timeline.patches")
            if txn is not None:
                entries.append((channel, pos))
                nxt = order[pos + 1] if pos + 1 < len(order) else None
                if nxt is not None:
                    txn.seed_hops.append(nxt)
        route = Route(edge, hops)
        self.routes[edge] = route
        if txn is not None:
            txn.record_set_route(edge, entries)
            txn.seed_hops.extend(hops)
            txn.seed_tasks.add(edge[1])
        return route

    def _bisect_hops(self, order: List[MessageHop], start: float) -> int:
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if order[mid].start <= start:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def clear_route(self, edge: Edge) -> None:
        """Remove the route of ``edge`` and release its link reservations."""
        route = self.routes.pop(edge, None)
        if route is None:
            return
        channel = self.system.topology.channel
        txn = self._txn
        entries: List[Tuple[Link, int]] = []
        link_tl = self._link_tl
        link_pos = self._link_pos
        for hop in route.hops:
            ch = channel(hop.src, hop.dst)
            order = self.link_order[ch]
            # identity removal: dataclass __eq__ could match a different
            # but value-equal hop on the same channel. The cached
            # position map is keyed by identity; without one, scan.
            positions = link_pos.pop(ch, None)
            pos = -1 if positions is None else positions.get(id(hop), -1)
            if not (0 <= pos < len(order) and order[pos] is hop):
                for pos, h in enumerate(order):
                    if h is hop:
                        break
                else:  # pragma: no cover - container invariant violated
                    raise SchedulingError(
                        f"hop of {edge} missing from link order")
            order.pop(pos)
            tl = link_tl.get(ch)
            if tl is not None:
                tl.delete(pos)
                if _obs.ACTIVE:
                    _obs.inc("timeline.patches")
            if txn is not None:
                entries.append((ch, pos))
                if pos < len(order):
                    txn.seed_hops.append(order[pos])
        if txn is not None:
            txn.record_clear_route(edge, route, entries)
            txn.seed_tasks.add(edge[1])

    def mark_local(self, edge: Edge) -> None:
        """Record that ``edge`` is intra-processor (no links used)."""
        self.clear_route(edge)
        self.routes[edge] = Route(edge, [])
        if self._txn is not None:
            self._txn.record_set_local(edge)
            self._txn.seed_tasks.add(edge[1])

    # ------------------------------------------------------------------
    # transactions (undo log)
    # ------------------------------------------------------------------
    def begin_txn(self) -> "ScheduleTxn":
        """Open a transaction: record every structural mutation (and every
        time a Kahn pass writes) in an undo log
        so a failed commit can be reversed in O(#mutations) instead of
        restoring a whole-schedule :meth:`copy`. Also accumulates the seed
        set the incremental settle engine recomputes from.

        One transaction may be open at a time; close it with
        :meth:`ScheduleTxn.rollback` or :meth:`commit_txn`.
        """
        if self._txn is not None:
            raise SchedulingError("a schedule transaction is already open")
        self._txn = ScheduleTxn(self)
        return self._txn

    def commit_txn(self) -> None:
        """Close the open transaction, keeping all its mutations."""
        if self._txn is None:
            raise SchedulingError("no schedule transaction is open")
        self._txn = None

    @property
    def txn(self) -> Optional["ScheduleTxn"]:
        return self._txn

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def resort_orders(self) -> None:
        """Re-sort occupant lists by settled ``(start, finish)`` (stable).

        A settle leaves every order sorted (see
        :mod:`repro.schedule.settle`), so the production settles never
        call this. Its two callers: the reference oracle
        :func:`~repro.schedule.settle._settle_legacy`, kept unchanged,
        and the dynamic repair's commit
        (:func:`repro.dynamic.repair.cone_repair`), whose tail settle
        drops edges into frozen nodes and whose re-created frozen hops
        are inserted after every hop with an equal start, so a
        zero-duration hop can land behind a longer one it used to
        precede.
        """
        for p, order in self.proc_order.items():
            order.sort(key=lambda t: (self.slots[t].start, self.slots[t].finish))
        for l, hops in self.link_order.items():
            hops.sort(key=lambda h: (h.start, h.finish))
        self._proc_pos.clear()
        self._link_pos.clear()
        self.drop_timelines()

    def copy(self) -> "Schedule":
        """Deep copy (fresh slot/hop objects, shared system)."""
        dup = Schedule(self.system, self.algorithm)
        for t, slot in self.slots.items():
            dup.slots[t] = TaskSlot(slot.task, slot.proc, slot.start, slot.finish,
                                    cost=slot.cost)
        for p, order in self.proc_order.items():
            dup.proc_order[p] = list(order)
        hop_map: Dict[int, MessageHop] = {}
        for edge, route in self.routes.items():
            new_hops = []
            for k, h in enumerate(route.hops):
                nh = MessageHop(h.edge, h.src, h.dst, h.start, h.finish,
                                cost=h.cost)
                nh._rpos = k
                nh._chan = self.system.topology.channel(h.src, h.dst)
                hop_map[id(h)] = nh
                new_hops.append(nh)
            dup.routes[edge] = Route(edge, new_hops)
        for l, hops in self.link_order.items():
            dup.link_order[l] = [hop_map[id(h)] for h in hops]
        return dup

    def restore_from(self, snapshot: "Schedule") -> None:
        """Adopt the full state of ``snapshot`` (transactional rollback).

        ``snapshot`` must have been produced by :meth:`copy` of a schedule
        over the same system; afterwards the snapshot must not be reused.
        """
        if snapshot.system is not self.system:
            raise SchedulingError("cannot restore from a different system's snapshot")
        self.algorithm = snapshot.algorithm
        self.proc_order = snapshot.proc_order
        self.slots = snapshot.slots
        self.routes = snapshot.routes
        self.link_order = snapshot.link_order
        self._proc_pos.clear()
        self._link_pos.clear()
        self.drop_timelines()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.algorithm!r}, tasks={len(self.slots)}, "
            f"SL={self.schedule_length():.1f})"
        )


#: undo-log op tags
_OP_PLACE, _OP_REMOVE, _OP_SET_ROUTE, _OP_CLEAR_ROUTE, _OP_SET_LOCAL = range(5)


class ScheduleTxn:
    """Undo log + incremental-settle seed set for one transactional commit.

    Every structural mutator of :class:`Schedule` appends an inverse
    operation while a transaction is open; :meth:`rollback` replays them
    in LIFO order, which restores each container to the exact state it
    had before the op (later mutations of the same list have already
    been reversed when an op replays, so recorded indices are valid).
    Every time the Kahn pass writes is recorded in ``times`` first and
    restored the same way (the dynamic repair rolls back after its tail
    settle has written). The incremental settle logs no time: it raises
    :class:`~repro.errors.CycleError` before writing anything, and no
    caller rolls back after a settle that wrote.
    Compared to a :meth:`Schedule.copy` per commit this costs O(actual
    mutations) instead of O(tasks + hops) — and commits vastly
    outnumber rollbacks.

    The *seed sets* accumulate every node whose constraint predecessors
    changed (moved/new tasks, order successors of removed or inserted
    occupants, new hops, consumers of rerouted messages): exactly the
    set the incremental settle engine must recompute from (see
    :func:`repro.schedule.settle.settle_incremental`).
    """

    __slots__ = ("sched", "ops", "times", "seed_tasks", "seed_hops",
                 "_slot_keys", "_route_keys")

    def __init__(self, sched: Schedule):
        self.sched = sched
        self.ops: List[tuple] = []
        self.times: List[Tuple[object, float, float]] = []
        self.seed_tasks: set = set()
        self.seed_hops: List[MessageHop] = []
        # dict *insertion order* is observable (serialization iterates
        # slots/routes), so rollback must restore it; two flat key-list
        # copies are still far cheaper than snapshotting every container
        self._slot_keys: List[TaskId] = list(sched.slots)
        self._route_keys: List[Edge] = list(sched.routes)

    # -- recording hooks (called by Schedule mutators) -------------------
    def record_place(self, task: TaskId, proc: Proc, pos: int,
                     order: List[TaskId]) -> None:
        self.ops.append((_OP_PLACE, task, proc, pos))
        self.seed_tasks.add(task)
        if pos + 1 < len(order):
            self.seed_tasks.add(order[pos + 1])

    def record_remove(self, task: TaskId, slot: TaskSlot, pos: int,
                      order: List[TaskId]) -> None:
        self.ops.append((_OP_REMOVE, task, slot, pos))
        if pos < len(order):
            self.seed_tasks.add(order[pos])

    def record_set_route(self, edge: Edge,
                         entries: List[Tuple[Link, int]]) -> None:
        self.ops.append((_OP_SET_ROUTE, edge, entries))

    def record_clear_route(self, edge: Edge, route: Route,
                           entries: List[Tuple[Link, int]]) -> None:
        self.ops.append((_OP_CLEAR_ROUTE, edge, route, entries))

    def record_set_local(self, edge: Edge) -> None:
        self.ops.append((_OP_SET_LOCAL, edge))

    # -- closing ---------------------------------------------------------
    def rollback(self) -> None:
        """Reverse every recorded mutation and close the transaction."""
        if _obs.ACTIVE:
            _obs.inc("txn.rollbacks")
        sched = self.sched
        for obj, start, finish in reversed(self.times):
            obj.start = start
            obj.finish = finish
        for op in reversed(self.ops):
            kind = op[0]
            if kind == _OP_PLACE:
                _, task, proc, pos = op
                del sched.slots[task]
                sched.proc_order[proc].pop(pos)
            elif kind == _OP_REMOVE:
                _, task, slot, pos = op
                sched.slots[task] = slot
                sched.proc_order[slot.proc].insert(pos, task)
            elif kind == _OP_SET_ROUTE:
                _, edge, entries = op
                for ch, pos in reversed(entries):
                    sched.link_order[ch].pop(pos)
                del sched.routes[edge]
            elif kind == _OP_CLEAR_ROUTE:
                _, edge, route, entries = op
                hops = route.hops
                for i in range(len(entries) - 1, -1, -1):
                    ch, pos = entries[i]
                    sched.link_order[ch].insert(pos, hops[i])
                sched.routes[edge] = route
            else:  # _OP_SET_LOCAL
                sched.routes.pop(op[1], None)
        # restore dict insertion order (the replay restored the key sets
        # and values, but re-inserted keys sit at the tail)
        slots, routes = sched.slots, sched.routes
        sched.slots = {t: slots[t] for t in self._slot_keys}
        sched.routes = {e: routes[e] for e in self._route_keys}
        sched._txn = None
        sched._proc_pos.clear()
        sched._link_pos.clear()
        sched.drop_timelines()
