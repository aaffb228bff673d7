"""Strict schedule validation.

Checks every invariant implied by the paper's model (§2.1):

1. every task appears exactly once, on a real processor, with duration
   exactly ``h_ix * tau_i``;
2. tasks on one processor never overlap;
3. link exclusivity under the topology's *duplex model*: on a
   half-duplex link no two hops overlap regardless of direction; on a
   full-duplex link hops may overlap only when they travel in opposite
   directions. The rule is read from the topology's
   :class:`~repro.network.topology.LinkSpec`, not from how the hops
   happen to be stored — so a full-duplex schedule replayed on a
   half-duplex system is caught;
4. every inter-processor message is routed along a *contiguous* path of
   existing links from producer to consumer, departs no earlier than the
   producer finishes, respects store-and-forward hop ordering, and each
   hop lasts exactly ``h'_ij,xy * c_ij / bandwidth``;
5. every task starts no earlier than its data-ready time (all incoming
   message arrivals / local producer finishes);
6. bookkeeping consistency between ``routes`` and ``link_order``.

All violations are collected (not fail-fast) so tests can assert on the
full picture. Each is a :class:`Violation`: its text, and a ``kind`` from
the closed set :data:`KINDS`. ``validate_schedule`` raises
:class:`repro.errors.InvalidScheduleError` when anything is wrong.

The validator reads the schedule, the graph, the topology's link specs
and the system's cost and factor sources, and tables it builds itself at
the start of each call: a ``(src, dst) -> (channel, link, factor,
bandwidth)`` table (:func:`_hop_table`) and identity sets over the
orders. It reads no planner table (``HeterogeneousSystem.hop_prices``),
no topology channel cache and no engine cache (position maps, cached
timelines), so it checks the planners independently. Each route's hops
are walked once; the processor and channel orders are compared as start
and finish columns in C (:func:`_overlapping`).

Tolerances come from :mod:`repro.util.tolerance` — the *same* constants
the engine schedules with, so nothing can pass the engine's overlap
check yet fail validation (or vice versa) in a tolerance gap.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate, chain, compress, count, filterfalse, repeat
from operator import attrgetter, le, lt, ne, not_, sub
from typing import Dict, List, Tuple

from repro.errors import InvalidScheduleError
from repro.network.system import LinkHeterogeneity
from repro.schedule.schedule import Schedule
from repro.util.intervals import intervals_overlap
from repro.util.tolerance import EPS
from repro.util.tolerance import TOL as _TOL

#: the closed set of violation kinds, one per invariant the validator
#: checks (see the module docstring for the model behind each):
#: every task slotted once on a real processor; a slot's start >= 0 and
#: its length equal to the task's exec cost
COVERAGE = "coverage"
DURATION = "duration"
#: two tasks on one processor, or two hops on one half-duplex link or
#: one direction of a full-duplex link, overlap
PROC_OVERLAP = "processor-overlap"
HALF_DUPLEX_OVERLAP = "half-duplex-overlap"
FULL_DUPLEX_OVERLAP = "full-duplex-overlap"
#: a remote message's route must exist, leave the producer's processor
#: and end at the consumer's (a local message has none), along
#: consecutive existing links
ROUTE_ENDPOINTS = "route-endpoints"
CONTIGUITY = "contiguity"
#: each hop lasts its comm cost on its link, starts once its data is at
#: the hop's source, and the consumer starts once the last hop arrives
HOP_DURATION = "hop-duration"
HOP_READINESS = "hop-readiness"
ARRIVAL = "arrival"
#: a consumer on its producer's processor starts after the producer ends
LOCAL_PRECEDENCE = "local-precedence"
#: every hop a link order holds belongs to a route, and the processor
#: and link orders hold exactly the slots and route hops on them
ORPHAN_HOP = "orphan-hop"
ORDER_MEMBERSHIP = "order-membership"

KINDS = (
    COVERAGE, DURATION,
    PROC_OVERLAP, HALF_DUPLEX_OVERLAP, FULL_DUPLEX_OVERLAP,
    ROUTE_ENDPOINTS, CONTIGUITY,
    HOP_DURATION, HOP_READINESS, ARRIVAL,
    LOCAL_PRECEDENCE,
    ORPHAN_HOP, ORDER_MEMBERSHIP,
)


class Violation(str):
    """One finding: its text, which compares equal to a plain ``str``,
    and ``kind``, one of :data:`KINDS`."""

    def __new__(cls, text: str, kind: str) -> "Violation":
        self = super().__new__(cls, text)
        self.kind = kind
        return self

    def __reduce__(self):
        return Violation, (str(self), self.kind)


def _hop_table(system) -> Dict[Tuple[int, int], tuple]:
    """The validator's own link table, built from the topology's
    :class:`~repro.network.topology.LinkSpec` s and the system's factor
    source: ``(src, dst) -> (channel, link, factor, bandwidth)`` for each
    direction of every link. A hop of message ``c`` lasts ``factor * c /
    bandwidth``, :meth:`HeterogeneousSystem.comm_cost`'s float; factor is
    None where it depends on the message (PER_MESSAGE_LINK) or is missing
    (PER_LINK), and such hops are priced through ``comm_cost``. No planner
    table or engine cache is read, so the planners' prices are checked
    independently."""
    topo = system.topology
    mode = system.link_mode
    if mode is LinkHeterogeneity.PER_LINK:
        factors = system.per_link_factors
    elif mode is LinkHeterogeneity.HOMOGENEOUS:
        factors = dict.fromkeys(topo.links, 1.0)
    else:
        factors = {}
    table: Dict[Tuple[int, int], tuple] = {}
    for lid in topo.links:
        a, b = lid
        spec = topo.spec(a, b)
        half = spec.duplex == "half"
        factor = factors.get(lid)
        table[a, b] = (lid, lid, factor, spec.bandwidth)
        table[b, a] = (lid if half else (b, a), lid, factor, spec.bandwidth)
    return table


_start = attrgetter("start")
_finish = attrgetter("finish")
_hops = attrgetter("hops")
_past_eps = partial(lt, EPS)


def _overlapping(groups: List[list]) -> List[List[tuple]]:
    """For each group of slots or hops, the consecutive pairs ``(a, b)``
    of the group sorted by start (stably, as ``sorted`` would) that
    overlap by more than EPS (:func:`~repro.util.intervals.
    intervals_overlap`). The start and finish columns of all groups are
    compared in C: in a group already in start order, ``a`` and ``b``
    can overlap only if ``a`` finishes more than EPS after ``b`` starts,
    so only those pairs, and the groups out of start order, are looked at
    one by one."""
    found: List[List[tuple]] = [[] for _ in groups]
    items = list(chain.from_iterable(groups))
    starts = list(map(_start, items))
    finishes = list(map(_finish, items))
    ends = list(accumulate(map(len, groups)))
    unsorted = set()
    for i in compress(count(), map(not_, map(le, starts, starts[1:]))):
        g = bisect_right(ends, i)
        if i + 1 < ends[g]:
            unsorted.add(g)
    for i in compress(count(), map(_past_eps, map(sub, finishes, starts[1:]))):
        g = bisect_right(ends, i)
        if (i + 1 < ends[g] and g not in unsorted and intervals_overlap(
                starts[i], finishes[i], starts[i + 1], finishes[i + 1])):
            found[g].append((items[i], items[i + 1]))
    for g in sorted(unsorted):
        group = sorted(groups[g], key=_start)
        found[g] = [(a, b) for a, b in zip(group, group[1:])
                    if intervals_overlap(a.start, a.finish, b.start, b.finish)]
    return found


def _link_order_key(ch: Tuple[int, int]):
    """Channels in link order, a full-duplex link's (a, b) direction
    first."""
    return min(ch), max(ch), ch[0] > ch[1]


def schedule_violations(schedule: Schedule) -> List[Violation]:
    """Return a list of human-readable violations (empty == valid)."""
    v: List[Violation] = []
    system = schedule.system
    graph = system.graph
    slots = schedule.slots
    routes = schedule.routes
    proc_order = schedule.proc_order
    link_order = schedule.link_order
    table = _hop_table(system)
    channel_of = {pair: entry[0] for pair, entry in table.items()}
    # Membership sets built here from the orders themselves — never from
    # the schedule's cached position maps, so the trust anchor reads no
    # engine cache. Hops are matched by identity: MessageHop compares by
    # value, and a value-equal copy in a link order is not the route's hop.
    in_proc_order = {p: set(order) for p, order in proc_order.items()}
    in_link_order = {ch: set(map(id, hops)) for ch, hops in link_order.items()}

    # 1. task coverage & durations ------------------------------------------
    for task in filterfalse(slots.__contains__, graph.tasks()):
        v.append(Violation(f"task {task!r} is not scheduled", COVERAGE))
    in_graph = set(graph.tasks())
    n_procs = system.n_procs
    exec_row = system.exec_cost_row
    for task, slot in slots.items():
        if task not in in_graph:
            v.append(Violation(f"scheduled task {task!r} is not in the graph",
                               COVERAGE))
            continue
        proc = slot.proc
        if not (0 <= proc < n_procs):
            v.append(Violation(f"task {task!r} on invalid processor {proc}",
                               COVERAGE))
            continue
        start = slot.start
        # written so a NaN time fails (every comparison with NaN is
        # false); an infinite one fails the duration check
        if not start >= -_TOL:
            v.append(Violation(f"task {task!r} starts before time 0 ({start})",
                               DURATION))
        duration = slot.finish - start
        expected = exec_row(task)[proc]
        if not -_TOL <= duration - expected <= _TOL:
            v.append(Violation(
                f"task {task!r} duration {duration:.6f} != "
                f"exec cost {expected:.6f} on P{proc}", DURATION))
        if task not in in_proc_order[proc]:
            v.append(Violation(f"task {task!r} missing from proc_order[{proc}]",
                               ORDER_MEMBERSHIP))

    proc_of = dict(zip(slots, map(attrgetter("proc"), slots.values())))
    for p, order in proc_order.items():
        for t in compress(order, map(ne, map(proc_of.get, order), repeat(p))):
            v.append(Violation(
                f"proc_order[{p}] lists {t!r} which is not slotted there",
                ORDER_MEMBERSHIP))

    # 2. processor exclusivity ----------------------------------------------
    busy = [list(filter(None, map(slots.get, order)))
            for order in proc_order.values()]
    for p, pairs in zip(proc_order, _overlapping(busy)):
        for a, b in pairs:
            v.append(Violation(
                f"P{p}: tasks {a.task!r} [{a.start:.3f},{a.finish:.3f}) and "
                f"{b.task!r} [{b.start:.3f},{b.finish:.3f}) overlap",
                PROC_OVERLAP))

    # 4 & 5 (reported after 3). message routing and precedence ---------------
    # One walk over each route's hops checks its path, prices and times,
    # and that the channel its (src, dst) names holds it.
    messages: List[Violation] = []
    no_ids: set = set()
    hop_table = {pair: entry + (in_link_order.get(entry[0], no_ids),)
                 for pair, entry in table.items()}
    comm_cost = system.comm_cost
    nominal = graph.comm_cost
    tol = _TOL
    placed = 0
    for edge in graph.edges():
        su = slots.get(edge[0])
        sv = slots.get(edge[1])
        if su is None or sv is None:
            continue
        route = routes.get(edge)
        if su.proc == sv.proc:
            if route is not None and route.hops:
                messages.append(Violation(
                    f"message {edge} routed although both tasks on P{su.proc}",
                    ROUTE_ENDPOINTS))
            if sv.start < su.finish - tol:
                messages.append(Violation(
                    f"precedence violated: {edge[1]!r} starts {sv.start:.3f} < "
                    f"{edge[0]!r} finishes {su.finish:.3f} (same P{su.proc})",
                    LOCAL_PRECEDENCE))
            continue
        # inter-processor: route must exist and be coherent
        hops = None if route is None else route.hops
        if not hops:
            messages.append(Violation(
                f"message {edge} between P{su.proc} and P{sv.proc} has no route",
                ROUTE_ENDPOINTS))
            continue
        if hops[0].src != su.proc:
            messages.append(Violation(
                f"message {edge} departs from P{hops[0].src}, producer on P{su.proc}",
                ROUTE_ENDPOINTS))
        if hops[-1].dst != sv.proc:
            messages.append(Violation(
                f"message {edge} arrives at P{hops[-1].dst}, consumer on P{sv.proc}",
                ROUTE_ENDPOINTS))
        c = nominal(*edge)
        mark = len(messages)  # a broken path is reported before its hops
        at = hops[0].src
        contiguous = True
        ready = su.finish
        for k, hop in enumerate(hops):
            src = hop.src
            dst = hop.dst
            if src != at:
                contiguous = False
            at = dst
            try:
                ch, lid, factor, bandwidth, held = hop_table[src, dst]
            except KeyError:
                messages.append(Violation(
                    f"message {edge} hop {k} uses missing link ({src},{dst})",
                    CONTIGUITY))
                continue
            expected = (comm_cost(edge, lid) if factor is None
                        else factor * c / bandwidth)
            start = hop.start
            finish = hop.finish
            if not -tol <= finish - start - expected <= tol:
                messages.append(Violation(
                    f"message {edge} hop {k} duration {finish - start:.6f} != "
                    f"comm cost {expected:.6f} on link {lid}", HOP_DURATION))
            if start < ready - tol:
                messages.append(Violation(
                    f"message {edge} hop {k} starts {start:.3f} before "
                    f"its data is ready at {ready:.3f}", HOP_READINESS))
            if id(hop) in held:
                placed += 1
            else:
                messages.append(Violation(
                    f"message {edge} hop {k} missing from link_order[{ch}]",
                    ORDER_MEMBERSHIP))
            ready = finish
        if not contiguous:
            messages.insert(mark, Violation(
                f"message {edge} route is not a contiguous path: {route.procs}",
                CONTIGUITY))
        arrival = hops[-1].finish
        if sv.start < arrival - tol:
            messages.append(Violation(
                f"task {edge[1]!r} starts {sv.start:.3f} before message {edge} "
                f"arrives at {arrival:.3f}", ARRIVAL))

    # 3. link exclusivity under the duplex model ------------------------------
    # Each hop belongs on the channel its own (src, dst) names and is
    # checked for overlap there: one channel per half-duplex link, shared
    # by both directions, and one per direction of a full-duplex link. So
    # the rule is the topology's, not the container's. When the walk above
    # found every route hop, all distinct, in its own channel's order, and
    # the orders hold nothing else, no order entry is misplaced or orphan.
    route_ids = set(map(id, chain.from_iterable(map(_hops, routes.values()))))
    held_total = sum(map(len, link_order.values()))
    clean = placed == held_total == len(route_ids) == sum(
        map(len, map(_hops, routes.values())))
    groups = link_order
    if not clean:
        regroup = False
        for ch, hops in link_order.items():
            for h in hops:
                own = channel_of.get((h.src, h.dst))
                if own is None:
                    v.append(Violation(
                        f"channel {ch}: hop {h.edge} uses missing link "
                        f"({h.src},{h.dst})", ORDER_MEMBERSHIP))
                elif own != ch:
                    v.append(Violation(
                        f"channel {ch}: hop {h.edge} {h.src}->{h.dst} belongs "
                        f"to channel {own}", ORDER_MEMBERSHIP))
                if own != ch:
                    regroup = True
        if regroup:
            groups = {}
            for hops in link_order.values():
                for h in hops:
                    own = channel_of.get((h.src, h.dst))
                    if own is not None:
                        groups.setdefault(own, []).append(h)
    channels = sorted((ch for ch, hops in groups.items() if len(hops) > 1),
                      key=_link_order_key)
    for ch, pairs in zip(channels, _overlapping([groups[ch] for ch in channels])):
        lid = (min(ch), max(ch))
        half = channel_of[ch[::-1]] == ch
        for a, b in pairs:
            dir_note = "" if half else f" (direction {a.src}->{a.dst})"
            v.append(Violation(
                f"link {lid}{dir_note}: hops {a.edge}[{a.start:.3f},{a.finish:.3f}) and "
                f"{b.edge}[{b.start:.3f},{b.finish:.3f}) overlap",
                HALF_DUPLEX_OVERLAP if half else FULL_DUPLEX_OVERLAP))

    v.extend(messages)

    # 6. no orphan hops --------------------------------------------------------
    if not clean:
        for l, hops in link_order.items():
            for h in compress(hops, map(not_, map(route_ids.__contains__,
                                                  map(id, hops)))):
                v.append(Violation(f"link {l} holds orphan hop for {h.edge}",
                                   ORPHAN_HOP))

    return v


def validate_schedule(schedule: Schedule) -> None:
    """Raise :class:`InvalidScheduleError` unless the schedule is valid."""
    violations = schedule_violations(schedule)
    if violations:
        raise InvalidScheduleError(violations)
