"""Tentative link reservations layered over a schedule's committed state.

Both BSA's migration evaluator and the list-scheduler baselines answer
the same what-if question while planning: *if this message went over
these links now, when would each hop start?* Reservations made while
answering must be visible to later hops of the same planning pass (two
messages of one task must not overlap on a link) but must not touch the
schedule. :class:`LinkPlanner` is that overlay, shared by both engines so
the contention substrate stays identical across algorithms.

Two implementations, selected by the process-wide hot-path mode:

* *indexed* (the production ``incremental`` engine) — query the
  schedule's cached :class:`Timeline` with an indexed jump, merged on
  the fly (two-pointer walk) with the planner's small per-link
  tentative-reservation lists; nothing is copied or re-sorted;
* *legacy* (the reference oracle) — the original code: re-merge
  ``sorted(committed + planned)`` object lists and scan from time zero
  on every reservation.

Both modes yield bit-identical plans (see
``tests/test_hotpath_equivalence.py`` and ``benchmarks/bench_hotpath.py``).

Hop durations come from the system's per-link price table
(``HeterogeneousSystem.hop_prices``), built when link factors do not
depend on the message (HOMOGENEOUS and PER_LINK): a hop of message
``c`` on a link with ``(factor, bandwidth)`` lasts ``factor * c /
bandwidth``, ``comm_cost``'s operands in its order, so it is the same
float; under uniform hops that is ``1.0 * c / 1.0``, the nominal ``c``
bit for bit. :meth:`LinkPlanner.walk_path`,
:func:`committed_arrival_bounds` and ``Schedule.set_route`` read ``c``
once per message and the table once per hop. Under PER_MESSAGE_LINK,
whose factors are hashed per message, there is no table, and they call
``HeterogeneousSystem.comm_cost``, which memoizes per (message, link).
``comm_cost`` prices from the topology's ``LinkSpec`` and the factor
source, never from the table, and the validator prices every hop
through it, so it checks the planners' prices independently.

The candidate screens' lower-bound kernels live here too, so their
float-exactness arguments sit in one place: :func:`chain_arrival_bounds`,
:func:`one_hop_arrival_bounds` and :func:`committed_arrival_bounds`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.network.routing import PathTrie
from repro.network.topology import Link, Proc
from repro.schedule.events import Edge
from repro.schedule.schedule import Schedule
from repro.util.intervals import (
    Interval,
    Timeline,
    earliest_gap,
    reference_mode,
)


class LinkPlanner:
    """Plan hop reservations against committed + tentative link load."""

    def __init__(self, sched: Schedule, insertion: bool):
        self.sched = sched
        self.insertion = insertion
        # legacy mode: tentative Interval lists merged per query
        self.planned: Dict[Link, List[Interval]] = {}
        # indexed mode: small start-sorted (starts, finishes) lists per link
        self._extras: Dict[Link, Tuple[List[float], List[float]]] = {}
        # bind the implementation once — reserve is called per hop on the
        # hottest path and the mode cannot change mid-plan
        self.reserve = (
            self._reserve_legacy if reference_mode() else self._reserve_indexed
        )

    def _reserve_indexed(self, lid: Link, ready: float, duration: float) -> float:
        """Reserve ``duration`` on ``lid`` no earlier than ``ready``;
        returns the chosen start under the configured slot policy."""
        base = self.sched.link_timeline(lid)
        entry = self._extras.get(lid)
        if entry is None:
            entry = self._extras[lid] = ([], [])
        ex_starts, ex_finishes = entry
        if self.insertion:
            start = base.earliest_gap_merged(
                ready, duration, ex_starts, ex_finishes
            )
        else:
            # last reservation in start order of the merged view
            # (tentative after committed at equal starts, matching the
            # legacy stable sort)
            if ex_starts and (
                not base.starts or ex_starts[-1] >= base.starts[-1]
            ):
                last = ex_finishes[-1]
            else:
                last = base.last_finish()
            start = max(ready, last)
        k = bisect_right(ex_starts, start)
        ex_starts.insert(k, start)
        ex_finishes.insert(k, start + duration)
        return start

    def _reserve_legacy(self, lid: Link, ready: float, duration: float) -> float:
        busy = self.sched.link_busy(lid)
        extra = self.planned.get(lid)
        if extra:
            busy = sorted(busy + extra, key=lambda iv: iv.start)
        if self.insertion:
            start = earliest_gap(busy, ready, duration)
        else:
            last = busy[-1].finish if busy else 0.0
            start = max(ready, last)
        self.planned.setdefault(lid, []).append(Interval(start, start + duration))
        self.planned[lid].sort(key=lambda iv: iv.start)
        return start

    def walk_path(
        self, edge: Edge, path: List[Proc], ready: float
    ) -> Tuple[List[float], float]:
        """Reserve every hop of ``path``; returns (hop starts, arrival).

        Hop *durations* are priced per canonical link (see the module
        docstring); hop *reservations* go to the traversal direction's
        channel (identical on half-duplex links, per-direction on
        full-duplex ones).
        """
        system = self.sched.system
        # hot path: index the precomputed directed-pair -> channel map
        # directly (it maps half-duplex directions to the canonical lid)
        channel_of = system.topology._channel
        prices = system.hop_prices
        comm_cost = system.comm_cost
        c = system.graph.comm_cost(*edge)
        reserve = self.reserve
        starts: List[float] = []
        for a, b in zip(path, path[1:]):
            lid = (a, b) if a < b else (b, a)
            if prices is None:
                duration = comm_cost(edge, lid)
            else:
                factor, bandwidth = prices[lid]
                duration = factor * c / bandwidth
            start = reserve(channel_of[(a, b)], ready, duration)
            starts.append(start)
            ready = start + duration
        return starts, ready


def chain_arrival_bounds(
    pred_info: List[Tuple[Proc, float, float]],
    n_procs: int,
    hop_row: Optional[Callable[[Proc], List[int]]] = None,
) -> List[float]:
    """Queue-free lower bound on a task's data-ready time at *every*
    processor (indexed by processor).

    ``pred_info`` holds ``(producer proc, producer finish, nominal comm
    cost)`` per predecessor. With ``hop_row`` (``src -> [hops to each
    processor]``, valid only under uniform hops, where every hop of a
    message costs its nominal ``c``, and when routes have exactly that
    many hops), each message's store-and-forward chain ``finish,
    finish + c, finish + c + c, ...`` is built once, up to the row's
    largest count, and the arrival at ``dst`` is bounded by the chain's
    entry at ``row[dst]`` (the finish itself at the producer's
    processor). The repeated addition mirrors the hop-by-hop float chain
    of a real plan, so the bound is float-exact (``arrival >= bound``
    bit-for-bit, queueing only delays hops). Without ``hop_row`` the
    bound degrades to the latest producer finish, which is always valid.

    The bound holds under either link policy, since queueing only delays
    a hop. It gives BSA's screen its fallback bound (append slots or
    incremental routes), the DLS/ETF ready-pair queue the first key of
    each pair, and DLS's insertion rescan its screen.
    """
    if hop_row is None:
        lb = 0.0
        for _, f, _ in pred_info:
            if f > lb:
                lb = f
        return [lb] * n_procs
    lbs = [0.0] * n_procs
    for p, f, c in pred_info:
        row = hop_row(p)
        chain = [f]
        for _ in range(max(row)):
            f = f + c
            chain.append(f)
        for q, d in enumerate(row):
            a = chain[d]
            if a > lbs[q]:
                lbs[q] = a
    return lbs


def one_hop_arrival_bounds(
    pred_info: List[Tuple[Proc, float, float]],
    n_procs: int,
    uniform_hops: bool,
) -> List[float]:
    """Lower bound on a task's data-ready time at *every* processor from
    one nominal hop per message, in O(predecessors + processors).

    ``pred_info`` is :func:`chain_arrival_bounds`'s. A message from
    another processor crosses at least one link, so under uniform hops it
    arrives no earlier than ``finish + c``, otherwise no earlier than
    ``finish``; a producer on the processor itself gives its finish. Only
    the processor hosting the latest one-hop arrival sees less: the
    latest of the other processors' one-hop arrivals and its own
    producers' finishes.

    Float-exactness against :func:`committed_arrival_bounds`: a trie
    node arrives at ``earliest_gap(ready, c) + c``, and
    ``Timeline.earliest_gap`` never returns less than its ready time, so
    the first hop arrives at or after ``finish + c`` in floats (float
    addition is monotone) and every later hop at or after the one before
    (``c >= 0``). Under uniform hops the walk prices each hop ``1.0 * c
    / 1.0``, the nominal ``c`` bit for bit. So this bound is at most the
    walk's at every processor, per message and in the max over messages.
    """
    local: Dict[Proc, float] = {}
    remote: Dict[Proc, float] = {}
    for p, f, c in pred_info:
        if f > local.get(p, 0.0):
            local[p] = f
        a = f + c if uniform_hops else f
        if a > remote.get(p, 0.0):
            remote[p] = a
    first = second = 0.0
    top = -1
    for p, a in remote.items():
        if a > first:
            first, second, top = a, first, p
        elif a > second:
            second = a
    lbs = [first] * n_procs
    if top >= 0:
        lbs[top] = max(second, local.get(top, 0.0))
    return lbs


def committed_arrival_bounds(
    sched: Schedule,
    edge: Edge,
    trie: PathTrie,
    tl_memo: Dict[Link, Timeline],
    targets: Optional[Iterable[Proc]] = None,
) -> List[float]:
    """Lower bound on ``edge``'s arrival at *every* processor if its
    consumer moved there, walking committed link timelines only.

    The message leaves the producer's processor at its finish time and
    follows the routes merged in ``trie``, which must be the producer
    processor's trie of the routes the real plan takes — BSA passes
    :func:`~repro.network.routing.shortest_path_trie`, the list
    schedulers :meth:`~repro.network.routing.RoutingTable.trie`. One
    earliest-gap query runs per trie node, against the schedule's
    committed load and without a planner's tentative reservations. Hop
    durations are priced as :meth:`LinkPlanner.walk_path` prices them
    (see the module docstring), so every float matches the real plan's.

    Soundness: under the insertion slot policy ``earliest_gap`` is
    monotone nondecreasing in both the ready time and the reservation
    set (an extra reservation can only break a fit or raise the running
    maximum, never admit an earlier start), so hop by hop the committed
    walk lower-bounds the planned arrival, and equals it whenever no
    tentative reservation shares a channel with this message. Unlike
    :func:`chain_arrival_bounds`' distance chain it holds for
    heterogeneous links and skewed bandwidths. The argument covers the
    insertion policy only, and callers use the walk only there; the
    append-policy list schedulers need no bound (see
    :meth:`~repro.baselines.common.ListScheduleBuilder.place_ready_pairs`).

    ``targets`` (processors) restricts the walk to the trie nodes on the
    routes to them. A node's arrival depends only on its ancestors, and
    nodes are numbered after their parents, so walking those nodes in
    ascending order gives each target the full walk's arrival bit for
    bit. Any other processor gets that arrival too if its route ends on
    a walked node, else the producer's finish: a lower bound either way.

    ``tl_memo`` (channel -> timeline) skips the schedule's timeline
    lookup on repeat channels; callers bounding several messages
    against one committed state share one dict across them, and must
    not keep it across a mutation, which edits or drops the timelines
    it holds.
    """
    system = sched.system
    finish = sched.slots[edge[0]].finish
    parents, channels, links, dst_node = trie
    if targets is None:
        nodes: Iterable[int] = range(len(parents))
    else:
        walked = set()
        for t in targets:
            n = dst_node[t]
            while n >= 0 and n not in walked:
                walked.add(n)
                n = parents[n]
        nodes = sorted(walked)
    prices = system.hop_prices
    comm_cost = system.comm_cost
    c = system.graph.comm_cost(*edge)
    link_timeline = sched.link_timeline
    arr = [finish] * len(parents)
    for n in nodes:
        p = parents[n]
        ready = finish if p < 0 else arr[p]
        if prices is None:
            d = comm_cost(edge, links[n])
        else:
            factor, bandwidth = prices[links[n]]
            d = factor * c / bandwidth
        ch = channels[n]
        tl = tl_memo.get(ch)
        if tl is None:
            tl = tl_memo[ch] = link_timeline(ch)
        arr[n] = tl.earliest_gap(ready, d) + d
    return [finish if n < 0 else arr[n] for n in dst_node]


def slot_start(sched: Schedule, proc: Proc, ready: float, duration: float,
               insertion: bool) -> float:
    """Earliest feasible task start on ``proc`` under the slot policy."""
    if reference_mode():
        busy = sched.proc_busy(proc)
        if insertion:
            return earliest_gap(busy, ready, duration)
        last = busy[-1].finish if busy else 0.0
        return max(ready, last)
    tl = sched.proc_timeline(proc)
    if insertion:
        return tl.earliest_gap(ready, duration)
    return max(ready, tl.last_finish())
