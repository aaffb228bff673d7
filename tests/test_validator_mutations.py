"""Mutation suite for the schedule validator.

Every violation kind in :data:`repro.schedule.validator.KINDS` has one
seeded mutator. Each corrupts a copy of a valid schedule so that exactly
one invariant breaks, and the validator must then report findings of
exactly that kind. The schedules come from all six schedulers on a
ring, a hypercube, a torus and a fat tree, under each of the three link
modes; every other link of each topology is full duplex, so both link
overlap kinds have channels to break. A mutator that finds nothing to
corrupt in a schedule fails the suite, so a pass means every kind was
detected on every schedule. The graph's size and granularity are chosen
so that every schedule has something for each mutator: consumers beside
their producers with room to move, and routes of three or more hops.

``test_detection_table`` prints the kind x scheduler table of detected
cases (the per-item success flags behind each count).
"""

from __future__ import annotations

import copy
import functools
import random
from typing import Callable, Dict, List, Tuple

import pytest

from repro.experiments.runner import _SCHEDULERS
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import (
    LinkSpec,
    fat_tree,
    hypercube,
    ring,
    torus2d,
)
from repro.schedule import validator
from repro.schedule.events import MessageHop
from repro.schedule.validator import schedule_violations
from repro.workloads.suites import random_graph

ALGORITHMS = ("bsa", "dls", "heft", "cpop", "etf", "spdecomp")
TOPOLOGIES = ("ring", "hypercube", "torus", "fattree")
LINK_MODES = tuple(LinkHeterogeneity)

#: how far past the validator's tolerance every corruption reaches
MARGIN = 1e-3


class NoCandidate(Exception):
    """The schedule holds nothing this mutator can corrupt cleanly."""


def _topology(name: str):
    base = {"ring": lambda: ring(8), "hypercube": lambda: hypercube(8),
            "torus": lambda: torus2d(3, 4), "fattree": lambda: fat_tree(8)}[name]()
    specs = {lid: LinkSpec(bandwidth=base.spec(*lid).bandwidth,
                           duplex="full" if i % 2 else "half")
             for i, lid in enumerate(base.links)}
    return base.with_link_specs(specs)


def _system(topology_name: str, mode: LinkHeterogeneity):
    graph = random_graph(40, granularity=0.5, seed=1)
    topology = _topology(topology_name)
    if mode is LinkHeterogeneity.PER_MESSAGE_LINK:
        return HeterogeneousSystem.sample(
            graph, topology, link_het_range=(1.0, 4.0), seed=5)
    sampled = HeterogeneousSystem.sample(graph, topology, seed=5)
    if mode is LinkHeterogeneity.HOMOGENEOUS:
        return sampled
    return HeterogeneousSystem.from_exec_table(
        graph, topology, {t: sampled.exec_cost_row(t) for t in graph.tasks()},
        link_mode=mode,
        per_link_factors={lid: 1.0 + (sum(lid) % 3) * 0.75
                          for lid in topology.links})


@functools.lru_cache(maxsize=None)
def _schedule(algorithm: str, topology: str, mode: LinkHeterogeneity):
    sched = _SCHEDULERS[algorithm](_system(topology, mode))
    assert schedule_violations(sched) == []
    return sched


# ----------------------------------------------------------------------
# what a schedule's times allow
# ----------------------------------------------------------------------
def _data_ready(sched, task, skip=None) -> float:
    """When every message into ``task`` (but ``skip``'s) is on its
    processor: local producers' finishes, remote routes' arrivals."""
    ready = 0.0
    for u in sched.system.graph.predecessors(task):
        if u == skip:
            continue
        route = sched.routes.get((u, task))
        ready = max(ready, sched.slots[u].finish if route is None or route.is_local
                    else route.arrival)
    return ready


def _hop_ready(sched, route, k: int) -> float:
    return route.hops[k - 1].finish if k else sched.slots[route.edge[0]].finish


def _latest_finish(task_slot, sched) -> float:
    """The latest finish ``task_slot`` may take without delaying anything
    that waits for it: its consumers' starts and first hops."""
    limit = float("inf")
    for v in sched.system.graph.successors(task_slot.task):
        route = sched.routes[(task_slot.task, v)]
        limit = min(limit, sched.slots[v].start if route.is_local
                    else route.hops[0].start)
    return limit


def _hop_slack(sched, route, k: int) -> float:
    """The latest finish hop ``k`` may take without delaying the next
    hop or the consumer."""
    if k + 1 < len(route.hops):
        return route.hops[k + 1].start
    return sched.slots[route.edge[1]].start


def _hop_index(sched):
    """``id(hop) -> (route, k)`` over every route hop."""
    return {id(h): (r, k) for r in sched.routes.values()
            for k, h in enumerate(r.hops)}


def _shift(obj, start: float) -> None:
    duration = obj.finish - obj.start
    obj.start = start
    obj.finish = start + duration


def _pick(rng: random.Random, candidates: List):
    if not candidates:
        raise NoCandidate
    return rng.choice(candidates)


# ----------------------------------------------------------------------
# mutators: one per kind, each breaking exactly its own invariant
# ----------------------------------------------------------------------
def _coverage(sched, rng) -> None:
    sched.remove_task(_pick(rng, list(sched.slots)))


def _duration(sched, rng) -> None:
    slot = _pick(rng, list(sched.slots.values()))
    slot.finish = slot.start + 0.5 * (slot.finish - slot.start)


def _processor_overlap(sched, rng) -> None:
    """Pull a task back onto the one before it (its data allows), or
    push a task forward onto the one after it (its consumers allow)."""
    slots = sched.slots
    moves: List[Tuple] = []
    for order in sched.proc_order.values():
        for ta, tb in zip(order, order[1:]):
            a, b = slots[ta], slots[tb]
            lo = max(_data_ready(sched, tb), a.start)
            if a.finish - lo > MARGIN:
                moves.append((b, lo))
            finish = min(_latest_finish(a, sched), b.finish)
            if finish - b.start > MARGIN and finish >= a.finish:
                moves.append((a, finish - (a.finish - a.start)))
    obj, start = _pick(rng, moves)
    _shift(obj, start)


def _link_overlap(duplex: str) -> Callable:
    def mutate(sched, rng) -> None:
        """The link version of :func:`_processor_overlap`, on a channel
        of the given duplex mode."""
        topo = sched.system.topology
        where = _hop_index(sched)
        moves: List[Tuple] = []
        for ch, hops in sched.link_order.items():
            if topo.duplex(*ch) != duplex:
                continue
            for a, b in zip(hops, hops[1:]):
                route, k = where[id(b)]
                lo = max(_hop_ready(sched, route, k), a.start)
                if a.finish - lo > MARGIN:
                    moves.append((b, lo))
                route, k = where[id(a)]
                finish = min(_hop_slack(sched, route, k), b.finish)
                if finish - b.start > MARGIN and finish >= a.finish:
                    moves.append((a, finish - (a.finish - a.start)))
        obj, start = _pick(rng, moves)
        _shift(obj, start)
    return mutate


def _half_duplex_hops(sched, route) -> List[int]:
    topo = sched.system.topology
    return [k for k, h in enumerate(route.hops) if topo.duplex(h.src, h.dst) == "half"]


def _reverse(hop) -> None:
    hop.src, hop.dst = hop.dst, hop.src


def _route_endpoints(sched, rng) -> None:
    """Reverse a one-hop route on a half-duplex link: it now leaves the
    consumer's processor for the producer's, over the same channel."""
    routes = [r for r in sched.routes.values()
              if len(r.hops) == 1 and _half_duplex_hops(sched, r)]
    _reverse(_pick(rng, routes).hops[0])


def _contiguity(sched, rng) -> None:
    """Reverse an inner hop: both ends of the route stay. A half-duplex
    hop keeps its channel; a full-duplex one moves to the reverse
    direction's order, where it must fit in idle time."""
    topo = sched.system.topology
    hops = []
    for route in sched.routes.values():
        for h in route.hops[1:-1]:
            back = topo.channel(h.dst, h.src)
            if back == topo.channel(h.src, h.dst) or not any(
                    o.start < h.finish and h.start < o.finish
                    for o in sched.link_order[back]):
                hops.append(h)
    hop = _pick(rng, hops)
    here, back = topo.channel(hop.src, hop.dst), topo.channel(hop.dst, hop.src)
    if back != here:
        sched.link_order[here].remove(hop)
        order = sched.link_order[back]
        order.insert(sum(o.start <= hop.start for o in order), hop)
    _reverse(hop)


def _hop_duration(sched, rng) -> None:
    hop = _pick(rng, [h for r in sched.routes.values() for h in r.hops
                      if h.finish - h.start > MARGIN])
    hop.finish = hop.start + 0.5 * (hop.finish - hop.start)


def _hop_readiness(sched, rng) -> None:
    """Pull a hop back before its data is at its source, into the idle
    time its channel has before it."""
    moves = []
    where = _hop_index(sched)
    for hops in sched.link_order.values():
        idle_from = float("-inf")
        for h in hops:
            route, k = where[id(h)]
            ready = _hop_ready(sched, route, k)
            if ready - idle_from > MARGIN:
                moves.append((h, max(idle_from, ready - 10.0)))
            idle_from = max(idle_from, h.finish)
    obj, start = _pick(rng, moves)
    _shift(obj, start)


def _arrival(sched, rng) -> None:
    """Pull a task back before its last remote message arrives, but not
    before its local producers or the task ahead of it finish."""
    graph = sched.system.graph
    moves = []
    for order in sched.proc_order.values():
        idle_from = 0.0
        for t in order:
            slot = sched.slots[t]
            local, remote = idle_from, float("-inf")
            for u in graph.predecessors(t):
                route = sched.routes[(u, t)]
                if route.is_local:
                    local = max(local, sched.slots[u].finish)
                else:
                    remote = max(remote, route.arrival)
            if remote - local > MARGIN:
                moves.append((slot, max(local, remote - 10.0)))
            idle_from = max(idle_from, slot.finish)
    obj, start = _pick(rng, moves)
    _shift(obj, start)


def _idle_start(busy, begin: float, length: float, limit: float):
    """The earliest start >= ``begin`` of ``length`` idle time among the
    ``(start, finish)`` pairs in ``busy`` that also ends by ``limit``;
    None when there is none."""
    for start, finish in sorted(busy):
        if finish <= begin:
            continue
        if begin + length <= min(start, limit):
            return begin
        begin = max(begin, finish)
    return begin if begin + length <= limit else None


def _local_precedence(sched, rng) -> None:
    """Run a consumer before its local producer without an overlap: the
    consumer moves into idle time before the producer, the producer into
    idle time after the consumer, or the two swap when they run back to
    back. The consumer's other inputs are there in time, and no message
    the producer sends leaves before its new finish (its local consumers
    may start too early: the same kind)."""
    graph = sched.system.graph
    slots = sched.slots
    moves = []
    for u, v in graph.edges():
        su, sv = slots[u], slots[v]
        if su.proc != sv.proc:
            continue
        ready = _data_ready(sched, v, skip=u)
        order = sched.proc_order[su.proc]
        du, dv = su.finish - su.start, sv.finish - sv.start
        begin = _idle_start([(slots[t].start, slots[t].finish)
                             for t in order if t != v], ready, dv, su.start)
        if begin is not None:
            moves.append([(sv, begin)])
        waiting = min([sched.routes[(u, w)].hops[0].start
                       for w in graph.successors(u)
                       if not sched.routes[(u, w)].is_local] or [float("inf")])
        begin = _idle_start([(slots[t].start, slots[t].finish)
                             for t in order if t != u],
                            max(sv.finish, su.start), du, waiting)
        if begin is not None:
            moves.append([(su, begin)])
        i = order.index(u)
        if order[i + 1:i + 2] != [v]:
            continue
        v_start = max(su.start, ready)
        u_start = max(v_start + dv, su.start)
        u_finish = u_start + du
        after = slots[order[i + 2]].start if i + 2 < len(order) else float("inf")
        if u_finish <= min(after, waiting):
            moves.append([(sv, v_start), (su, u_start)])
    for obj, start in _pick(rng, moves):
        _shift(obj, start)


def _orphan_hop(sched, rng) -> None:
    """Append a hop no route owns to a channel, after its last hop."""
    ch, hops = _pick(rng, sorted(sched.link_order.items()))
    start = max((h.finish for h in hops), default=0.0) + 1.0
    edge = _pick(rng, sorted(sched.routes, key=repr))
    hops.append(MessageHop(edge, ch[0], ch[1], start, start + 1.0))


def _order_membership(sched, rng) -> None:
    """Drop a task from its processor's order or a hop from its
    channel's order; the slot or route keeps it."""
    entries = [(order, i) for order in sched.proc_order.values()
               for i in range(len(order))]
    entries += [(hops, i) for hops in sched.link_order.values()
                for i in range(len(hops))]
    order, i = _pick(rng, entries)
    del order[i]


MUTATORS: Dict[str, Callable] = {
    validator.COVERAGE: _coverage,
    validator.DURATION: _duration,
    validator.PROC_OVERLAP: _processor_overlap,
    validator.HALF_DUPLEX_OVERLAP: _link_overlap("half"),
    validator.FULL_DUPLEX_OVERLAP: _link_overlap("full"),
    validator.ROUTE_ENDPOINTS: _route_endpoints,
    validator.CONTIGUITY: _contiguity,
    validator.HOP_DURATION: _hop_duration,
    validator.HOP_READINESS: _hop_readiness,
    validator.ARRIVAL: _arrival,
    validator.LOCAL_PRECEDENCE: _local_precedence,
    validator.ORPHAN_HOP: _orphan_hop,
    validator.ORDER_MEMBERSHIP: _order_membership,
}

#: the identity case: a route hop swapped for a value-equal twin, so the
#: link order holds a hop no route owns and the route a hop no order holds
STRAY_TWIN = "stray-twin"


def _stray_twin(sched, rng) -> None:
    route = _pick(rng, sorted((r for r in sched.routes.values() if r.hops),
                              key=lambda r: repr(r.edge)))
    k = rng.randrange(len(route.hops))
    twin = copy.copy(route.hops[k])
    assert twin == route.hops[k] and twin is not route.hops[k]
    route.hops[k] = twin


CASES = list(MUTATORS) + [STRAY_TWIN]
EXPECTED = {kind: {kind} for kind in MUTATORS}
EXPECTED[STRAY_TWIN] = {validator.ORPHAN_HOP, validator.ORDER_MEMBERSHIP}


def _detected(case: str, algorithm: str, topology: str,
              mode: LinkHeterogeneity) -> Tuple[bool, str]:
    """Corrupt a copy of the schedule with the case's mutator; True when
    the kinds reported are exactly the expected ones."""
    sched = _schedule(algorithm, topology, mode).copy()
    rng = random.Random(f"{case}/{algorithm}/{topology}/{mode.value}")
    mutate = _stray_twin if case == STRAY_TWIN else MUTATORS[case]
    try:
        mutate(sched, rng)
    except NoCandidate:
        return False, "no candidate"
    found = schedule_violations(sched)
    kinds = {v.kind for v in found}
    return kinds == EXPECTED[case], f"{sorted(kinds)}: {found[:3]}"


@functools.lru_cache(maxsize=None)
def _results() -> Dict[Tuple[str, str], List[Tuple[str, bool, str]]]:
    out: Dict[Tuple[str, str], List[Tuple[str, bool, str]]] = {}
    for case in CASES:
        for algorithm in ALGORITHMS:
            out[case, algorithm] = [
                (f"{topology}/{mode.value}",
                 *_detected(case, algorithm, topology, mode))
                for topology in TOPOLOGIES for mode in LINK_MODES]
    return out


def _table() -> str:
    results = _results()
    width = max(map(len, CASES))
    lines = [" " * width + "".join(f"{a:>10}" for a in ALGORITHMS)]
    for case in CASES:
        cells = []
        for algorithm in ALGORITHMS:
            flags = [ok for _, ok, _ in results[case, algorithm]]
            cells.append(f"{sum(flags)}/{len(flags)}".rjust(10))
        lines.append(case.ljust(width) + "".join(cells))
    return "\n".join(lines)


def test_kinds_are_closed():
    assert set(MUTATORS) == set(validator.KINDS)
    assert len(validator.KINDS) == 13


@pytest.mark.parametrize("case", CASES)
def test_each_kind_reported_alone(case):
    misses = [(algorithm, where, note)
              for algorithm in ALGORITHMS
              for where, ok, note in _results()[case, algorithm] if not ok]
    assert not misses, misses[:5]


def test_detection_table():
    table = _table()
    print("\nvalidator mutation suite: detected / schedules\n" + table)
    assert all(ok for rows in _results().values() for _, ok, _ in rows), table


def test_findings_compare_as_str():
    sched = _schedule("heft", "ring", LinkHeterogeneity.HOMOGENEOUS).copy()
    _duration(sched, random.Random(0))
    (finding,) = schedule_violations(sched)
    assert isinstance(finding, str) and finding == str(finding)
    assert finding.kind == validator.DURATION
