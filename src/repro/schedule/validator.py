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
full picture. ``validate_schedule`` raises
:class:`repro.errors.InvalidScheduleError` when anything is wrong.

Tolerances come from :mod:`repro.util.tolerance` — the *same* constants
the engine schedules with, so nothing can pass the engine's overlap
check yet fail validation (or vice versa) in a tolerance gap.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import InvalidScheduleError
from repro.schedule.schedule import Schedule
from repro.util.intervals import intervals_overlap
from repro.util.tolerance import TOL as _TOL


def schedule_violations(schedule: Schedule) -> List[str]:
    """Return a list of human-readable violations (empty == valid)."""
    v: List[str] = []
    system = schedule.system
    graph = system.graph
    topo = system.topology
    # Membership sets built here from the orders themselves — never from
    # the schedule's cached position maps, so the trust anchor reads no
    # engine cache. Hops are matched by identity: MessageHop compares by
    # value, and a value-equal copy in a link order is not the route's hop.
    in_proc_order = {p: set(order) for p, order in schedule.proc_order.items()}
    in_link_order = {
        ch: {id(h) for h in hops} for ch, hops in schedule.link_order.items()
    }

    # 1. task coverage & durations ------------------------------------------
    for task in graph.tasks():
        if task not in schedule.slots:
            v.append(f"task {task!r} is not scheduled")
    for task, slot in schedule.slots.items():
        if not graph.has_task(task):
            v.append(f"scheduled task {task!r} is not in the graph")
            continue
        if not (0 <= slot.proc < topo.n_procs):
            v.append(f"task {task!r} on invalid processor {slot.proc}")
            continue
        # written so a NaN time fails (every comparison with NaN is
        # false); an infinite one fails the duration check
        if not slot.start >= -_TOL:
            v.append(f"task {task!r} starts before time 0 ({slot.start})")
        expected = system.exec_cost(task, slot.proc)
        if not abs(slot.duration - expected) <= _TOL:
            v.append(
                f"task {task!r} duration {slot.duration:.6f} != "
                f"exec cost {expected:.6f} on P{slot.proc}"
            )
        if task not in in_proc_order[slot.proc]:
            v.append(f"task {task!r} missing from proc_order[{slot.proc}]")

    for p, order in schedule.proc_order.items():
        for t in order:
            if t not in schedule.slots or schedule.slots[t].proc != p:
                v.append(f"proc_order[{p}] lists {t!r} which is not slotted there")

    # 2. processor exclusivity ----------------------------------------------
    for p, order in schedule.proc_order.items():
        slots = sorted((schedule.slots[t] for t in order), key=lambda s: s.start)
        for a, b in zip(slots, slots[1:]):
            if intervals_overlap(a.start, a.finish, b.start, b.finish):
                v.append(
                    f"P{p}: tasks {a.task!r} [{a.start:.3f},{a.finish:.3f}) and "
                    f"{b.task!r} [{b.start:.3f},{b.finish:.3f}) overlap"
                )

    # 3. link exclusivity under the duplex model ------------------------------
    # Group hops by *undirected* link and apply the topology's duplex rule
    # (not the container layout): half-duplex forbids any overlap on the
    # link, full-duplex forbids overlap only within one direction.
    by_link: Dict[Tuple[int, int], List] = {}
    for ch, hops in schedule.link_order.items():
        for h in hops:
            if not topo.has_link(h.src, h.dst):
                v.append(f"channel {ch}: hop {h.edge} uses missing link ({h.src},{h.dst})")
                continue
            if topo.channel(h.src, h.dst) != ch:
                v.append(
                    f"channel {ch}: hop {h.edge} {h.src}->{h.dst} belongs to "
                    f"channel {topo.channel(h.src, h.dst)}"
                )
            by_link.setdefault(h.link, []).append(h)
    for l, hops in sorted(by_link.items()):
        half = topo.duplex(*l) == "half"
        groups = [hops] if half else [
            [h for h in hops if (h.src, h.dst) == l],
            [h for h in hops if (h.src, h.dst) != l],
        ]
        for group in groups:
            shops = sorted(group, key=lambda h: h.start)
            for a, b in zip(shops, shops[1:]):
                if intervals_overlap(a.start, a.finish, b.start, b.finish):
                    dir_note = "" if half else f" (direction {a.src}->{a.dst})"
                    v.append(
                        f"link {l}{dir_note}: hops {a.edge}[{a.start:.3f},{a.finish:.3f}) and "
                        f"{b.edge}[{b.start:.3f},{b.finish:.3f}) overlap"
                    )

    # 4 & 5. message routing and precedence ----------------------------------
    for u, uv in graph.edges():
        edge = (u, uv)
        if u not in schedule.slots or uv not in schedule.slots:
            continue
        su, sv = schedule.slots[u], schedule.slots[uv]
        route = schedule.routes.get(edge)
        if su.proc == sv.proc:
            if route is not None and not route.is_local:
                v.append(f"message {edge} routed although both tasks on P{su.proc}")
            if sv.start < su.finish - _TOL:
                v.append(
                    f"precedence violated: {uv!r} starts {sv.start:.3f} < "
                    f"{u!r} finishes {su.finish:.3f} (same P{su.proc})"
                )
            continue
        # inter-processor: route must exist and be coherent
        if route is None or route.is_local:
            v.append(f"message {edge} between P{su.proc} and P{sv.proc} has no route")
            continue
        procs = route.procs
        if procs[0] != su.proc:
            v.append(f"message {edge} departs from P{procs[0]}, producer on P{su.proc}")
        if procs[-1] != sv.proc:
            v.append(f"message {edge} arrives at P{procs[-1]}, consumer on P{sv.proc}")
        if not route.check_contiguous():
            v.append(f"message {edge} route is not a contiguous path: {procs}")
        prev_finish = su.finish
        for k, hop in enumerate(route.hops):
            if not topo.has_link(hop.src, hop.dst):
                v.append(f"message {edge} hop {k} uses missing link ({hop.src},{hop.dst})")
                continue
            expected = system.comm_cost(edge, hop.link)
            if not abs(hop.duration - expected) <= _TOL:
                v.append(
                    f"message {edge} hop {k} duration {hop.duration:.6f} != "
                    f"comm cost {expected:.6f} on link {hop.link}"
                )
            if hop.start < prev_finish - _TOL:
                v.append(
                    f"message {edge} hop {k} starts {hop.start:.3f} before "
                    f"its data is ready at {prev_finish:.3f}"
                )
            ch = topo.channel(hop.src, hop.dst)
            if id(hop) not in in_link_order[ch]:
                v.append(f"message {edge} hop {k} missing from link_order[{ch}]")
            prev_finish = hop.finish
        if sv.start < route.arrival - _TOL:
            v.append(
                f"task {uv!r} starts {sv.start:.3f} before message {edge} "
                f"arrives at {route.arrival:.3f}"
            )

    # 6. no orphan hops --------------------------------------------------------
    route_hops = {id(h) for r in schedule.routes.values() for h in r.hops}
    for l, hops in schedule.link_order.items():
        for h in hops:
            if id(h) not in route_hops:
                v.append(f"link {l} holds orphan hop for {h.edge}")

    return v


def validate_schedule(schedule: Schedule) -> None:
    """Raise :class:`InvalidScheduleError` unless the schedule is valid."""
    violations = schedule_violations(schedule)
    if violations:
        raise InvalidScheduleError(violations)
