"""Tests for the incremental settle engine and the undo-log rollback.

The cross-mode byte-identity of whole BSA runs lives in
``tests/test_hotpath_equivalence.py``; this file tests the machinery
directly:

* ``settle_incremental`` after each committed migration must leave the
  schedule exactly as a full Kahn pass would (times *and* occupant
  orders), including the dict insertion order the serializer exposes,
  for every node outside the settle's hold;
* BSA's first phase holds the pivot's unexamined tasks: at every
  examination every node outside that hold has the full pass's times,
  under every link model and BSA option;
* ``ScheduleTxn.rollback`` must reverse any mix of structural mutations
  and recorded time writes bit-for-bit;
* the engine's guard rails: zero-cost-edge graphs take the full pass,
  contradictory orders still raise ``CycleError``, transactions cannot
  be double-opened;
* the cone settle decides a cycle before it writes anything: it raises
  exactly when a full pass would, and leaves every time, cached
  timeline and position map as it found them;
* the one Kahn pass (``kahn_settle``) raises ``CycleError`` before it
  writes anything and records every time it changes in the open
  transaction;
* a full pass leaves every order sorted by ``(start, finish)``, so it
  keeps the position maps it found.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bsa import BSAOptions, schedule_bsa
from repro.core.migration import commit_migration, evaluate_migration
from repro.core.serialization import serial_injection
from repro.errors import CycleError, SchedulingError
from repro.experiments.config import Cell
from repro.experiments.runner import build_cell_system
from repro.schedule.io import schedule_to_json
from repro.schedule.settle import kahn_settle, settle, settle_incremental
from repro.schedule.validator import validate_schedule
from repro.util.intervals import hotpath_mode, set_hotpath_mode


@pytest.fixture
def incremental_mode():
    initial = hotpath_mode()
    set_hotpath_mode("incremental")
    yield
    set_hotpath_mode(initial)


def _state_fingerprint(sched):
    """Every observable bit of schedule state, including dict order."""
    return (
        [(t, s.proc, s.start, s.finish) for t, s in sched.slots.items()],
        {p: list(o) for p, o in sched.proc_order.items()},
        [
            (e, [(h.src, h.dst, h.start, h.finish) for h in r.hops])
            for e, r in sched.routes.items()
        ],
        {
            ch: [(h.edge, h.src, h.dst, h.start, h.finish) for h in hops]
            for ch, hops in sched.link_order.items()
        },
    )


def _assert_exact(sched, tasks, hops=()) -> None:
    """``tasks`` and ``hops`` have the times a full Kahn pass over a
    copy gives them, bit for bit."""
    dup = sched.copy()
    kahn_settle(dup)
    for t in tasks:
        s, d = sched.slots[t], dup.slots[t]
        assert (s.start, s.finish) == (d.start, d.finish), t
    for h in hops:
        d = dup.routes[h.edge].hops[h._rpos]
        assert (h.start, h.finish) == (d.start, d.finish), h.edge


def _assert_exact_outside(sched, hold) -> None:
    """Every task outside ``hold`` and every hop is exact."""
    _assert_exact(sched, [t for t in sched.slots if t not in hold],
                  [h for r in sched.routes.values() for h in r.hops])


_EQUIVALENCE_CELLS = [
    pytest.param(Cell("regular", "gauss", 40, 1.0, "ring", "bsa",
                      n_procs=8, graph_seed=3, system_seed=3), id="ring"),
    pytest.param(Cell("random", "random", 30, 0.1, "hypercube", "bsa",
                      n_procs=8, graph_seed=7, system_seed=7),
                 id="hypercube"),
    pytest.param(Cell("random", "random", 30, 1.0, "torus", "bsa",
                      n_procs=9, graph_seed=13, system_seed=13,
                      duplex="full", bandwidth_skew=8.0),
                 id="torus-full-skew"),
]


class TestIncrementalSettleEquivalence:
    @pytest.mark.parametrize("cell", _EQUIVALENCE_CELLS)
    def test_every_commit_matches_full_settle(self, cell, incremental_mode,
                                              monkeypatch):
        """After *each* incremental settle during a BSA run (commit and
        first-phase per-task settles alike), a full Kahn pass over a
        deep copy must produce identical times for every node outside
        the settle's hold, and at each examination for the examined
        task — the strongest per-step check the differential harness
        allows."""
        import repro.core.migration as mig
        from repro.core.bsa import BSAScheduler

        orig = mig.settle_incremental
        should_examine = BSAScheduler._should_examine
        checked = {"n": 0, "held": 0, "examined": 0}

        def checking(schedule, seed_tasks, seed_hops, hold=frozenset()):
            out = orig(schedule, seed_tasks, seed_hops, hold)
            _assert_exact_outside(schedule, hold)
            checked["n"] += 1
            checked["held"] += bool(hold)
            return out

        def examining(self, sched, task, pivot):
            _assert_exact(sched, [task])
            checked["examined"] += 1
            return should_examine(self, sched, task, pivot)

        monkeypatch.setattr(mig, "settle_incremental", checking)
        monkeypatch.setattr(BSAScheduler, "_should_examine", examining)
        sched = schedule_bsa(build_cell_system(cell), BSAOptions())
        validate_schedule(sched)
        assert checked["n"] > 0  # the incremental path actually ran
        assert checked["held"] > 0  # and the first phase held tasks
        assert checked["examined"] > 0

    def test_direct_commit_sequence_identical(self, paper_system,
                                              incremental_mode):
        """Hand-driven migrations (outside BSA) settle incrementally via
        the anonymous transaction and stay byte-identical to the legacy
        reference mode."""
        blobs = {}
        for mode in ("legacy", "incremental"):
            set_hotpath_mode(mode)
            _, sched = serial_injection(paper_system)
            for task, dst in [("T5", 3), ("T1", 2), ("T5", 0)]:
                plan = evaluate_migration(sched, task, dst)
                commit_migration(sched, plan)
            validate_schedule(sched)
            blobs[mode] = schedule_to_json(sched)
        assert blobs["legacy"] == blobs["incremental"]

    def test_zero_cost_edge_graph_takes_full_pass(self, incremental_mode):
        """Graphs with a 0-cost message fall back to the full pass (the
        cycle check's argument needs positive hop durations) and still
        schedule identically across modes."""
        from repro.graph.model import TaskGraph
        from repro.network.system import HeterogeneousSystem
        from repro.network.topology import ring

        def build():
            g = TaskGraph(name="zerocomm")
            for t in "abcd":
                g.add_task(t, 10.0)
            g.add_edge("a", "b", 0.0)
            g.add_edge("a", "c", 5.0)
            g.add_edge("b", "d", 0.0)
            g.add_edge("c", "d", 5.0)
            return HeterogeneousSystem.sample(g, ring(4), het_range=(1, 2), seed=1)

        assert build().graph.has_zero_cost_edge()
        blobs = {}
        for mode in ("legacy", "incremental"):
            set_hotpath_mode(mode)
            sched = schedule_bsa(build(), BSAOptions())
            validate_schedule(sched)
            blobs[mode] = schedule_to_json(sched)
        assert blobs["legacy"] == blobs["incremental"]


class TestUndoLogRollback:
    def test_rollback_restores_everything(self, paper_system):
        """A transaction spanning every mutator kind rolls back to a
        bit-identical state — including dict insertion order."""
        _, sched = serial_injection(paper_system)
        plan = evaluate_migration(sched, "T5", 3)
        commit_migration(sched, plan)  # give the schedule some routes
        before = _state_fingerprint(sched)

        txn = sched.begin_txn()
        sched.remove_task("T9")
        sched.place_task("T9", 1, start=123.0)
        edge = next(e for e, r in sched.routes.items() if not r.is_local)
        path = sched.routes[edge].procs
        sched.clear_route(edge)
        sched.set_route(edge, path, hop_starts=[0.0] * (len(path) - 1))
        sched.mark_local(("T1", "T9"))
        # simulate a Kahn pass's write-back recorded in the undo log
        slot = sched.slots["T2"]
        txn.times.append((slot, slot.start, slot.finish))
        slot.start, slot.finish = -1.0, -0.5

        assert _state_fingerprint(sched) != before
        txn.rollback()
        assert _state_fingerprint(sched) == before
        assert sched.txn is None
        validate_schedule(sched)

    def test_rollback_restores_dict_insertion_order(self, paper_system):
        _, sched = serial_injection(paper_system)
        keys_before = (list(sched.slots), list(sched.routes))
        txn = sched.begin_txn()
        sched.remove_task("T3")
        sched.place_task("T3", 2, start=0.0)
        txn.rollback()
        assert (list(sched.slots), list(sched.routes)) == keys_before

    def test_double_begin_rejected(self, paper_system):
        _, sched = serial_injection(paper_system)
        sched.begin_txn()
        with pytest.raises(SchedulingError):
            sched.begin_txn()
        sched.commit_txn()
        with pytest.raises(SchedulingError):
            sched.commit_txn()

    def test_commit_keeps_mutations(self, paper_system):
        _, sched = serial_injection(paper_system)
        sched.begin_txn()
        sched.remove_task("T9")
        sched.place_task("T9", 1, start=50.0)
        sched.commit_txn()
        assert sched.proc_of("T9") == 1


class TestSettleIncrementalDirect:
    def test_empty_seeds_is_noop(self, paper_system):
        _, sched = serial_injection(paper_system)
        before = _state_fingerprint(sched)
        settle_incremental(sched, set(), [])
        assert _state_fingerprint(sched) == before

    def test_detects_contradiction(self, homogeneous_system,
                                   incremental_mode):
        """Contradictory proc orders raise CycleError from the
        incremental path exactly like the full pass."""
        from repro.schedule.schedule import Schedule

        s = Schedule(homogeneous_system)
        # place the chain a -> b -> d backwards on one processor
        for t, pos in [("d", 0), ("b", 1), ("a", 2)]:
            s.place_task(t, 0, start=float(pos), position=pos)
        s.place_task("c", 1, start=0.0)
        for e in homogeneous_system.graph.edges():
            s.mark_local(e)
        with pytest.raises(CycleError):
            settle(s)
        with pytest.raises(CycleError):
            settle_incremental(s, set(s.slots), [])

    @pytest.mark.parametrize("n", [4, 100], ids=["short-cycle",
                                              "long-cycle"])
    def test_contradiction_leaves_no_stale_timeline(self, n,
                                                    incremental_mode,
                                                    monkeypatch):
        """The cycle check runs before the worklist: a contradictory
        settle raises CycleError naming the cycle, never calls the full
        pass, and leaves every time, cached timeline and position map as
        it found them. A chain t0 -> ... -> t(n-1) on one processor
        ordered [t(n-1), t0, ..., t(n-2)] closes one cycle through every
        task. The timeline and position map are built first, so the
        caches must come back whole (a map the check builds itself is
        exact for the unchanged order)."""
        import importlib

        from repro.graph.model import TaskGraph
        from repro.network.system import HeterogeneousSystem
        from repro.network.topology import chain
        from repro.schedule.schedule import Schedule

        settle_mod = importlib.import_module("repro.schedule.settle")

        g = TaskGraph("loop")
        tasks = [f"t{k}" for k in range(n)]
        for t in tasks:
            g.add_task(t, 2.0)
        for u, v in zip(tasks, tasks[1:]):
            g.add_edge(u, v, 1.0)
        system = HeterogeneousSystem.from_exec_table(
            g, chain(2), {t: (2.0, 2.0) for t in tasks})
        s = Schedule(system)
        for pos, t in enumerate([tasks[-1]] + tasks[:-1]):
            s.place_task(t, 0, start=2.0 * pos, position=pos)
        tl, positions = s.proc_timeline(0), s.proc_positions(0)

        def state():
            return (_state_fingerprint(s),
                    [dict(c) for c in (s._proc_tl, s._link_tl,
                                       s._proc_pos, s._link_pos)],
                    [list(a) for a in (tl.starts, tl.finishes, tl._maxf)],
                    dict(positions))

        before = state()
        full_passes = []
        monkeypatch.setattr(settle_mod, "kahn_settle",
                            lambda *args: full_passes.append(args))
        with pytest.raises(CycleError, match=(
                f"cycle: task '{tasks[-1]}'@P0 -> task 't0'@P0 -> ")):
            settle_incremental(s, set(s.slots), [])
        assert full_passes == []
        assert state() == before
        assert s._proc_tl[0] is tl and s._proc_pos[0] is positions

    def test_hop_only_cycle_raises_before_writing(self, incremental_mode):
        """A cycle of hops alone: messages u -> v along P0 -> P1 -> P2
        and x -> y back along P2 -> P1 -> P0 cross on both half-duplex
        links in contradictory orders (x -> y's second hop first on
        (0, 1), u -> v's second hop first on (1, 2)). The only seed that
        starts before a predecessor finishes is a hop, so the check must
        start its DFS from hop seeds too."""
        from repro.graph.model import TaskGraph
        from repro.network.system import HeterogeneousSystem
        from repro.network.topology import chain
        from repro.schedule.schedule import Schedule

        g = TaskGraph("crossing")
        for t in "uvxy":
            g.add_task(t, 1.0)
        g.add_edge("u", "v", 1.0)
        g.add_edge("x", "y", 1.0)
        s = Schedule(HeterogeneousSystem.from_exec_table(
            g, chain(3), {t: (1.0, 1.0, 1.0) for t in "uvxy"}))
        for t, p, start in (("u", 0, 0.0), ("y", 0, 20.0),
                            ("x", 2, 0.0), ("v", 2, 20.0)):
            s.place_task(t, p, start=start)
        s.set_route(("u", "v"), [0, 1, 2], hop_starts=[10.0, 11.0])
        s.set_route(("x", "y"), [2, 1, 0], hop_starts=[12.0, 5.0])
        before = _state_fingerprint(s)
        hops = [h for r in s.routes.values() for h in r.hops]
        with pytest.raises(CycleError, match=(
                r"cycle: hop \('x', 'y'\) 1->0 -> hop \('u', 'v'\) 0->1 -> ")):
            settle_incremental(s, set(s.slots), hops)
        assert _state_fingerprint(s) == before
        with pytest.raises(CycleError):
            kahn_settle(s)

    def test_cycle_verdict_matches_full_pass(self, incremental_mode,
                                             monkeypatch):
        """During whole BSA runs (the pinned n=40 cell, which rejects two
        commits, and the equivalence cells), every cone settle raises
        CycleError exactly when a full Kahn pass over a copy of the same
        schedule does, and a settle that raises leaves the schedule as it
        found it."""
        import repro.core.migration as mig

        orig = mig.settle_incremental
        verdicts = []

        def checking(schedule, seed_tasks, seed_hops, hold=frozenset()):
            try:
                kahn_settle(schedule.copy())
                cyclic = False
            except CycleError:
                cyclic = True
            before = _state_fingerprint(schedule)
            try:
                out = orig(schedule, seed_tasks, seed_hops, hold)
            except CycleError:
                assert _state_fingerprint(schedule) == before
                verdicts.append((cyclic, True))
                raise
            verdicts.append((cyclic, False))
            return out

        monkeypatch.setattr(mig, "settle_incremental", checking)
        pinned = Cell("random", "random", 40, 1.0, "ring", "bsa",
                      graph_seed=0, system_seed=0)
        for cell in [pinned, *(p.values[0] for p in _EQUIVALENCE_CELLS)]:
            validate_schedule(schedule_bsa(build_cell_system(cell),
                                           BSAOptions()))
        assert all(cyclic == raised for cyclic, raised in verdicts)
        assert any(raised for _, raised in verdicts)


class TestKahnSettle:
    @staticmethod
    def _contradictory(system):
        """Place the chain a -> b -> d backwards on P0 inside an open
        transaction; returns the schedule and the transaction."""
        from repro.schedule.schedule import Schedule

        s = Schedule(system)
        txn = s.begin_txn()
        for t, pos in [("d", 0), ("b", 1), ("a", 2)]:
            s.place_task(t, 0, start=float(pos), position=pos)
        s.place_task("c", 1, start=0.0)
        for e in system.graph.edges():
            s.mark_local(e)
        return s, txn

    @pytest.mark.parametrize("frontier", [None, 0.5],
                             ids=["full", "tail"])
    def test_contradiction_raises_before_any_write(self, homogeneous_system,
                                                   frontier):
        """A contradictory full pass, or a contradictory tail (d frozen
        at t=0, b and a still ordered against their edge), raises
        CycleError with every time and the undo log untouched."""
        s, txn = self._contradictory(homogeneous_system)
        before = _state_fingerprint(s)
        log = (list(txn.ops), list(txn.times))
        with pytest.raises(CycleError):
            kahn_settle(s, frontier)
        assert _state_fingerprint(s) == before
        assert (txn.ops, txn.times) == log

    def test_full_pass_in_open_txn_rolls_back(self, incremental_mode):
        """Every time the full pass writes is undo-logged first: shift a
        settled BSA schedule's times (orders stay sorted), settle inside
        a transaction, roll back, and the shifted state is back bit for
        bit."""
        cell = Cell("random", "random", 30, 1.0, "ring", "bsa",
                    n_procs=4, graph_seed=5, system_seed=5)
        sched = schedule_bsa(build_cell_system(cell), BSAOptions())
        settled = _state_fingerprint(sched)
        nodes = list(sched.slots.values()) + [
            h for r in sched.routes.values() for h in r.hops]
        for obj in nodes:
            obj.start += 7.0
            obj.finish += 7.0
        shifted = _state_fingerprint(sched)

        txn = sched.begin_txn()
        kahn_settle(sched)
        assert _state_fingerprint(sched) == settled
        assert len(txn.times) == len(nodes)
        txn.rollback()
        assert _state_fingerprint(sched) == shifted

    def test_full_pass_keeps_position_maps(self, incremental_mode):
        """A full pass reorders nothing, so the position map of every
        processor and channel it found survives it, still exact."""
        cell = Cell("random", "random", 30, 1.0, "ring", "bsa",
                    n_procs=4, graph_seed=5, system_seed=5)
        sched = schedule_bsa(build_cell_system(cell), BSAOptions())
        maps = {p: sched.proc_positions(p) for p in sched.proc_order}
        maps.update((ch, sched.link_positions(ch)) for ch in sched.link_order)
        kahn_settle(sched)
        assert {**sched._proc_pos, **sched._link_pos} == maps
        for p, order in sched.proc_order.items():
            assert sched._proc_pos[p] is maps[p]
            assert maps[p] == {t: i for i, t in enumerate(order)}
        for ch, hops in sched.link_order.items():
            assert sched._link_pos[ch] is maps[ch]
            assert maps[ch] == {id(h): i for i, h in enumerate(hops)}


def _assert_orders_sorted(sched) -> None:
    for proc, order in sched.proc_order.items():
        keys = [(sched.slots[t].start, sched.slots[t].finish) for t in order]
        assert keys == sorted(keys), f"processor {proc}"
    for ch, hops in sched.link_order.items():
        keys = [(h.start, h.finish) for h in hops]
        assert keys == sorted(keys), f"channel {ch}"


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    data=st.data(),
    topology=st.sampled_from(["ring", "hypercube", "chain"]),
    link_het=st.booleans(),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_full_pass_leaves_orders_sorted(n, data, topology, link_het, seed):
    """Orders consistent with a topological order (tasks appended at
    explicit positions in index order, every edge going up in index,
    hops appended without starts) settle to times under which every
    order is already sorted, even with many zero-duration hops tied at
    one instant."""
    from repro.graph.model import TaskGraph
    from repro.network.routing import shortest_path
    from repro.network.system import HeterogeneousSystem
    from repro.network.topology import chain, hypercube, ring
    from repro.schedule.schedule import Schedule

    g = TaskGraph("orders")
    for t in range(n):
        g.add_task(t, data.draw(st.floats(0.5, 50.0)))
    for v in range(1, n):
        for u in range(v):
            if data.draw(st.booleans()):
                cost = data.draw(st.sampled_from([0.0, 0.0, 1.0, 7.5]))
                g.add_edge(u, v, cost)
    net = {"ring": ring(4), "hypercube": hypercube(8), "chain": chain(3)}[topology]
    system = HeterogeneousSystem.sample(
        g, net, het_range=(1.0, 5.0),
        link_het_range=(1.0, 3.0) if link_het else None, seed=seed)
    sched = Schedule(system)
    procs = data.draw(st.lists(st.integers(0, net.n_procs - 1),
                               min_size=n, max_size=n))
    for t in range(n):
        order = sched.proc_order[procs[t]]
        sched.place_task(t, procs[t], start=0.0, position=len(order))
    for u, v in sorted(g.edges()):
        if procs[u] == procs[v]:
            sched.mark_local((u, v))
        else:
            sched.set_route((u, v), shortest_path(net, procs[u], procs[v]))
    kahn_settle(sched)
    _assert_orders_sorted(sched)


# ----------------------------------------------------------------------
# BSA's first phase holds the pivot's unexamined tasks
# ----------------------------------------------------------------------
HOLD_LINK_MODELS = ("uniform", "full_duplex", "bandwidth_skew", "fat_tree",
                    "per_link")

HOLD_OPTIONS = {
    "default": BSAOptions(),
    "st_gt_drt": BSAOptions(migration_trigger="st_gt_drt"),
    "append": BSAOptions(insertion=False),
    "novip": BSAOptions(vip_follow=False),
    "neighbors-incremental": BSAOptions(migration_scope="neighbors",
                                        route_mode="incremental"),
}


def _hold_system(n, seed, gran, topo, link_model):
    from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
    from repro.network.topology import (
        apply_link_model,
        fat_tree,
        hypercube,
        random_topology,
        ring,
    )
    from repro.workloads.granularity import apply_granularity
    from repro.workloads.random_graphs import random_layered_graph

    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    if link_model == "fat_tree":
        topology = fat_tree(8)
    else:
        topology = {"ring": ring(6), "hypercube": hypercube(8),
                    "random": random_topology(8, 2, 4, seed=seed)}[topo]
    if link_model == "full_duplex":
        topology = apply_link_model(topology, duplex="full")
    elif link_model == "bandwidth_skew":
        topology = apply_link_model(topology, bandwidth_skew=4.0, seed=seed)
    system = HeterogeneousSystem.sample(graph, topology, het_range=(1, 10),
                                        seed=seed)
    if link_model == "per_link":
        system = HeterogeneousSystem(
            graph, topology,
            {t: system.exec_cost_row(t) for t in graph.tasks()},
            link_mode=LinkHeterogeneity.PER_LINK,
            per_link_factors={lid: 1.0 + 0.5 * (i % 4)
                              for i, lid in enumerate(topology.links)},
        )
    return system


def _hold_probe(system, options):
    """BSA that checks, at every examination, every node outside the
    hold the contract allows against a full Kahn pass over a copy. The
    first phase (sweep 0 on the first pivot) may hold the pivot's tasks
    after the examined one; every later phase holds nothing."""
    from repro.core.bsa import BSAScheduler

    class HoldProbe(BSAScheduler):
        phases = 0
        checks = 0

        def _run_phase(self, sched, pivot):
            self.phases += 1
            super()._run_phase(sched, pivot)

        def _should_examine(self, sched, task, pivot):
            held = ()
            if self.phases == 1:
                order = sched.proc_order[pivot]
                held = set(order[order.index(task) + 1:])
            _assert_exact_outside(sched, held)
            self.checks += 1
            return super()._should_examine(sched, task, pivot)

    return HoldProbe(system, options)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 5_000),
       gran=st.sampled_from([0.1, 1.0, 10.0]),
       topo=st.sampled_from(["ring", "hypercube", "random"]),
       link_model=st.sampled_from(HOLD_LINK_MODELS),
       options=st.sampled_from(sorted(HOLD_OPTIONS)))
def test_first_phase_hold_is_exact(n, seed, gran, topo, link_model, options):
    """At every examination, every node outside the hold has the times a
    full Kahn pass gives it, under every BSA option the hold must
    survive, and the run ends with the schedule the legacy oracle
    produces."""
    blobs = {}
    before = hotpath_mode()
    try:
        for mode in ("legacy", "incremental"):
            set_hotpath_mode(mode)
            probe = _hold_probe(_hold_system(n, seed, gran, topo, link_model),
                                HOLD_OPTIONS[options])
            sched = probe.run()
            assert probe.checks > 0
            blobs[mode] = schedule_to_json(sched)
    finally:
        set_hotpath_mode(before)
    assert blobs["legacy"] == blobs["incremental"]
