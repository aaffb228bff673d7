"""Tests for the incremental settle engine and the undo-log rollback.

The cross-mode byte-identity of whole BSA runs lives in
``tests/test_hotpath_equivalence.py``; this file tests the machinery
directly:

* ``settle_incremental`` after each committed migration must leave the
  schedule exactly as a full Kahn pass would (times *and* occupant
  orders), including the dict insertion order the serializer exposes;
* ``ScheduleTxn.rollback`` must reverse any mix of structural mutations
  and recorded time writes bit-for-bit;
* the engine's guard rails: zero-cost-edge graphs take the full pass,
  contradictory orders still raise ``CycleError``, transactions cannot
  be double-opened;
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


class TestIncrementalSettleEquivalence:
    @pytest.mark.parametrize(
        "cell",
        [
            Cell("regular", "gauss", 40, 1.0, "ring", "bsa",
                 n_procs=8, graph_seed=3, system_seed=3),
            Cell("random", "random", 30, 0.1, "hypercube", "bsa",
                 n_procs=8, graph_seed=7, system_seed=7),
            Cell("random", "random", 30, 1.0, "torus", "bsa", n_procs=9,
                 graph_seed=13, system_seed=13, duplex="full",
                 bandwidth_skew=8.0),
        ],
        ids=["ring", "hypercube", "torus-full-skew"],
    )
    def test_every_commit_matches_full_settle(self, cell, incremental_mode,
                                              monkeypatch):
        """After *each* incremental settle during a BSA run, a full Kahn
        pass over a deep copy must produce identical times — the
        strongest per-step check the differential harness allows."""
        import repro.core.migration as mig
        from repro.schedule import settle as settle_pkg  # noqa: F401
        import importlib

        settle_mod = importlib.import_module("repro.schedule.settle")
        orig = settle_mod.settle_incremental
        checked = {"n": 0}

        def checking(schedule, seed_tasks, seed_hops):
            out = orig(schedule, seed_tasks, seed_hops)
            dup = schedule.copy()
            settle_mod.kahn_settle(dup)
            for t, slot in schedule.slots.items():
                d = dup.slots[t]
                assert (slot.start, slot.finish) == (d.start, d.finish), t
            for e, r in schedule.routes.items():
                for h, dh in zip(r.hops, dup.routes[e].hops):
                    assert (h.start, h.finish) == (dh.start, dh.finish), e
            checked["n"] += 1
            return out

        monkeypatch.setattr(mig, "settle_incremental", checking)
        sched = schedule_bsa(build_cell_system(cell), BSAOptions())
        validate_schedule(sched)
        assert checked["n"] > 0  # the incremental path actually ran

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
        cycle-growth argument needs positive hop durations) and still
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
        # simulate a settle write-back recorded in the undo log
        slot = sched.slots["T2"]
        txn.record_time(slot, slot.start, slot.finish)
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
                                              "long-cycle-pop-budget"])
    def test_contradiction_leaves_no_stale_timeline(self, n,
                                                    incremental_mode,
                                                    monkeypatch):
        """The incremental settle rewrites cached timelines as it goes
        and refreshes their running maximum at the end; when a cycle
        cuts it short, no cached timeline may disagree with its order.
        A chain t0 -> ... -> t(n-1) on one processor ordered
        [t(n-1), t0, ..., t(n-2)] closes one cycle through every task:
        a short one is caught by the regrow check, a long one exhausts
        the pop budget first and falls back to the full pass."""
        import importlib

        from repro.graph.model import TaskGraph
        from repro.network.system import HeterogeneousSystem
        from repro.network.topology import chain
        from repro.schedule.schedule import Schedule
        from repro.util.intervals import Timeline

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
        before = list(s.proc_timeline(0).finishes)
        full_passes = []
        fast = settle_mod.kahn_settle
        monkeypatch.setattr(settle_mod, "kahn_settle",
                            lambda sched: full_passes.append(1) or fast(sched))
        with pytest.raises(CycleError):
            settle_incremental(s, set(s.slots), [])
        assert len(full_passes) == (n > 4)
        after = [s.slots[t].finish for t in s.proc_order[0]]
        assert after != before  # times were written before the cycle
        tl = s.proc_timeline(0)
        fresh = Timeline.from_items([s.slots[t] for t in s.proc_order[0]])
        assert (tl.starts, tl.finishes, tl._maxf) == (
            fresh.starts, fresh.finishes, fresh._maxf)


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
