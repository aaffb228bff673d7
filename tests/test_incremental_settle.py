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
  be double-opened.
"""

from __future__ import annotations

import pytest

from repro.core.bsa import BSAOptions, schedule_bsa
from repro.core.migration import commit_migration, evaluate_migration
from repro.core.serialization import serial_injection
from repro.errors import CycleError, SchedulingError
from repro.experiments.config import Cell
from repro.experiments.runner import build_cell_system
from repro.schedule.io import schedule_to_json
from repro.schedule.settle import settle, settle_incremental
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
            settle_mod._settle_fast(dup)
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
        fast = settle_mod._settle_fast
        monkeypatch.setattr(settle_mod, "_settle_fast",
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
