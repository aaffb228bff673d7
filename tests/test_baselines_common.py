"""Tests for the shared list-scheduler scaffolding."""

from collections import defaultdict

import pytest

from repro import HeterogeneousSystem, TaskGraph, chain, ring
from repro.baselines.common import ListScheduleBuilder
from repro.errors import SchedulingError
from repro.experiments.config import Cell
from repro.experiments.runner import _SCHEDULERS, build_cell_system
from repro.schedule.linkplan import (
    committed_arrival_bounds,
    one_hop_arrival_bounds,
)
from repro.schedule.validator import schedule_violations
from repro.util.intervals import hotpath_mode, set_hotpath_mode
from tests.test_hotpath_equivalence import LIST_SCREEN_CELLS


@pytest.fixture
def builder(chain3):
    table = {t: [chain3.cost(t)] * 3 for t in chain3.tasks()}
    system = HeterogeneousSystem.from_exec_table(chain3, ring(3), table)
    return ListScheduleBuilder(system, algorithm="test")


class TestPlanMessages:
    def test_entry_task_no_messages(self, builder):
        da, plans = builder.plan_messages("x", 0)
        assert da == 0.0 and plans == []

    def test_unscheduled_predecessor_rejected(self, builder):
        with pytest.raises(SchedulingError):
            builder.plan_messages("y", 0)

    def test_local_plan(self, builder):
        builder.commit("x", 0, 0.0, [])
        da, plans = builder.plan_messages("y", 0)
        assert da == pytest.approx(4.0)  # x finishes at 4
        assert plans[0].path is None

    def test_remote_plan_timing(self, builder):
        builder.commit("x", 0, 0.0, [])
        da, plans = builder.plan_messages("y", 1)
        # message x->y costs 3, departs at 4 over link (0,1)
        assert plans[0].path == [0, 1]
        assert plans[0].hop_starts == [pytest.approx(4.0)]
        assert da == pytest.approx(7.0)

    def test_planning_does_not_commit(self, builder):
        builder.commit("x", 0, 0.0, [])
        builder.plan_messages("y", 1)
        assert builder.sched.link_order[(0, 1)] == []

    def test_two_messages_share_tentative_load(self):
        """Two in-messages crossing the same link must not overlap in plan."""
        g = TaskGraph(name="join")
        g.add_task("p", 4.0)
        g.add_task("q", 4.0)
        g.add_task("j", 2.0)
        g.add_edge("p", "j", 10.0)
        g.add_edge("q", "j", 10.0)
        table = {t: [g.cost(t)] * 2 for t in g.tasks()}
        system = HeterogeneousSystem.from_exec_table(g, chain(2), table)
        b = ListScheduleBuilder(system, algorithm="test")
        b.commit("p", 0, 0.0, [])
        b.commit("q", 0, 4.0, [])
        da, plans = b.plan_messages("j", 1)
        spans = sorted(
            (p.hop_starts[0], p.hop_starts[0] + 10.0) for p in plans
        )
        assert spans[1][0] >= spans[0][1] - 1e-9  # serialized on the link
        assert da == pytest.approx(spans[1][1])


class TestBuilderPolicies:
    def test_proc_append_policy(self, builder):
        builder.commit("x", 0, 0.0, [])
        assert builder.proc_available(0) == pytest.approx(4.0)
        start = builder.earliest_start("y", 0, data_arrival=1.0)
        assert start == pytest.approx(4.0)  # append: after last task

    def test_proc_insertion_policy(self, chain3):
        table = {t: [chain3.cost(t)] * 3 for t in chain3.tasks()}
        system = HeterogeneousSystem.from_exec_table(chain3, ring(3), table)
        b = ListScheduleBuilder(system, algorithm="test", proc_insertion=True)
        # occupy [10, 16) so an earlier gap exists
        b.sched.place_task("y", 0, start=10.0)
        start = b.earliest_start("x", 0, data_arrival=0.0)
        assert start == 0.0  # fits in the gap before y

    def test_finish_marks_leftover_locals(self, builder):
        builder.commit("x", 0, 0.0, [])
        da, plans = builder.plan_messages("y", 0)
        builder.commit("y", 0, da, plans)
        da, plans = builder.plan_messages("z", 0)
        builder.commit("z", 0, da, plans)
        sched = builder.finish()
        assert schedule_violations(sched) == []
        assert all(r.is_local for r in sched.routes.values())


class TestEarliestFinishScreen:
    @pytest.mark.parametrize("cell", [
        Cell("regular", "gauss", 60, 1.0, "ring", "x", n_procs=16,
             graph_seed=3, system_seed=3),
        Cell("random", "random", 60, 10.0, "random", "x", n_procs=16,
             link_het=True, graph_seed=5, system_seed=5),
        Cell("random", "random", 60, 1.0, "torus", "x", n_procs=16,
             duplex="full", bandwidth_skew=4.0, graph_seed=7, system_seed=7),
    ], ids=["ring16", "random16-link-het", "torus-fd-skew"])
    def test_arrival_bounds_never_exceed_planned_arrival(self, cell):
        """The screen's soundness, step by step: before every placement
        the one-hop bound is at most the committed-load bound (every
        producer's whole trie walked, then a plain max), which is at
        most the exact planned arrival on every processor, bit for bit."""
        system = build_cell_system(cell)
        b = ListScheduleBuilder(system, algorithm="test",
                                proc_insertion=True)
        n = system.topology.n_procs
        for task in system.graph.topological_order():
            walk = [0.0] * n
            pred_info = []
            for k in system.graph.predecessors(task):
                src = b.sched.proc_of(k)
                pred_info.append((src, b.sched.slots[k].finish,
                                  system.graph.comm_cost(k, task)))
                kb = committed_arrival_bounds(b.sched, (k, task),
                                              b.routing.trie(src), {})
                walk = [max(w, x) for w, x in zip(walk, kb)]
            one_hop = one_hop_arrival_bounds(pred_info, n,
                                             system.uniform_hops)
            for proc in system.topology.processors:
                da, _ = b.plan_messages(task, proc)
                assert one_hop[proc] <= walk[proc] <= da
            b.place_earliest_finish(task)
        assert schedule_violations(b.finish()) == []

    def test_append_links_evaluate_every_candidate(self, builder):
        """The committed walk's soundness argument covers insertion
        only, so under the append link policy the argmin plans every
        processor."""
        b = ListScheduleBuilder(builder.system, algorithm="test",
                                link_insertion=False)
        for task in ("x", "y", "z"):
            b.place_earliest_finish(task)
        assert b.candidates_evaluated == 9
        assert b.candidates_pruned == 0


def _start_decreases(monkeypatch, algorithm, cell):
    """Times a (task, processor) pair's planned start dropped between
    two plans of it. The legacy oracle plans every ready pair at every
    step, so each pair's starts are recorded step by step."""
    starts = defaultdict(list)
    plan = ListScheduleBuilder.plan_messages

    def recording(self, task, proc):
        da, plans = plan(self, task, proc)
        starts[task, proc].append(max(da, self.proc_available(proc)))
        return da, plans

    monkeypatch.setattr(ListScheduleBuilder, "plan_messages", recording)
    before = hotpath_mode()
    set_hotpath_mode("legacy")
    try:
        _SCHEDULERS[algorithm](build_cell_system(cell))
    finally:
        set_hotpath_mode(before)
    assert starts
    return sum(b < a for s in starts.values() for a, b in zip(s, s[1:]))


class TestReadyPairQueue:
    @pytest.mark.parametrize("algorithm,cell", [
        (algorithm, cell)
        for algorithm in ("dls", "etf")
        for cell in LIST_SCREEN_CELLS
    ])
    def test_append_planned_start_never_decreases(self, monkeypatch,
                                                  algorithm, cell):
        """The lazy queue's invariant: with append links and processors
        a commit can only delay another pair's planned start, so a key
        from an earlier step is a lower bound on the current one."""
        assert _start_decreases(monkeypatch, algorithm,
                                LIST_SCREEN_CELLS[cell]) == 0

    def test_insertion_planned_start_can_decrease(self, monkeypatch):
        """Why dls-insertion keeps the rescan: a commit can push one
        message's tentative hop into a later gap, which frees an earlier
        gap for a later message of the same task, so the pair's start
        can drop."""
        assert _start_decreases(monkeypatch, "dls-insertion",
                                LIST_SCREEN_CELLS["link_het16"]) > 0

    def test_queue_counts_every_ready_pair(self):
        """evaluated + pruned is the ready pairs summed over steps, the
        count the oracle plans; the queue plans only some of them."""
        cell = LIST_SCREEN_CELLS["ring16"]
        counts = {}
        for mode in ("legacy", "incremental"):
            before = hotpath_mode()
            set_hotpath_mode(mode)
            try:
                system = build_cell_system(cell)
                b = ListScheduleBuilder(system, algorithm="test",
                                        link_insertion=False)
                b.place_ready_pairs(lambda task, proc, start: (start, proc,
                                                               str(task)))
            finally:
                set_hotpath_mode(before)
            assert schedule_violations(b.finish()) == []
            counts[mode] = (b.candidates_evaluated, b.candidates_pruned)
        assert counts["legacy"][1] == 0
        assert sum(counts["incremental"]) == counts["legacy"][0]
        assert counts["incremental"][0] < counts["legacy"][0]
