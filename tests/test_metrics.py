"""Tests for schedule metrics."""

import pytest

from repro import compute_metrics, schedule_bsa, schedule_serial
from repro.experiments.runner import _SCHEDULERS
from repro.graph.analysis import static_b_levels
from repro.network.system import HeterogeneousSystem
from repro.network.topology import fat_tree, hypercube, ring, torus2d
from repro.workloads.suites import random_graph

TOPOLOGIES = {"ring": lambda: ring(6), "hypercube": lambda: hypercube(8),
              "torus": lambda: torus2d(3, 3), "fattree": lambda: fat_tree(7)}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("algorithm",
                         ["bsa", "dls", "heft", "cpop", "etf", "spdecomp"])
def test_cost_row_sums_match_per_cost_formulas(algorithm, topology):
    """serial_best sums each processor's column of the cost rows and the
    lower bound takes each row's minimum, in C: both sum and compare in
    the order of the per-(task, processor) formulas, so the floats are
    equal, not just close."""
    graph = random_graph(30, seed=4)
    system = HeterogeneousSystem.sample(graph, TOPOLOGIES[topology](), seed=4)
    m = compute_metrics(_SCHEDULERS[algorithm](system))
    procs = system.topology.processors
    assert m.serial_best == min(
        sum(system.exec_cost(t, p) for t in graph.tasks()) for p in procs)
    fastest = {t: min(system.exec_cost(t, p) for p in procs)
               for t in graph.tasks()}
    assert m.cp_exec_lower_bound == max(static_b_levels(graph, fastest).values())


class TestMetrics:
    def test_serial_schedule_metrics(self, small_random_system):
        sched = schedule_serial(small_random_system)
        m = compute_metrics(sched)
        assert m.schedule_length == pytest.approx(m.serial_best)
        assert m.speedup == pytest.approx(1.0)
        assert m.total_comm_cost == 0.0
        assert m.n_hops == 0
        # exactly one processor fully busy
        utils = sorted(m.proc_utilization.values())
        assert utils[-1] == pytest.approx(1.0)
        assert utils[0] == 0.0

    def test_parallel_schedule_speedup(self, small_random_system):
        sched = schedule_bsa(small_random_system)
        m = compute_metrics(sched)
        assert m.speedup >= 1.0
        # on heterogeneous systems "efficiency" vs the single best serial
        # processor can exceed 1: parallel runs exploit per-task fast procs
        assert m.efficiency > 0

    def test_lower_bound_holds(self, small_random_system):
        for scheduler in (schedule_bsa, schedule_serial):
            m = compute_metrics(scheduler(small_random_system))
            assert m.schedule_length >= m.cp_exec_lower_bound - 1e-9
            assert m.normalized_sl >= 1.0

    def test_comm_accounting(self, paper_system):
        sched = schedule_bsa(paper_system)
        m = compute_metrics(sched)
        expected = sum(
            h.duration for r in sched.routes.values() for h in r.hops
        )
        assert m.total_comm_cost == pytest.approx(expected)
        assert m.n_routed_messages == sum(
            1 for r in sched.routes.values() if not r.is_local
        )

    def test_utilization_bounds(self, small_random_system):
        m = compute_metrics(schedule_bsa(small_random_system))
        for u in m.proc_utilization.values():
            assert 0.0 <= u <= 1.0 + 1e-9
        for u in m.link_utilization.values():
            assert 0.0 <= u <= 1.0 + 1e-9
