"""Tests for workload generators (regular apps, random graphs, granularity)."""

import pytest

from repro import apply_granularity, validate_graph
from repro.errors import WorkloadError
from repro.graph.analysis import granularity as measure_granularity
from repro.util.rng import RngStream
from repro.workloads import (
    gaussian_elimination,
    gaussian_size,
    laplace_size,
    laplace_solver,
    lu_decomposition,
    lu_size,
    mean_value_analysis,
    mva_size,
    random_layered_graph,
    random_graph,
    regular_graph,
)
from repro.workloads.suites import _solve_param, paper_granularities, paper_sizes


class TestRegularGenerators:
    @pytest.mark.parametrize("builder,size_fn,param", [
        (gaussian_elimination, gaussian_size, 8),
        (lu_decomposition, lu_size, 6),
        (laplace_solver, laplace_size, 6),
        (mean_value_analysis, mva_size, 8),
    ], ids=["gauss", "lu", "laplace", "mva"])
    def test_structure_and_size(self, builder, size_fn, param):
        g = builder(param)
        validate_graph(g)
        assert g.n_tasks == size_fn(param)
        # single source wavefronts: at least one entry and one exit
        assert g.sources() and g.sinks()

    @pytest.mark.parametrize("builder", [
        gaussian_elimination, lu_decomposition, laplace_solver,
        mean_value_analysis,
    ])
    def test_mean_exec_cost_scaled(self, builder):
        g = builder(7, mean_exec=150.0)
        assert g.mean_exec_cost() == pytest.approx(150.0)

    def test_too_small_rejected(self):
        for builder in (gaussian_elimination, lu_decomposition,
                        laplace_solver, mean_value_analysis):
            with pytest.raises(WorkloadError):
                builder(1)

    def test_gaussian_pivot_chain(self):
        g = gaussian_elimination(4)
        # P1 feeds all of row 1's updates
        assert set(g.successors(("P", 1))) == {("U", 1, 2), ("U", 1, 3), ("U", 1, 4)}
        # U(1,2) completes the next pivot
        assert ("P", 2) in g.successors(("U", 1, 2))

    def test_laplace_is_wavefront(self):
        g = laplace_solver(4)
        assert g.sources() == [("L", 0, 0)]
        assert g.sinks() == [("L", 3, 3)]
        assert g.in_degree(("L", 2, 2)) == 2

    def test_mva_triangle(self):
        g = mean_value_analysis(4)
        assert g.n_tasks == 10
        assert g.in_degree(("M", 4, 2)) == 2
        assert g.in_degree(("M", 4, 1)) == 1


class TestSizeSolver:
    def test_solve_param_accuracy(self):
        for target in paper_sizes():
            for size_fn in (gaussian_size, lu_size, laplace_size, mva_size):
                param = _solve_param(size_fn, target)
                achieved = size_fn(param)
                # within one structural step of the target
                assert abs(achieved - target) <= max(
                    abs(size_fn(param + 1) - target),
                    abs(size_fn(max(2, param - 1)) - target),
                )

    def test_regular_graph_size_close(self):
        for app in ("gauss", "lu", "laplace", "mva"):
            g = regular_graph(app, 200, granularity=1.0)
            assert 140 <= g.n_tasks <= 260

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            regular_graph("quicksort", 100)

    def test_extension_apps_resolvable(self):
        # fft/forkjoin are addressable through the same entry point
        assert regular_graph("fft", 100).n_tasks > 0
        assert regular_graph("forkjoin", 100).n_tasks > 0


class TestRandomGraphs:
    def test_connected_dag(self):
        for seed in range(5):
            g = random_layered_graph(60, seed=seed)
            validate_graph(g)
            assert g.n_tasks == 60

    def test_exec_range(self):
        g = random_layered_graph(80, seed=1, exec_range=(100, 200))
        for t in g.tasks():
            assert 100 <= g.cost(t) <= 200

    def test_deterministic(self):
        a = random_layered_graph(50, seed=9)
        b = random_layered_graph(50, seed=9)
        assert a.edges() == b.edges()
        assert [a.cost(t) for t in a.tasks()] == [b.cost(t) for t in b.tasks()]

    def test_seed_matters(self):
        a = random_layered_graph(50, seed=1)
        b = random_layered_graph(50, seed=2)
        assert a.edges() != b.edges()

    def test_too_small_rejected(self):
        with pytest.raises(WorkloadError):
            random_layered_graph(1)


def _two_pass_granularity(graph, granularity, seed, spread=0.5):
    """The former apply_granularity: write every draw, read the mean back
    through the graph, then rescale every edge (two writes per edge)."""
    rng = RngStream(seed).fork("granularity", graph.name, granularity)
    target_mean = graph.mean_exec_cost() / granularity
    edges = graph.edges()
    draws = rng.uniforms((1 - spread) * target_mean, (1 + spread) * target_mean,
                         len(edges))
    for (u, v), cost in zip(edges, draws):
        graph.set_edge_cost(u, v, cost)
    correction = target_mean / graph.mean_comm_cost()
    for u, v in graph.edges():
        graph.set_edge_cost(u, v, graph.comm_cost(u, v) * correction)


class TestGranularity:
    @pytest.mark.parametrize("app", ["gauss", "lu", "laplace", "mva", "random"])
    @pytest.mark.parametrize("target", [0.1, 1.0, 10.0])
    def test_one_write_per_edge_matches_two_pass(self, app, target):
        """Each edge cost is written once, as draw * correction, with the
        draws summed in the order the graph sums its edges: the floats
        equal the two-pass rescale's bit for bit."""
        def build():
            return (random_layered_graph(80, seed=6) if app == "random"
                    else regular_graph(app, 120, granularity=1.0))
        for seed in range(3):
            once, twice = build(), build()
            apply_granularity(once, target, seed=seed)
            _two_pass_granularity(twice, target, seed)
            assert [once.comm_cost(u, v) for u, v in once.edges()] == \
                [twice.comm_cost(u, v) for u, v in twice.edges()]
    @pytest.mark.parametrize("target", [0.1, 1.0, 10.0])
    def test_exact_granularity(self, target):
        g = random_layered_graph(60, seed=2)
        apply_granularity(g, target, seed=2)
        assert measure_granularity(g) == pytest.approx(target)

    def test_costs_positive_and_varied(self):
        g = random_layered_graph(60, seed=3)
        apply_granularity(g, 1.0, seed=3, spread=0.5)
        costs = [g.comm_cost(u, v) for u, v in g.edges()]
        assert all(c > 0 for c in costs)
        assert max(costs) > min(costs)  # spread produced variation

    def test_zero_spread_uniform(self):
        g = random_layered_graph(40, seed=4)
        apply_granularity(g, 2.0, seed=4, spread=0.0)
        costs = {round(g.comm_cost(u, v), 9) for u, v in g.edges()}
        assert len(costs) == 1

    def test_bad_granularity_rejected(self):
        g = random_layered_graph(10, seed=0)
        with pytest.raises(WorkloadError):
            apply_granularity(g, 0.0)
        with pytest.raises(WorkloadError):
            apply_granularity(g, 1.0, spread=1.5)

    def test_paper_grids(self):
        assert paper_sizes() == list(range(50, 501, 50))
        assert paper_granularities() == [0.1, 1.0, 10.0]

    def test_random_graph_wrapper(self):
        g = random_graph(70, granularity=0.5, seed=5)
        assert g.n_tasks == 70
        assert measure_granularity(g) == pytest.approx(0.5)
