"""Unit tests for the TaskGraph model."""

import pytest

from repro import TaskGraph
from repro.errors import CycleError, GraphError


class TestConstruction:
    def test_add_task_and_edge(self, diamond):
        assert diamond.n_tasks == 4
        assert diamond.n_edges == 4
        assert diamond.cost("b") == 20.0
        assert diamond.comm_cost("a", "c") == 15.0

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(GraphError):
            g.add_task("a", 2.0)

    def test_nonpositive_cost_rejected(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task("a", 0.0)
        with pytest.raises(GraphError):
            g.add_task("b", -1.0)

    def test_edge_unknown_endpoint_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "missing", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("missing", "a", 1.0)

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "a", 1.0)

    def test_duplicate_edge_rejected(self, chain3):
        with pytest.raises(GraphError):
            chain3.add_edge("x", "y", 9.0)

    def test_negative_comm_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", -3.0)

    def test_zero_comm_allowed(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 1.0)
        g.add_edge("a", "b", 0.0)
        assert g.comm_cost("a", "b") == 0.0

    def test_cost_update(self, chain3):
        chain3.set_task_cost("x", 99.0)
        assert chain3.cost("x") == 99.0
        chain3.set_edge_cost("x", "y", 42.0)
        assert chain3.comm_cost("x", "y") == 42.0

    #: a cost that is not finite: NaN and +inf pass ``cost <= 0``, and a
    #: huge int passes it but overflows ``float()``
    NON_FINITE = [float("nan"), float("inf"), 10 ** 400]

    @pytest.mark.parametrize("cost", NON_FINITE, ids=["nan", "inf", "huge-int"])
    def test_non_finite_task_cost_rejected(self, chain3, cost):
        with pytest.raises(GraphError, match="finite"):
            chain3.add_task("w", cost)
        with pytest.raises(GraphError, match="finite"):
            chain3.set_task_cost("x", cost)
        assert not chain3.has_task("w") and chain3.cost("x") == 4.0

    @pytest.mark.parametrize("cost", NON_FINITE, ids=["nan", "inf", "huge-int"])
    def test_non_finite_edge_cost_rejected(self, chain3, cost):
        with pytest.raises(GraphError, match="finite"):
            chain3.add_edge("x", "z", cost)
        with pytest.raises(GraphError, match="finite"):
            chain3.set_edge_cost("x", "y", cost)
        assert not chain3.has_edge("x", "z")

    def test_cost_update_unknown_rejected(self, chain3):
        with pytest.raises(GraphError):
            chain3.set_task_cost("nope", 1.0)
        with pytest.raises(GraphError):
            chain3.set_edge_cost("x", "z", 1.0)


class TestQueries:
    def test_neighbors(self, diamond):
        assert diamond.successors("a") == ["b", "c"]
        assert diamond.predecessors("d") == ["b", "c"]
        assert diamond.in_degree("a") == 0
        assert diamond.out_degree("a") == 2

    def test_sources_sinks(self, diamond):
        assert diamond.sources() == ["a"]
        assert diamond.sinks() == ["d"]

    def test_totals(self, diamond):
        assert diamond.total_exec_cost() == 70.0
        assert diamond.total_comm_cost() == 50.0
        assert diamond.mean_exec_cost() == 17.5
        assert diamond.mean_comm_cost() == 12.5

    def test_contains_iter_len(self, chain3):
        assert "x" in chain3
        assert "nope" not in chain3
        assert list(chain3) == ["x", "y", "z"]
        assert len(chain3) == 3

    def test_ancestors_descendants(self, diamond):
        assert diamond.ancestors("d") == {"a", "b", "c"}
        assert diamond.descendants("a") == {"b", "c", "d"}
        assert diamond.ancestors("a") == set()

    def test_independent(self, diamond):
        assert diamond.independent("b", "c")
        assert not diamond.independent("a", "d")
        assert not diamond.independent("a", "a")


class TestOrdering:
    def test_topological_order(self, diamond):
        order = diamond.topological_order()
        assert diamond.is_topological(order)
        assert order[0] == "a" and order[-1] == "d"

    def test_order_sees_a_later_edge(self):
        g = TaskGraph()
        for t in "abc":
            g.add_task(t, 1.0)
        assert g.topological_order() == ["a", "b", "c"]
        g.add_edge("c", "a", 1.0)
        assert g.topological_order() == ["b", "c", "a"]
        g.add_task("d", 1.0)
        g.add_edge("d", "b", 1.0)
        assert g.topological_order() == ["c", "d", "a", "b"]

    def test_mutating_a_returned_order_keeps_the_cache(self, diamond):
        order = diamond.topological_order()
        expected = list(order)
        order.reverse()
        order.append("x")
        assert diamond.topological_order() == expected
        assert diamond.topological_order() is not diamond.topological_order()

    def test_is_topological_rejects_wrong_order(self, diamond):
        assert not diamond.is_topological(["d", "a", "b", "c"])
        assert not diamond.is_topological(["a", "b", "c"])  # incomplete
        assert not diamond.is_topological(["a", "a", "b", "c"])  # duplicate

    def test_cycle_detected(self):
        g = TaskGraph()
        for t in "abc":
            g.add_task(t, 1.0)
        g.add_edge("a", "b", 0)
        g.add_edge("b", "c", 0)
        # no API to create a cycle via add_edge forward check, so build one
        g._succ["c"]["a"] = 0.0
        g._pred["a"]["c"] = 0.0
        with pytest.raises(CycleError):
            g.topological_order()

    def test_copy_independent(self, diamond):
        dup = diamond.copy()
        dup.set_task_cost("a", 999.0)
        assert diamond.cost("a") == 10.0
        assert dup.n_edges == diamond.n_edges
