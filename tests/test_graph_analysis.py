"""Tests for t-level / b-level / critical-path analysis."""

import pytest

from repro import TaskGraph, b_levels, cp_length, critical_path, granularity, t_levels
from repro.graph.analysis import GraphAnalysis, static_b_levels


class TestLevels:
    def test_chain_levels(self, chain3):
        # x(4) -3-> y(6) -5-> z(8)
        bl = b_levels(chain3)
        assert bl == {"x": 4 + 3 + 6 + 5 + 8, "y": 6 + 5 + 8, "z": 8}
        tl = t_levels(chain3)
        assert tl == {"x": 0, "y": 4 + 3, "z": 4 + 3 + 6 + 5}

    def test_diamond_levels(self, diamond):
        bl = b_levels(diamond)
        # via b: 20+25+10 = 55; via c: 30+5+10 = 45
        assert bl["b"] == 55 and bl["c"] == 45
        assert bl["a"] == 10 + max(5 + 55, 15 + 45) == 70
        tl = t_levels(diamond)
        assert tl["d"] == max(10 + 5 + 20 + 25, 10 + 15 + 30 + 5) == 60

    def test_cp_invariant_t_plus_b(self, diamond):
        bl, tl = b_levels(diamond), t_levels(diamond)
        cp = critical_path(diamond)
        length = cp_length(diamond)
        for t in cp:
            assert tl[t] + bl[t] == pytest.approx(length)

    def test_custom_exec_cost(self, chain3):
        bl = b_levels(chain3, exec_cost=lambda t: 1.0)
        assert bl["x"] == 1 + 3 + 1 + 5 + 1

    def test_dict_exec_cost(self, chain3):
        costs = {"x": 2.0, "y": 2.0, "z": 2.0}
        tl = t_levels(chain3, exec_cost=costs)
        assert tl["z"] == 2 + 3 + 2 + 5

    def test_static_b_levels_ignore_comm(self, chain3):
        bl = static_b_levels(chain3)
        assert bl["x"] == 4 + 6 + 8


class TestCriticalPath:
    def test_chain_cp(self, chain3):
        assert critical_path(chain3) == ["x", "y", "z"]

    def test_diamond_cp_tie_resolved_by_exec_sum(self, diamond):
        # both a->b->d (10+5+20+25+10) and a->c->d (10+15+30+5+10) total 70;
        # the paper's tie rule picks the path with the larger execution sum,
        # i.e. the one through c (30 > 20).
        assert critical_path(diamond) == ["a", "c", "d"]

    def test_cp_length_matches_path(self, diamond):
        analysis = GraphAnalysis(diamond)
        cp = analysis.cp
        length = sum(map(diamond.cost, cp)) + sum(
            map(diamond.comm_cost, cp, cp[1:]))
        assert length == pytest.approx(analysis.cp_len)

    def test_cp_tie_prefers_larger_exec_sum(self):
        g = TaskGraph()
        g.add_task("s", 10.0)
        g.add_task("heavy", 30.0)
        g.add_task("light", 10.0)
        g.add_task("e", 10.0)
        # two paths of equal total length 70; heavy path has larger exec sum
        g.add_edge("s", "heavy", 5.0)
        g.add_edge("heavy", "e", 15.0)
        g.add_edge("s", "light", 15.0)
        g.add_edge("light", "e", 25.0)
        assert critical_path(g) == ["s", "heavy", "e"]

    def test_single_task(self):
        g = TaskGraph()
        g.add_task("only", 5.0)
        assert critical_path(g) == ["only"]
        assert cp_length(g) == 5.0


class TestGranularity:
    def test_paper_definition(self, diamond):
        assert granularity(diamond) == pytest.approx(17.5 / 12.5)

    def test_no_edges(self):
        g = TaskGraph()
        g.add_task("a", 5.0)
        assert granularity(g) == float("inf")
