"""Tests for graph serialization and interop."""

import re

import pytest

from repro import TaskGraph
from repro.cli import main
from repro.errors import GraphError
from repro.graph.interchange import loads_workload
from repro.graph.io import (
    from_networkx,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    to_dot,
    to_networkx,
)


class TestDictRoundTrip:
    def test_round_trip_str_ids(self, diamond):
        back = graph_from_dict(graph_to_dict(diamond))
        assert back.tasks() == diamond.tasks()
        assert back.edges() == diamond.edges()
        assert back.cost("b") == diamond.cost("b")
        assert back.comm_cost("a", "c") == diamond.comm_cost("a", "c")

    def test_round_trip_int_ids(self):
        g = TaskGraph(name="ints")
        g.add_task(1, 5.0)
        g.add_task(2, 6.0)
        g.add_edge(1, 2, 3.0)
        back = graph_from_dict(graph_to_dict(g))
        assert back.tasks() == [1, 2]
        assert back.comm_cost(1, 2) == 3.0

    def test_json_round_trip(self, chain3):
        back = graph_from_json(graph_to_json(chain3))
        assert back.edges() == chain3.edges()

    def test_bad_version_rejected(self, chain3):
        data = graph_to_dict(chain3)
        data["version"] = 999
        with pytest.raises(GraphError):
            graph_from_dict(data)


#: json-dialect documents off :func:`graph_to_dict`'s shape: ``name ->
#: (text, what the GraphError must name)``; each failed with a
#: ValueError, KeyError, TypeError, AttributeError or JSONDecodeError, or
#: was silently coerced (a float id, a bool cost)
MALFORMED_JSON_GRAPHS = {
    "short-task": ('{"version": 1, "tasks": [["1"]], "edges": []}',
                   "tasks[0] must be a list of 2"),
    "no-tasks": ('{"version": 1, "edges": []}', "tasks must be a list"),
    "tasks-string": ('{"version": 1, "tasks": "ab", "edges": []}',
                     "tasks must be a list"),
    "no-edges": ('{"version": 1, "tasks": [["1", 1.0]]}',
                 "edges must be a list"),
    "long-edge": ('{"version": 1, "tasks": [["1", 1.0], ["2", 1.0]], '
                  '"edges": [["1", "2", 1.0, 5]]}', "edges[0] must be a list of 3"),
    "top-level-list": ("[1, 2]", "must be an object"),
    "not-json": ('{"version": 1, "tasks": [', "not valid JSON"),
    "float-id": ('{"version": 1, "tasks": [[1.7, 1.0]], "edges": []}',
                 "tasks[0][0] must be a task id"),
    "int-id": ('{"version": 1, "tasks": [["1", 1.0], [2, 1.0]], "edges": []}',
               "tasks[1][0] must be a task id"),
    "bool-cost": ('{"version": 1, "tasks": [["1", true]], "edges": []}',
                  "tasks[0][1] must be a number"),
    "string-comm": ('{"version": 1, "tasks": [["1", 1.0], ["2", 1.0]], '
                    '"edges": [["1", "2", "3"]]}', "edges[0][2] must be a number"),
    "name-list": ('{"version": 1, "name": [], "tasks": [], "edges": []}',
                  "name must be a string"),
}


class TestMalformedJsonDialect:
    """The cache-native json dialect is untrusted input like every other
    interchange format: a malformed document is a GraphError naming the
    field (exit 4, HTTP 400), never a traceback."""

    @pytest.mark.parametrize("shape", sorted(MALFORMED_JSON_GRAPHS))
    def test_reader_names_the_field(self, shape):
        text, field = MALFORMED_JSON_GRAPHS[shape]
        with pytest.raises(GraphError, match=re.escape(field)):
            loads_workload(text, fmt="json")

    @pytest.mark.parametrize("shape", sorted(MALFORMED_JSON_GRAPHS))
    def test_convert_exits_4(self, shape, tmp_path, capsys):
        text, field = MALFORMED_JSON_GRAPHS[shape]
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert main(["convert", "--from", "json", str(src),
                     str(tmp_path / "out.trace.json")]) == 4
        assert field in capsys.readouterr().err

    def test_sniffed_file_exits_4(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(MALFORMED_JSON_GRAPHS["short-task"][0])
        assert main(["convert", str(src), str(tmp_path / "out.trace.json")]) == 4


class TestNetworkxInterop:
    def test_round_trip(self, diamond):
        nxg = to_networkx(diamond)
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 4
        back = from_networkx(nxg)
        assert set(back.tasks()) == set(diamond.tasks())
        assert back.comm_cost("b", "d") == 25.0

    def test_from_networkx_weight_fallback(self):
        import networkx as nx

        nxg = nx.DiGraph()
        nxg.add_node("a", weight=3.0)
        nxg.add_node("b", weight=4.0)
        nxg.add_edge("a", "b", weight=2.0)
        g = from_networkx(nxg)
        assert g.cost("a") == 3.0
        assert g.comm_cost("a", "b") == 2.0

    def test_from_networkx_missing_cost_rejected(self):
        import networkx as nx

        nxg = nx.DiGraph()
        nxg.add_node("a")
        with pytest.raises(GraphError):
            from_networkx(nxg)


class TestDot:
    def test_dot_contains_nodes_and_edges(self, chain3):
        dot = to_dot(chain3)
        assert dot.startswith("digraph")
        assert '"x" -> "y"' in dot
        assert dot.count("->") == chain3.n_edges
