"""Tests for the task-graph interchange subsystem (graph/interchange.py).

The core guarantee is the round trip: for every registered format,
``read(write(g))`` is graph-equal (same ids in the same insertion order,
identical float costs, same edge set with identical communication
costs) across the randomized workload sweep; traces additionally
round-trip per-processor execution-cost tables exactly.
"""

import json
import math
import os
import re

import pytest

from repro.errors import (
    ConfigurationError,
    CycleError,
    DisconnectedGraphError,
    GraphError,
)
from repro.graph.interchange import (
    ExternalWorkload,
    FORMATS,
    content_hash,
    convert_file,
    dumps_workload,
    format_names,
    graphs_equal,
    load_workload,
    loads_workload,
    read_dot,
    read_stg,
    read_trace,
    relabel_tasks,
    save_workload,
    sniff_format,
    write_dot,
    write_stg,
    write_trace,
)
from repro.graph.io import to_dot
from repro.graph.model import TaskGraph
from repro.network.system import HeterogeneousSystem
from repro.network.topology import hypercube, ring
from repro.workloads.forkjoin import fork_join
from repro.workloads.granularity import apply_granularity
from repro.workloads.suites import random_graph, regular_graph


def sweep_graphs():
    """The randomized workload sweep the round-trip property runs over."""
    graphs = []
    for seed in (0, 1, 2):
        for gran in (0.1, 1.0, 10.0):
            graphs.append(random_graph(30 + 10 * seed, gran, seed=seed))
    for app in ("gauss", "lu", "laplace", "mva"):
        graphs.append(relabel_tasks(regular_graph(app, 40, 1.0, seed=1)))
    fj = fork_join(2, 4)
    apply_granularity(fj, 1.0, seed=9)
    graphs.append(relabel_tasks(fj))
    return graphs


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", format_names())
    def test_randomized_sweep_round_trips(self, fmt):
        for g in sweep_graphs():
            text = dumps_workload(g, fmt)
            back = loads_workload(text, fmt)
            assert graphs_equal(g, back.graph, check_name=True), (
                f"{fmt} round trip broke {g.name}"
            )
            assert back.fmt == fmt

    @pytest.mark.parametrize("fmt", format_names())
    def test_round_trip_exact_floats(self, fmt):
        g = TaskGraph(name="floats")
        g.add_task("a", 1.0 / 3.0)
        g.add_task("b", math.pi)
        g.add_edge("a", "b", 2.0 / 7.0)
        back = loads_workload(dumps_workload(g, fmt), fmt).graph
        assert back.cost("a") == 1.0 / 3.0
        assert back.cost("b") == math.pi
        assert back.comm_cost("a", "b") == 2.0 / 7.0

    @pytest.mark.parametrize("fmt", format_names())
    def test_id_types_survive(self, fmt):
        g = TaskGraph(name="ids")
        g.add_task(0, 1.0)
        g.add_task("0", 2.0)          # str id that looks like the int id
        g.add_task("x y", 3.0)        # id with whitespace
        g.add_edge(0, "0", 1.0)
        g.add_edge("0", "x y", 2.0)
        back = loads_workload(dumps_workload(g, fmt), fmt).graph
        assert back.tasks() == [0, "0", "x y"]
        assert back.cost(0) == 1.0 and back.cost("0") == 2.0

    @pytest.mark.parametrize("fmt", format_names())
    def test_hostile_string_ids_survive(self, fmt):
        # backslashes, mixed quotes, arrows and newlines: every one of
        # these corrupted or crashed an earlier revision of some reader
        ids = ["back\\slash", 'say "hi"', "it's", "a->b", "two\nlines",
               "idx[0]", "open[bracket"]
        g = TaskGraph(name="hostile")
        prev = None
        for i, tid in enumerate(ids):
            g.add_task(tid, float(i + 1))
            if prev is not None:
                g.add_edge(prev, tid, 0.5 * i)
            prev = tid
        back = loads_workload(dumps_workload(g, fmt), fmt).graph
        assert graphs_equal(g, back, check_name=True), fmt

    @pytest.mark.parametrize("fmt", format_names())
    def test_empty_graph_name_survives(self, fmt):
        g = TaskGraph(name="")
        g.add_task(0, 1.0)
        back = loads_workload(dumps_workload(g, fmt), fmt).graph
        assert back.name == ""

    def test_trace_round_trips_exec_tables(self):
        g = relabel_tasks(regular_graph("gauss", 30, 1.0, seed=2))
        system = HeterogeneousSystem.sample(g, hypercube(8), seed=2)
        wl = read_trace(write_trace(system))
        assert wl.n_procs == 8
        for t in g.tasks():
            assert wl.exec_costs[t] == system.exec_cost_row(t)
            assert wl.graph.cost(t) == min(system.exec_cost_row(t))
        # second generation: workload -> trace -> workload is stable
        again = read_trace(write_trace(wl))
        assert again.exec_costs == wl.exec_costs
        assert graphs_equal(wl.graph, again.graph, check_name=True)

    def test_tuple_ids_rejected_with_hint(self):
        g = fork_join(1, 2)  # tuple ids
        for fmt in ("stg", "dot", "trace"):
            with pytest.raises(GraphError, match="relabel"):
                dumps_workload(g, fmt)


class TestStg:
    def test_reads_kasahara_dummy_convention(self):
        # declared count excludes the zero-cost entry/exit dummies
        text = (
            "2\n"
            "0 0 0\n"
            "1 7 1 0\n"
            "2 9 1 1\n"
            "3 0 1 2\n"
        )
        wl = read_stg(text, default_comm=2.5)
        assert wl.graph.tasks() == [1, 2]
        assert wl.graph.cost(1) == 7.0
        assert wl.graph.comm_cost(1, 2) == 2.5

    def test_keep_dummies_is_an_error_for_zero_cost(self):
        text = "1\n0 0 0\n"
        with pytest.raises(GraphError, match="non-positive"):
            read_stg(text, strip_dummies=False)

    def test_zero_cost_interior_task_rejected(self):
        text = "3\n0 5 0\n1 0 1 0\n2 5 1 1\n"
        with pytest.raises(GraphError, match="non-positive"):
            read_stg(text)

    def test_count_mismatch_rejected(self):
        with pytest.raises(GraphError, match="task lines"):
            read_stg("3\n0 1 0\n1 1 1 0\n")

    def test_pred_count_mismatch_rejected(self):
        with pytest.raises(GraphError, match="predecessors"):
            read_stg("2\n0 1 0\n1 1 2 0\n")

    def test_unknown_pred_rejected(self):
        with pytest.raises(GraphError, match="unknown task"):
            read_stg("2\n0 1 0\n1 1 1 5\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(GraphError, match="unknown STG directive"):
            read_stg("1\n0 1 0\n#@ wat 1\n")

    def test_plain_comments_ignored(self):
        wl = read_stg("# a comment\n1\n# another\n0 4 0\n")
        assert wl.graph.cost(0) == 4.0

    def test_connected_dummies_stripped_together(self):
        # entry dummy feeding the exit dummy directly: both die in the
        # same stripping round (regression: raw KeyError)
        wl = read_stg("1\n0 0 0\n1 5.0 1 0\n2 0 2 0 1\n")
        assert wl.graph.tasks() == [1]
        assert wl.graph.cost(1) == 5.0

    def test_malformed_directive_numbers_raise_grapherror(self):
        with pytest.raises(GraphError, match="#@ comm"):
            read_stg("1\n0 1.0 0\n#@ comm a b 1.0\n")
        with pytest.raises(GraphError, match="#@ task"):
            read_stg("1\n0 1.0 0\n#@ task x 'y'\n")


class TestDot:
    def test_reads_legacy_to_dot_output(self):
        g = TaskGraph(name="legacy")
        g.add_task("a", 12.0)
        g.add_task("b", 8.0)
        g.add_edge("a", "b", 3.0)
        wl = read_dot(to_dot(g))
        # label-based costs are %g-lossy in general but exact for these
        assert graphs_equal(g, wl.graph, check_name=True)

    def test_edge_chains_and_defaults(self):
        wl = read_dot(
            "digraph { rankdir=LR; 0 [cost=1.0]; 1 [cost=2.0]; "
            "2 [cost=3.0]; 0 -> 1 -> 2 [comm=5.0]; }"
        )
        assert wl.graph.comm_cost(0, 1) == 5.0
        assert wl.graph.comm_cost(1, 2) == 5.0

    def test_node_without_cost_needs_default(self):
        text = "digraph { a -> b; a [cost=1.0]; }"
        with pytest.raises(GraphError, match="default_cost"):
            read_dot(text)
        wl = read_dot(text, default_cost=9.0)
        assert wl.graph.cost("b") == 9.0
        assert wl.graph.cost("a") == 1.0

    def test_quoted_ids_with_escapes(self):
        g = TaskGraph(name='quo"ted')
        g.add_task('say "hi"', 1.0)
        g.add_task("back\\slash", 2.0)
        g.add_edge('say "hi"', "back\\slash", 0.5)
        back = read_dot(write_dot(g))
        assert graphs_equal(g, back.graph, check_name=True)

    def test_comments_stripped(self):
        wl = read_dot(
            "// line comment\ndigraph d { /* block\ncomment */ 0 [cost=2.0]; }"
        )
        assert wl.graph.tasks() == [0]

    def test_non_digraph_rejected(self):
        with pytest.raises(GraphError, match="digraph"):
            read_dot("graph g { a -- b; }")

    def test_separators_inside_quoted_labels(self):
        # ';' and literal newlines inside a label must not split the
        # statement (regression: cost= attr lost to a discarded fragment)
        wl = read_dot(
            'digraph g { a [label="x;y", cost=2.0]; '
            'b [label="two\nlines" cost=3.0]; a -> b [comm=1.0]; }'
        )
        assert wl.graph.cost("a") == 2.0
        assert wl.graph.cost("b") == 3.0

    def test_multiline_attr_block(self):
        wl = read_dot("digraph g { a [cost=4.0,\n  label=\"a\"]; }")
        assert wl.graph.cost("a") == 4.0

    def test_non_numeric_cost_attr_raises_grapherror(self):
        with pytest.raises(GraphError, match="not a number"):
            read_dot("digraph g { a [cost=abc]; }")


class TestTrace:
    def base_doc(self):
        return {
            "format": "repro-trace",
            "version": 1,
            "name": "t",
            "tasks": [{"id": 0, "cost": 5.0}, {"id": 1, "cost": 4.0}],
            "edges": [{"src": 0, "dst": 1, "comm": 2.0}],
        }

    def test_wrong_format_and_version_rejected(self):
        doc = self.base_doc()
        doc["format"] = "other"
        with pytest.raises(GraphError, match="repro-trace"):
            read_trace(json.dumps(doc))
        doc = self.base_doc()
        doc["version"] = 99
        with pytest.raises(GraphError, match="version"):
            read_trace(json.dumps(doc))
        with pytest.raises(GraphError, match="JSON"):
            read_trace("not json")

    def test_mixed_cost_kinds_rejected(self):
        doc = self.base_doc()
        doc["n_procs"] = 2
        doc["tasks"][1] = {"id": 1, "costs": [1.0, 2.0]}
        with pytest.raises(GraphError, match="mixes"):
            read_trace(json.dumps(doc))

    def test_vectors_require_n_procs_and_uniform_length(self):
        doc = self.base_doc()
        doc["tasks"] = [{"id": 0, "costs": [1.0, 2.0]}]
        doc["edges"] = []
        with pytest.raises(GraphError, match="n_procs"):
            read_trace(json.dumps(doc))
        doc["n_procs"] = 3
        with pytest.raises(GraphError, match="list of 3"):
            read_trace(json.dumps(doc))

    def test_nonpositive_vector_cost_rejected(self):
        doc = self.base_doc()
        doc["n_procs"] = 2
        doc["tasks"] = [{"id": 0, "costs": [1.0, 0.0]}]
        doc["edges"] = []
        with pytest.raises(GraphError, match="positive"):
            read_trace(json.dumps(doc))

    def test_non_numeric_costs_raise_grapherror(self):
        doc = self.base_doc()
        doc["tasks"][0]["cost"] = "abc"
        with pytest.raises(GraphError, match="must be a number"):
            read_trace(json.dumps(doc))
        doc = self.base_doc()
        doc["edges"][0]["comm"] = None
        with pytest.raises(GraphError, match="must be a number"):
            read_trace(json.dumps(doc))
        doc = self.base_doc()
        doc["n_procs"] = 2
        for t in doc["tasks"]:
            del t["cost"]
        doc["tasks"][0]["costs"] = [1.0, None]
        doc["tasks"][1]["costs"] = [1.0, 1.0]
        with pytest.raises(GraphError, match="numbers"):
            read_trace(json.dumps(doc))

    def test_bool_and_null_ids_rejected(self):
        doc = self.base_doc()
        doc["tasks"][0]["id"] = True
        with pytest.raises(GraphError, match="int or str"):
            read_trace(json.dumps(doc))
        doc["tasks"][0]["id"] = None
        with pytest.raises(GraphError, match="int or str"):
            read_trace(json.dumps(doc))


class TestSniffing:
    def test_sniffs_all_writer_outputs(self):
        g = random_graph(20, 1.0, seed=0)
        for fmt in format_names():
            assert sniff_format(dumps_workload(g, fmt)) == fmt

    def test_trace_and_json_disambiguated_by_content(self):
        g = random_graph(20, 1.0, seed=0)
        assert sniff_format(dumps_workload(g, "json"), "x.json") == "json"
        assert sniff_format(dumps_workload(g, "trace"), "x.json") == "trace"

    def test_extension_breaks_content_tie(self):
        # an empty-ish JSON dict matches no content sniffer; extension
        # is the only evidence
        with pytest.raises(GraphError, match="cannot determine"):
            sniff_format("{}")

    def test_unknown_content_rejected(self):
        with pytest.raises(GraphError, match="cannot determine"):
            sniff_format("what is this\n")


class TestValidation:
    def test_cycle_rejected(self):
        text = (
            "digraph c { 0 [cost=1.0]; 1 [cost=1.0]; "
            "0 -> 1 [comm=1.0]; 1 -> 0 [comm=1.0]; }"
        )
        with pytest.raises(CycleError):
            loads_workload(text, "dot")

    def test_disconnected_rejected_unless_allowed(self):
        text = (
            "digraph d { 0 [cost=1.0]; 1 [cost=1.0]; 2 [cost=1.0]; "
            "3 [cost=1.0]; 0 -> 1 [comm=1.0]; 2 -> 3 [comm=1.0]; }"
        )
        with pytest.raises(DisconnectedGraphError):
            loads_workload(text, "dot")
        wl = loads_workload(text, "dot", require_connected=False)
        assert wl.graph.n_tasks == 4

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            loads_workload("0\n", "stg")

    def test_unknown_format_rejected(self):
        with pytest.raises(GraphError, match="unknown graph format"):
            loads_workload("x", "xml")
        with pytest.raises(GraphError, match="unknown graph format"):
            dumps_workload(TaskGraph(), "xml")


class TestFilesAndConvert:
    def test_load_save_convert(self, tmp_path):
        g = random_graph(25, 1.0, seed=3)
        src = tmp_path / "g.stg"
        fmt = save_workload(g, str(src))
        assert fmt == "stg"
        wl = load_workload(str(src))
        assert wl.source == str(src)
        assert wl.content_hash == content_hash(src.read_text())
        assert graphs_equal(g, wl.graph, check_name=True)

        # chain through every format and come back
        prev = str(src)
        for i, fmt in enumerate(("trace", "json", "dot", "stg")):
            nxt = str(tmp_path / f"g{i}.{fmt if fmt != 'trace' else 'trace.json'}")
            in_fmt, out_fmt, _ = convert_file(prev, nxt)
            assert out_fmt == fmt
            prev = nxt
        assert graphs_equal(g, load_workload(prev).graph, check_name=True)

    def test_save_infers_trace_over_json_for_trace_suffix(self, tmp_path):
        g = random_graph(10, 1.0, seed=0)
        path = tmp_path / "g.trace.json"
        assert save_workload(g, str(path)) == "trace"
        assert sniff_format(path.read_text()) == "trace"

    def test_save_and_sniff_share_the_extension_tie_break(self):
        # '.trace.json' must resolve to trace in *both* directions, even
        # when the content alone is inconclusive
        assert sniff_format("{}", filename="x.trace.json") == "trace"
        assert sniff_format("{}", filename="x.stg") == "stg"

    def test_save_unknown_extension_needs_fmt(self, tmp_path):
        with pytest.raises(GraphError, match="cannot infer"):
            save_workload(random_graph(10, 1.0, seed=0), str(tmp_path / "g.xml"))

    def test_reader_kwargs_filtered_per_format(self, tmp_path):
        # default_comm means nothing to a trace: it must be ignored, not
        # explode, so CLI flags can apply "wherever relevant"
        g = random_graph(10, 1.0, seed=0)
        path = tmp_path / "g.trace.json"
        save_workload(g, str(path))
        wl = load_workload(str(path), default_comm=123.0)
        assert graphs_equal(g, wl.graph)

    def test_reader_kwarg_typos_rejected(self, tmp_path):
        # an option no registered reader accepts is a typo, not an
        # inapplicable format option
        g = random_graph(10, 1.0, seed=0)
        path = tmp_path / "g.stg"
        save_workload(g, str(path))
        with pytest.raises(GraphError, match="default_cots"):
            load_workload(str(path), default_cots=5.0)


class TestRelabel:
    def test_default_relabel_tuples(self):
        g = fork_join(1, 2)
        out = relabel_tasks(g)
        assert out.tasks() == ["J_0", "F_1", "W_1_0", "W_1_1", "J_1"]
        assert out.n_edges == g.n_edges
        assert out.total_exec_cost() == g.total_exec_cost()

    def test_collision_rejected(self):
        g = TaskGraph()
        g.add_task("a", 1.0)
        g.add_task("b", 1.0)
        with pytest.raises(GraphError, match="collapsed"):
            relabel_tasks(g, rename=lambda t: "same")


class TestGraphsEqual:
    def test_detects_each_difference(self):
        base = TaskGraph(name="x")
        base.add_task("a", 1.0)
        base.add_task("b", 2.0)
        base.add_edge("a", "b", 3.0)
        assert graphs_equal(base, base.copy(), check_name=True)

        other = base.copy()
        other.set_task_cost("a", 1.5)
        assert not graphs_equal(base, other)

        other = base.copy()
        other.set_edge_cost("a", "b", 3.5)
        assert not graphs_equal(base, other)

        other = TaskGraph(name="x")  # different insertion order
        other.add_task("b", 2.0)
        other.add_task("a", 1.0)
        other.add_edge("a", "b", 3.0)
        assert not graphs_equal(base, other)

        assert not graphs_equal(base, base.copy(name="y"), check_name=True)
        assert graphs_equal(base, base.copy(name="y"), check_name=False)


# A published-style Kasahara STG whose zero-cost dummies are the only
# connectors between two otherwise-independent chains: stripping them
# (required) leaves a disconnected graph.
DUMMY_BRIDGED_STG = """\
6
0 0 0
1 10 1 0
2 20 1 1
3 30 1 0
4 40 1 3
5 0 2 2 4
"""


class TestBridgePolicy:
    def test_dummy_bridged_stg_fails_strict_import(self):
        with pytest.raises(DisconnectedGraphError):
            loads_workload(DUMMY_BRIDGED_STG, "stg")

    def test_epsilon_bridge_repairs_the_import(self):
        wl = loads_workload(DUMMY_BRIDGED_STG, "stg", bridge="epsilon")
        g = wl.graph
        assert g.tasks() == [1, 2, 3, 4]  # dummies stripped
        # one connector edge from the hub (first source, task 1) to the
        # first source of the second component (task 3), at zero cost
        assert g.has_edge(1, 3)
        assert g.comm_cost(1, 3) == 0.0
        assert g.n_edges == 3
        from repro.graph.validation import check_connected

        check_connected(g)  # must not raise

    def test_bridge_is_noop_on_connected_graphs(self):
        from repro.graph.interchange import bridge_components

        wl = loads_workload("2\n0 10 0\n1 20 1 0\n", "stg")
        assert bridge_components(wl.graph) is wl.graph
        # and the load path keeps the very same workload object
        assert loads_workload(
            "2\n0 10 0\n1 20 1 0\n", "stg", bridge="epsilon"
        ).graph.n_edges == 1

    def test_bridge_many_components(self):
        from repro.graph.interchange import bridge_components
        from repro.graph.validation import weak_components

        g = TaskGraph("five")
        for i in range(5):
            g.add_task(i, float(i + 1))
        bridged = bridge_components(g)
        assert len(weak_components(bridged)) == 1
        assert bridged.n_edges == 4
        assert all(u == 0 for u, _ in bridged.edges())  # hub is task 0
        bridged.topological_order()  # still a DAG

    def test_bridging_a_cyclic_component_fails_cleanly(self):
        # bridging runs before the DAG check; a cyclic component has no
        # source, which must surface as GraphError, not StopIteration
        text = ('digraph g { a [cost=1]; b [cost=1]; c [cost=1]; '
                'a -> b [comm=1]; b -> a [comm=1]; }')
        with pytest.raises(GraphError, match="cycle"):
            loads_workload(text, "dot", bridge="epsilon")

    def test_unknown_bridge_policy_rejected(self):
        with pytest.raises(GraphError, match="bridge policy"):
            loads_workload(DUMMY_BRIDGED_STG, "stg", bridge="glue")

    def test_negative_bridge_comm_rejected(self):
        from repro.graph.interchange import bridge_components

        g = TaskGraph()
        g.add_task(0, 1.0)
        g.add_task(1, 1.0)
        with pytest.raises(GraphError, match=">= 0"):
            bridge_components(g, comm=-1.0)

    def test_bundled_fixture_schedules_under_all_modes(self):
        """The examples/corpus fixture: bridged import schedules
        validator-clean (zero-cost bridge edges exercise the engines'
        zero-cost-edge guards in every mode)."""
        from repro.experiments.runner import _SCHEDULERS, build_cell_system
        from repro.schedule.io import schedule_to_json
        from repro.schedule.validator import validate_schedule
        from repro.util.intervals import hotpath_mode, set_hotpath_mode
        from repro.workloads.external import external_cell
        from repro.corpus.overlays import Overlay

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "corpus", "bridged_chains.stg",
        )
        initial = hotpath_mode()
        try:
            blobs = {}
            for mode in ("legacy", "incremental"):
                set_hotpath_mode(mode)
                cell = external_cell(
                    path, algorithm="bsa", topology="ring", n_procs=4,
                    overlay=Overlay(bridge="epsilon"),
                )
                schedule = _SCHEDULERS["bsa"](build_cell_system(cell))
                validate_schedule(schedule)
                blobs[mode] = schedule_to_json(schedule)
        finally:
            set_hotpath_mode(initial)
        assert blobs["legacy"] == blobs["incremental"]

    def test_convert_cli_bridge(self, tmp_path, capsys):
        from repro.cli import main

        src = str(tmp_path / "dummy.stg")
        with open(src, "w") as fh:
            fh.write(DUMMY_BRIDGED_STG)
        dst = str(tmp_path / "out.trace.json")
        assert main(["convert", src, dst]) == 6
        assert "not weakly connected" in capsys.readouterr().err
        assert main(["convert", src, dst, "--bridge", "epsilon"]) == 0
        wl = load_workload(dst)
        assert wl.graph.has_edge(1, 3)


class TestComponentsBridge:
    """The ``components`` bridge policy: co-schedule weak components as
    independent programs instead of serializing them behind hub edges."""

    @property
    def path(self):
        return os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "corpus", "bridged_chains.stg",
        )

    def _schedule(self, workload):
        from repro import hypercube, schedule_bsa
        from repro.network.system import HeterogeneousSystem
        from repro.schedule.validator import validate_schedule

        system = HeterogeneousSystem.sample(
            workload.graph, hypercube(4), het_range=(1, 2), seed=0
        )
        sched = schedule_bsa(system)
        validate_schedule(sched)
        return sched

    def test_three_way_equivalence(self):
        """components == raw graph (no added edges) + the independence
        mark; epsilon == the same tasks behind extra hub edges; both
        repairs schedule every task validly."""
        raw = load_workload(
            self.path, bridge="none", require_connected=False
        ).graph
        comp = load_workload(self.path, bridge="components").graph
        eps = load_workload(self.path, bridge="epsilon").graph

        # components adds nothing: identical task set, costs, and edges
        assert comp.tasks() == raw.tasks()
        assert comp.edges() == raw.edges()
        assert all(comp.cost(t) == raw.cost(t) for t in raw.tasks())
        assert all(
            comp.comm_cost(u, v) == raw.comm_cost(u, v)
            for u, v in raw.edges()
        )
        assert comp.components_independent and not raw.components_independent

        # epsilon is the same program set plus connector (hub) edges
        assert eps.tasks() == raw.tasks()
        assert not eps.components_independent
        extra = set(eps.edges()) - set(raw.edges())
        assert extra and set(raw.edges()) <= set(eps.edges())
        from repro.graph.validation import weak_components

        assert len(weak_components(comp)) == 3
        assert len(weak_components(eps)) == 1

    def test_both_repairs_schedule_all_tasks(self):
        comp_wl = load_workload(self.path, bridge="components")
        eps_wl = load_workload(self.path, bridge="epsilon")
        comp_sched = self._schedule(comp_wl)
        eps_sched = self._schedule(eps_wl)
        assert len(comp_sched.slots) == comp_wl.graph.n_tasks == 8
        assert len(eps_sched.slots) == 8
        # no hub serialization: independent components never wait on a
        # zero-cost connector, so this fixture schedules strictly better
        assert (comp_sched.schedule_length()
                <= eps_sched.schedule_length() + 1e-9)

    def test_flag_survives_copy(self):
        comp = load_workload(self.path, bridge="components").graph
        assert comp.copy().components_independent

    def test_connected_graph_unchanged(self):
        # a connected import is returned as-is (no mark, no copy)
        wl = loads_workload(
            "digraph g { a [cost=1]; b [cost=1]; a -> b [comm=1]; }",
            "dot", bridge="components",
        )
        assert not wl.graph.components_independent

    def test_schedule_cli_components(self, tmp_path, capsys):
        from repro.cli import main

        src = str(tmp_path / "dummy.stg")
        with open(src, "w") as fh:
            fh.write(DUMMY_BRIDGED_STG)
        assert main(["schedule", "--graph", src,
                     "--bridge", "components"]) == 0
        out = capsys.readouterr().out
        assert "SL" in out and "4 tasks" in out

    def test_overlay_token_round_trip(self):
        from repro.corpus.overlays import Overlay, parse_overlay

        ov = Overlay(bridge="components")
        assert ov.token() == "bridgecomp"
        assert parse_overlay("bridgecomp") == ov
        assert not ov.is_identity
        # distinct from the epsilon token (distinct cache keys)
        assert parse_overlay("bridge") == Overlay(bridge="epsilon")


# ----------------------------------------------------------------------
# malformed WfCommons and trace documents: a typed GraphError naming the
# field, never a TypeError/AttributeError or a silent coercion
# ----------------------------------------------------------------------

def _wf_spec():
    """A two-task WfCommons instance in the modern split layout."""
    return {"name": "w", "schemaVersion": "1.4", "workflow": {
        "specification": {
            "tasks": [
                {"id": "a", "parents": [], "children": ["b"],
                 "inputFiles": [], "outputFiles": ["f"]},
                {"id": "b", "parents": ["a"], "children": [],
                 "inputFiles": ["f"], "outputFiles": []}],
            "files": [{"id": "f", "sizeInBytes": 2.0}]},
        "execution": {"tasks": [{"id": "a", "runtimeInSeconds": 1.0},
                                {"id": "b", "runtimeInSeconds": 2.0}]}}}


def _wf_flat():
    """The same instance in the legacy flat layout."""
    return {"name": "w", "workflow": {"tasks": [
        {"name": "a", "runtime": 1.0, "parents": [],
         "files": [{"name": "f", "link": "output", "size": 2.0}]},
        {"name": "b", "runtime": 2.0, "parents": ["a"],
         "files": [{"name": "f", "link": "input", "size": 2.0}]}]}}


def _trace(vectors=False):
    doc = {"format": "repro-trace", "version": 1, "name": "t",
           "tasks": [{"id": "a", "cost": 1.0}, {"id": "b", "cost": 2.0}],
           "edges": [{"src": "a", "dst": "b", "comm": 1.0}]}
    if vectors:
        doc["n_procs"] = 1
        doc["tasks"] = [{"id": "a", "costs": [1.0]}, {"id": "b", "costs": [2.0]}]
    return doc


def _shape(base, path, value):
    doc = base()
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


_SPEC = ("workflow", "specification")
_FLAT = ("workflow", "tasks")

#: shape -> (WfCommons text, a substring the GraphError must contain)
MALFORMED_WFCOMMONS = {
    "parents-int": (_shape(_wf_spec, (*_SPEC, "tasks", 1, "parents"), 5),
                    "'parents' must be a list"),
    "files-int": (_shape(_wf_flat, (*_FLAT, 1, "files"), 3),
                  "'files' must be a list"),
    "link-int": (_shape(_wf_flat, (*_FLAT, 1, "files", 0, "link"), 5),
                 "file link 5 must be a string"),
    "input-files-int": (_shape(_wf_spec, (*_SPEC, "tasks", 1, "inputFiles"), 3),
                        "'inputFiles' must be a list"),
    "file-id-list": (_shape(_wf_spec, (*_SPEC, "files", 0, "id"), ["f"]),
                     "file id must be an int or str id"),
    "execution-id-list": (_shape(_wf_spec, ("workflow", "execution", "tasks",
                                            0, "id"), ["a"]),
                          "execution task id must be an int or str id"),
    "parent-id-list": (_shape(_wf_flat, (*_FLAT, 1, "parents"), [["a"]]),
                       "'parents' entry must be an int or str id"),
    "runtime-bool": (_shape(_wf_flat, (*_FLAT, 0, "runtime"), True),
                     "runtime True is not a number"),
    "size-bool": (_shape(_wf_flat, (*_FLAT, 1, "files", 0, "size"), True),
                  "file size True is not a number"),
    "parents-string": (_shape(_wf_flat, (*_FLAT, 1, "parents"), "a"),
                       "'parents' must be a list"),
    "parents-object": (_shape(_wf_flat, (*_FLAT, 1, "parents"), {"a": 1}),
                       "'parents' must be a list"),
}

#: shape -> (trace text, a substring the GraphError must contain)
MALFORMED_TRACES = {
    "task-int": (_shape(_trace, ("tasks", 0), 5),
                 "malformed trace task entry 5"),
    "edges-int": (_shape(_trace, ("edges",), 5), "edges must be a list"),
    "edge-src-list": (_shape(_trace, ("edges", 0, "src"), ["a"]),
                      "edge ids must be int or str"),
    "cost-string": (_shape(_trace, ("tasks", 0, "cost"), "3"),
                    "'cost' must be a number"),
    "cost-bool": (_shape(_trace, ("tasks", 0, "cost"), True),
                  "'cost' must be a number"),
    "costs-bool": (_shape(lambda: _trace(vectors=True), ("tasks", 0, "costs"),
                          [True]), "'costs' must be numbers"),
    "comm-string": (_shape(_trace, ("edges", 0, "comm"), "2"),
                    "'comm' must be a number"),
    "n-procs-bool": (_shape(lambda: _trace(vectors=True), ("n_procs",), True),
                     "positive integer 'n_procs'"),
    "name-list": (_shape(_trace, ("name",), ["x"]), "name must be a string"),
}


class TestMalformedReaders:
    def test_base_documents_load(self):
        for base in (_wf_spec, _wf_flat):
            graph = loads_workload(json.dumps(base()), "wfcommons").graph
            assert graph.edges() == [("a", "b")]
            assert graph.comm_cost("a", "b") == 2.0
        for vectors in (False, True):
            text = json.dumps(_trace(vectors))
            assert loads_workload(text, "trace").graph.edges() == [("a", "b")]

    @pytest.mark.parametrize("shape", sorted(MALFORMED_WFCOMMONS))
    def test_wfcommons_field_is_named(self, shape):
        text, field = MALFORMED_WFCOMMONS[shape]
        with pytest.raises(GraphError, match=re.escape(field)):
            loads_workload(text, "wfcommons")
        with pytest.raises(GraphError, match=re.escape(field)):
            loads_workload(text)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_TRACES))
    def test_trace_field_is_named(self, shape):
        text, field = MALFORMED_TRACES[shape]
        with pytest.raises(GraphError, match=re.escape(field)):
            loads_workload(text, "trace")
        with pytest.raises(GraphError, match=re.escape(field)):
            loads_workload(text)
