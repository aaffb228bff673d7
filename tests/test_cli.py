"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from tests.test_interchange import MALFORMED_TRACES, MALFORMED_WFCOMMONS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO_ROOT, "examples", "graphs")


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(["--version"])
        assert e.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.algorithm == "bsa"
        assert args.topology == "hypercube"
        assert args.size == 100

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "-a", "magic"])


class TestCommands:
    def test_info(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "scale" in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "first pivot" in out
        assert "P2" in out
        assert "BSA schedule length" in out

    def test_schedule_small(self, capsys):
        rc = main([
            "schedule", "-a", "bsa", "-w", "random", "-n", "25",
            "-t", "ring", "-p", "4", "--gantt", "--gantt-height", "12",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SL" in out and "speedup" in out
        assert "P0" in out  # gantt rendered

    def test_schedule_dls(self, capsys):
        rc = main([
            "schedule", "-a", "dls", "-w", "gauss", "-n", "30",
            "-t", "clique", "-p", "4",
        ])
        assert rc == 0
        assert "DLS" in capsys.readouterr().out

    def test_schedule_etf(self, capsys):
        # etf was missing from the schedule choices before PR 4
        rc = main([
            "schedule", "-a", "etf", "-w", "random", "-n", "20",
            "-t", "ring", "-p", "4",
        ])
        assert rc == 0
        assert "ETF" in capsys.readouterr().out


class TestScheduleGraph:
    def test_schedule_stg_file(self, capsys):
        rc = main([
            "schedule", "--graph", os.path.join(CORPUS, "forkjoin.stg"),
            "-a", "bsa", "-t", "ring", "-p", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "forkjoin(d=3,w=4,g=1)" in out
        assert "SL" in out

    def test_schedule_trace_pins_procs(self, capsys):
        rc = main([
            "schedule", "--graph", os.path.join(CORPUS, "ge_trace.json"),
            "-a", "heft", "-t", "hypercube",
        ])
        assert rc == 0
        assert "hypercube8" in capsys.readouterr().out

    def test_schedule_trace_wrong_procs_fails(self, capsys):
        rc = main([
            "schedule", "--graph", os.path.join(CORPUS, "ge_trace.json"),
            "-a", "heft", "-t", "hypercube", "-p", "16",
        ])
        assert rc == 2
        assert "cannot apply" in capsys.readouterr().err

    def test_schedule_missing_file_fails(self, capsys):
        # unreadable input files exit through the error table as "io"
        rc = main(["schedule", "--graph", "/nonexistent/g.stg"])
        assert rc == 3

    def test_schedule_disconnected_fails_with_hint(self, capsys, tmp_path):
        # the schedulers themselves assume a connected DAG, so there is
        # no --allow-disconnected on schedule; the error points at the
        # convert escape hatch instead
        f = tmp_path / "disc.dot"
        f.write_text(
            "digraph d { 0 [cost=1.0]; 1 [cost=1.0]; 2 [cost=1.0]; "
            "3 [cost=1.0]; 0 -> 1 [comm=1.0]; 2 -> 3 [comm=1.0]; }"
        )
        rc = main(["schedule", "--graph", str(f), "-t", "ring", "-p", "4"])
        assert rc == 6  # DisconnectedGraphError's documented exit code
        err = capsys.readouterr().err
        assert "connected DAG" in err
        assert "repro convert --allow-disconnected" in err

    def test_schedule_graph_explicit_zero_procs_errors(self, capsys):
        # -p 0 must not silently fall back to the default 16
        rc = main([
            "schedule", "--graph", os.path.join(CORPUS, "forkjoin.stg"),
            "-t", "ring", "-p", "0",
        ])
        assert rc == 7  # TopologyError's documented exit code
        assert ">= 3 processors" in capsys.readouterr().err

    def test_schedule_graph_warns_about_generator_flags(self, capsys):
        rc = main([
            "schedule", "--graph", os.path.join(CORPUS, "forkjoin.stg"),
            "-t", "ring", "-p", "8", "-n", "500", "-g", "10",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "--size" in err and "--granularity" in err
        assert "ignored" in err

    def test_schedule_graph_all_algorithms(self, capsys):
        for algorithm in ("bsa", "dls", "heft", "cpop", "etf"):
            rc = main([
                "schedule", "--graph",
                os.path.join(CORPUS, "series_parallel.dot"),
                "-a", algorithm, "-t", "ring", "-p", "4",
            ])
            assert rc == 0, algorithm


class TestConvert:
    def test_convert_chain_round_trips(self, capsys, tmp_path):
        from repro.graph.interchange import graphs_equal, load_workload

        src = os.path.join(CORPUS, "forkjoin.stg")
        steps = [
            (src, str(tmp_path / "a.trace.json")),
            (str(tmp_path / "a.trace.json"), str(tmp_path / "b.dot")),
            (str(tmp_path / "b.dot"), str(tmp_path / "c.stg")),
        ]
        for a, b in steps:
            assert main(["convert", a, b]) == 0
        out = capsys.readouterr().out
        assert "19 tasks, 27 edges" in out
        assert graphs_equal(
            load_workload(src).graph,
            load_workload(str(tmp_path / "c.stg")).graph,
            check_name=True,
        )

    def test_convert_reports_vector_loss(self, capsys, tmp_path):
        rc = main([
            "convert", os.path.join(CORPUS, "ge_trace.json"),
            str(tmp_path / "ge.stg"),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "8-processor cost vectors" in captured.out
        assert "cannot carry" in captured.err

    def test_convert_rejects_cycle(self, capsys, tmp_path):
        bad = tmp_path / "cycle.dot"
        bad.write_text(
            "digraph c { 0 [cost=1.0]; 1 [cost=1.0]; "
            "0 -> 1 [comm=1.0]; 1 -> 0 [comm=1.0]; }"
        )
        assert main(["convert", str(bad), str(tmp_path / "o.stg")]) == 5
        assert "repro convert:" in capsys.readouterr().err

    def test_convert_missing_input(self, capsys, tmp_path):
        assert main(["convert", "/no/such.stg", str(tmp_path / "o.dot")]) == 3

    def test_convert_default_cost_for_foreign_dot(self, capsys, tmp_path):
        foreign = tmp_path / "plain.dot"
        foreign.write_text("digraph g { a -> b; b -> c; }")
        rc = main([
            "convert", str(foreign), str(tmp_path / "out.trace.json"),
            "--default-cost", "5", "--default-comm", "2",
        ])
        assert rc == 0
        from repro.graph.interchange import load_workload

        g = load_workload(str(tmp_path / "out.trace.json")).graph
        assert g.cost("a") == 5.0
        assert g.comm_cost("b", "c") == 2.0


@pytest.mark.parametrize("shape", sorted(MALFORMED_WFCOMMONS)
                         + sorted(MALFORMED_TRACES))
def test_convert_names_a_malformed_field(tmp_path, capsys, shape):
    """A malformed WfCommons or trace field exits 4 (kind graph),
    never 70 (a TypeError or AttributeError) or 0 (a coercion)."""
    text, field = {**MALFORMED_WFCOMMONS, **MALFORMED_TRACES}[shape]
    fmt = "wfcommons" if shape in MALFORMED_WFCOMMONS else "trace"
    src = tmp_path / "in.json"
    src.write_text(text)
    assert main(["convert", str(src), str(tmp_path / "out.stg"),
                 "--from", fmt]) == 4
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


class TestSimulateReplay:
    ARGS = ["simulate", "-w", "gauss", "-n", "40", "-t", "ring", "-p", "8",
            "--seed", "3", "--scenario", "f1a1s2"]

    def test_simulate_prints_event_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "static SL" in out
        assert "proc_failure" in out and "arrival" in out
        assert "replan SL" in out          # oracle comparison on by default
        assert "prefix intact" in out

    def test_simulate_no_replan_omits_oracle(self, capsys):
        assert main(self.ARGS + ["--no-replan"]) == 0
        assert "replan SL" not in capsys.readouterr().out

    def test_simulate_log_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--log", str(a)]) == 0
        assert main(self.ARGS + ["--log", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        import json

        log = json.loads(a.read_text())
        assert log["format"] == "repro-event-log"
        assert log["n_events"] == 2

    def test_simulate_export_bundle_replays(self, tmp_path, capsys):
        """The round trip: simulate a tuple-id generated workload,
        export the final schedule as a bundle (relabeled to
        interchange-safe ids), replay it through the validator."""
        bundle = tmp_path / "sim.bundle.json"
        assert main(self.ARGS + ["--export-bundle", str(bundle)]) == 0
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out
        assert "BSA" in out

    def test_simulate_events_file(self, tmp_path, capsys):
        """An explicit --events trace overrides scenario injection."""
        import json

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "format": "repro-event-trace",
            "version": 1,
            "events": [
                {"type": "arrival", "time": 50.0, "task": "hotfix",
                 "cost": 20.0, "deps": [[["U", 1, 2], 4.0]]},
                {"type": "proc_failure", "time": 900.0, "proc": 3},
            ],
        }))
        assert main(["simulate", "-w", "gauss", "-n", "40", "-t", "ring",
                     "-p", "8", "--seed", "3", "--events", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "2 event(s)" in out and str(trace) in out

    _ARRIVAL = {"type": "arrival", "time": 50.0, "task": "hotfix",
                "cost": 20.0, "deps": [[["U", 1, 2], 4.0]]}

    @pytest.mark.parametrize("event", [
        dict(_ARRIVAL, time="nan"),
        dict(_ARRIVAL, time=float("nan")),
        dict(_ARRIVAL, time=float("inf")),
        dict(_ARRIVAL, cost=float("-inf")),
        dict(_ARRIVAL, deps=[[["U", 1, 2], float("nan")]]),
        dict(_ARRIVAL, exec_row=[20.0] * 7 + [float("inf")]),
        dict(_ARRIVAL, task={"a": 1}),
        dict(_ARRIVAL, task=[1, [2]]),
        dict(_ARRIVAL, deps=[[{"a": 1}, 4.0]]),
        {"type": "proc_failure", "time": "nan", "proc": 3},
        {"type": "proc_failure", "time": 900.0, "proc": float("inf")},
    ], ids=["time-nan-string", "time-nan", "time-inf", "cost-neg-inf",
            "dep-cost-nan", "exec-row-inf", "task-object", "task-nested-list",
            "dep-task-object", "failure-time-nan", "failure-proc-inf"])
    def test_simulate_rejects_malformed_event(self, tmp_path, capsys, event):
        """A non-finite number or a task id that is not a str, an int or
        a flat list of them is a ConfigurationError (rc 2): not a
        ``final SL : nan`` run (rc 0) or a TypeError (rc 70)."""
        import json

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"format": "repro-event-trace",
                                     "version": 1, "events": [event]}))
        assert main(["simulate", "-w", "gauss", "-n", "40", "-t", "ring",
                     "-p", "8", "--seed", "3", "--events", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "malformed event record" in err
        assert "Traceback" not in err

    def test_simulate_bad_scenario_fails(self, capsys):
        assert main(["simulate", "-w", "gauss", "--scenario", "zzz"]) == 2
        assert "repro simulate:" in capsys.readouterr().err

    def test_simulate_missing_events_file_fails(self, capsys):
        assert main(["simulate", "-w", "gauss",
                     "--events", "/no/such.json"]) == 3

    def test_replay_rejects_non_bundle(self, tmp_path, capsys):
        bad = tmp_path / "not_bundle.json"
        bad.write_text("{\"format\": \"something-else\"}")
        assert main(["replay", str(bad)]) == 9  # SchedulingError
        assert "repro replay:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        '"schedule": []',
        '"proc": "x"',
        '"edge": ["x"]',
    ])
    def test_replay_rejects_malformed_bundle(self, tmp_path, capsys, edit):
        """A malformed bundle is a typed SchedulingError (rc 9), not a
        traceback with rc 1, the code for a failed audit."""
        import json

        bundle = tmp_path / "b.json"
        assert main(["schedule", "-w", "gauss", "-n", "20", "-t", "ring",
                     "-p", "4", "--export-bundle", str(bundle)]) == 0
        capsys.readouterr()
        doc = json.loads(bundle.read_text())
        key, value = json.loads("{" + edit + "}").popitem()
        target = {"schedule": doc, "proc": doc["schedule"]["tasks"][0],
                  "edge": doc["schedule"]["messages"][0]}[key]
        target[key] = value
        bundle.write_text(json.dumps(doc))
        assert main(["replay", str(bundle)]) == 9
        err = capsys.readouterr().err
        assert "repro replay: bundle field" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("n_procs", None),
        ("n_procs", "4"),
        ("links", 7),
        ("link_specs", {"0_1": {"bandwidth": 2.0}}),
    ])
    def test_replay_rejects_malformed_topology(self, tmp_path, capsys,
                                               field, value):
        """A bundle topology with a malformed field is a TopologyError
        (rc 7) naming it, not a KeyError surfacing as rc 70 internal."""
        import json

        bundle = tmp_path / "b.json"
        assert main(["schedule", "-w", "gauss", "-n", "20", "-t", "ring",
                     "-p", "4", "--export-bundle", str(bundle)]) == 0
        capsys.readouterr()
        doc = json.loads(bundle.read_text())
        if value is None:
            del doc["topology"][field]
        else:
            doc["topology"][field] = value
        bundle.write_text(json.dumps(doc))
        assert main(["replay", str(bundle)]) == 7
        err = capsys.readouterr().err
        assert f"topology field '{field}'" in err
        assert "Traceback" not in err

    def test_replay_flags_corrupted_schedule(self, tmp_path, capsys):
        """Tampered times must fail the replay audit (rc 1). The
        schedule length is kept consistent with them, so the reader
        accepts the document and the validator judges it."""
        import json

        bundle = tmp_path / "b.json"
        assert main(["schedule", "-w", "gauss", "-n", "30", "-t", "ring",
                     "-p", "4", "--export-bundle", str(bundle)]) == 0
        capsys.readouterr()
        doc = json.loads(bundle.read_text())
        tasks = doc["schedule"]["tasks"]
        tasks[0]["start"] += 1e6
        tasks[0]["finish"] += 1e6
        doc["schedule"]["schedule_length"] = max(t["finish"] for t in tasks)
        bundle.write_text(json.dumps(doc))
        assert main(["replay", str(bundle)]) == 1
        assert "violation" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("target", ["task", "hop"])
    def test_replay_flags_non_finite_time(self, tmp_path, capsys, target,
                                          value):
        """A NaN or infinite start fails the replay audit (rc 1)."""
        import json

        bundle = tmp_path / "b.json"
        assert main(["schedule", "-w", "random", "-n", "20", "-t", "ring",
                     "-p", "4", "-a", "heft",
                     "--export-bundle", str(bundle)]) == 0
        capsys.readouterr()
        doc = json.loads(bundle.read_text())
        if target == "task":
            record = doc["schedule"]["tasks"][-1]
        else:
            routed = [m for m in doc["schedule"]["messages"] if m["hops"]]
            record = routed[-1]["hops"][-1]
        record["start"] = float(value)  # json.dumps writes NaN / Infinity
        bundle.write_text(json.dumps(doc))
        assert main(["replay", str(bundle)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_schedule_export_bundle_generated_workload(self, tmp_path, capsys):
        """schedule --export-bundle relabels tuple ids transparently."""
        bundle = tmp_path / "sched.bundle.json"
        assert main(["schedule", "-w", "gauss", "-n", "30", "-t", "ring",
                     "-p", "4", "--export-bundle", str(bundle)]) == 0
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == 0
        assert "replay OK" in capsys.readouterr().out


def _first_hop(doc):
    return next(m for m in doc["schedule"]["messages"] if m["hops"])["hops"][0]


def _per_link(doc, link, factor):
    table = {f"{a}-{b}": 1.0 for a, b in doc["topology"]["links"]}
    doc["link_model"] = {"mode": "PER_LINK",
                         "per_link": {**table, link: factor}}


#: (id, tamper of a HEFT bundle, `repro replay` rc, `repro trace` rc)
TAMPERED_BUNDLES = [
    ("task-finish",
     lambda d: d["schedule"]["tasks"][0].update(
         finish=d["schedule"]["tasks"][0]["finish"] + 1000), 1, 0),
    ("hop-finish",
     lambda d: _first_hop(d).update(finish=_first_hop(d)["finish"] + 500),
     1, 0),
    ("schedule-length", lambda d: d["schedule"].update(schedule_length=123),
     9, 9),
    ("per-link-negative", lambda d: _per_link(d, "0-1", -2.0), 2, 0),
    ("per-link-nan", lambda d: _per_link(d, "0-1", float("nan")), 2, 0),
    ("factor-range-negative", lambda d: d.update(link_model={
        "mode": "PER_MESSAGE_LINK", "factor_range": [-5, -1], "seed": 0}),
     2, 0),
    ("proc-string", lambda d: d["schedule"]["tasks"][0].update(proc="x"),
     9, 9),
    ("message-int", lambda d: d["schedule"]["messages"].__setitem__(0, 5),
     9, 9),
]


#: (id, tamper of a bundle's trace-format graph section, detail snippet)
TAMPERED_BUNDLE_GRAPHS = [
    ("edges-int", lambda g: g.update(edges=5), "edges must be a list"),
    ("task-int", lambda g: g["tasks"].__setitem__(0, 5),
     "malformed trace task entry 5"),
    ("edge-src-list", lambda g: g["edges"][0].update(src=["x"]),
     "edge ids must be int or str"),
    ("costs-bool", lambda g: g["tasks"][0]["costs"].__setitem__(0, True),
     "'costs' must be numbers"),
    ("comm-string", lambda g: g["edges"][0].update(comm="2"),
     "'comm' must be a number"),
    ("name-list", lambda g: g.update(name=["x"]), "name must be a string"),
]


@pytest.fixture(scope="module")
def heft_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("heft") / "b.json"
    assert main(["schedule", "-w", "gauss", "-n", "20", "-t", "ring", "-p",
                 "4", "-a", "heft", "--export-bundle", str(path)]) == 0
    return path.read_text()


class TestTamperedBundles:
    """A replay audits the times a bundle holds, a bundle's link factors
    are checked, and ``repro trace`` reads the schedule section through
    the same checked reader as the replay."""

    @pytest.mark.parametrize("tamper,replay_rc,trace_rc",
                             [t[1:] for t in TAMPERED_BUNDLES],
                             ids=[t[0] for t in TAMPERED_BUNDLES])
    def test_replay_and_trace(self, tmp_path, capsys, heft_bundle, tamper,
                              replay_rc, trace_rc):
        import json

        doc = json.loads(heft_bundle)
        tamper(doc)
        bundle = tmp_path / "t.json"
        bundle.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == replay_rc
        assert main(["trace", str(bundle), "-o",
                     str(tmp_path / "trace.json")]) == trace_rc
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if replay_rc == 1:
            assert "duration" in err
        if trace_rc == 9:
            assert "repro trace: bundle field schedule" in err

    @pytest.mark.parametrize("tamper,field",
                             [t[1:] for t in TAMPERED_BUNDLE_GRAPHS],
                             ids=[t[0] for t in TAMPERED_BUNDLE_GRAPHS])
    def test_replay_reads_the_graph_through_the_trace_reader(
            self, tmp_path, capsys, heft_bundle, tamper, field):
        import json

        doc = json.loads(heft_bundle)
        tamper(doc["graph"])
        bundle = tmp_path / "t.json"
        bundle.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(bundle)]) == 4
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err


class TestUnexpectedErrors:
    def test_a_bug_exits_70_as_internal(self, monkeypatch, capsys):
        """An exception outside the error table is a bug: traceback on
        stderr, exit 70, kind "internal" under --json."""
        import json

        import repro.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_info", broken)
        assert main(["info"]) == 70
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err
        assert "repro info: boom" in err
        assert main(["--json", "info"]) == 70
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "error": "RuntimeError", "kind": "internal", "detail": "boom"}
        assert "RuntimeError: boom" in captured.err


class TestTraceProfile:
    def test_trace_from_bundle(self, tmp_path, capsys):
        import json

        bundle = tmp_path / "sched.bundle.json"
        assert main(["schedule", "-w", "gauss", "-n", "24", "-t", "ring",
                     "-p", "4", "--export-bundle", str(bundle)]) == 0
        capsys.readouterr()
        out = tmp_path / "trace.json"
        assert main(["trace", str(bundle), "-o", str(out)]) == 0
        assert "chrome trace" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert any(e.get("cat") == "task" for e in doc["traceEvents"])
        # without -o the trace goes to stdout
        assert main(["trace", str(bundle)]) == 0
        json.loads(capsys.readouterr().out)

    def test_trace_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["trace", str(bad)]) != 0
        capsys.readouterr()

    def test_profile_prints_counters_and_spans(self, tmp_path, capsys):
        import json

        from repro import obs
        from repro.obs import counters as counters_mod

        was_active = counters_mod.ACTIVE
        trace = tmp_path / "spans.json"
        try:
            assert main(["profile", "-n", "24", "-t", "ring",
                         "--trace", str(trace)]) == 0
        finally:
            if not was_active:
                obs.disable()
            obs.reset()
            obs.reset_spans()
        out = capsys.readouterr().out
        assert "engine counters" in out
        assert "bsa.candidates_evaluated" in out
        assert "service.execute" in out
        json.loads(trace.read_text())
