"""Untrusted JSON: every reader parses a document or fails typed.

Interchange files, topology files, bundles, event traces, cache entry
files and service request bodies reach the library as JSON text, parsed
and type-checked by :mod:`repro.util.checked`. Two kinds of test live
here:

* a fuzz sweep — for every path of a small valid seed document, the
  value there is replaced with each value of a fixed hostile set (ints
  too large for a float, NaN, the infinities, ``true``, a numeric
  string, ``null``, ``[]``, ``{}`` and 10 000-deep nesting); the
  reader must parse the result or raise a ``ReproError`` whose
  ``ERROR_TABLE`` row is not HTTP 500, and over HTTP no answer is 500;
* one test per defect the shared rules removed, each failing on the
  per-reader rules they replaced.
"""

import copy
import hashlib
import json
import math
import os
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.corpus.manifest import Manifest
from repro.errors import (
    ConfigurationError,
    GraphError,
    ReproError,
    SchedulingError,
    TopologyError,
)
from repro.experiments.cache import CACHE_VERSION, ResultCache
from repro.experiments.config import Cell
from repro.experiments.runner import CellResult, run_cell, run_cells
from repro.graph.interchange import (
    load_workload,
    read_stg,
    read_trace,
    read_wfcommons,
)
from repro.graph.io import graph_from_json
from repro.graph.model import TaskGraph
from repro.baselines.heft import schedule_heft
from repro.dynamic import events_from_dict
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import (
    LinkSpec,
    Topology,
    is_topology_json,
    topology_from_json,
    topology_to_json,
)
from repro.schedule.io import bundle_from_json, bundle_to_dict, schedule_from_json
from repro.schedule.validator import schedule_violations
from repro.service import (
    ScheduleRequest,
    SimulateRequest,
    execute,
    http_status_for,
    request_from_dict,
)
from repro.util.checked import is_int, is_number, loads, read_text, want
from tests.test_service import _request, fresh_cache, server  # noqa: F401

#: the hostile values; "deep" is written as 10 000 nested arrays
_DEEP_MARK = "\u0000deep\u0000"
HOSTILE = {
    "huge-int": 10 ** 400,
    "neg-huge-int": -10 ** 400,
    "nan": float("nan"),
    "inf": float("inf"),
    "neg-inf": float("-inf"),
    "true": True,
    "numeric-string": "1",
    "null": None,
    "list": [],
    "object": {},
    "deep": _DEEP_MARK,
}
_DEEP_TEXT = "[" * 10_000 + "]" * 10_000


def _text(doc) -> str:
    """JSON text of ``doc`` with the deep mark spelled out."""
    return json.dumps(doc).replace(json.dumps(_DEEP_MARK), _DEEP_TEXT)


def _paths(doc, path=()):
    """Every path into ``doc``, the root's empty path first."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, (*path, key))


def _mutants(seed, value):
    """``(path, text)`` of ``seed`` with ``value`` at each of its paths."""
    for path in _paths(seed):
        doc = copy.deepcopy(seed)
        if not path:
            doc = value
        else:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        yield path, _text(doc)


def _untyped_failures(read, seed, value):
    """The mutants ``read`` neither parses nor refuses with a
    ``ReproError`` that maps to something other than HTTP 500."""
    bad = []
    for path, text in _mutants(seed, value):
        try:
            read(text)
        except ReproError as exc:
            if http_status_for(exc) == 500:
                bad.append(f"{list(path)}: {type(exc).__name__}: {exc}"[:200])
        except Exception as exc:  # noqa: BLE001 - the failure under test
            bad.append(f"{list(path)}: {type(exc).__name__}: {exc}"[:200])
    return bad


# ----------------------------------------------------------------------
# seed documents: small and valid, every field a reader reads present
# ----------------------------------------------------------------------

def _seed_topology() -> Topology:
    return Topology(3, [(0, 1), (1, 2)], name="chain3",
                    link_specs={(0, 1): LinkSpec(2.0, "full")})


def _seed_bundle() -> dict:
    """A HEFT bundle over a PER_LINK chain with routed messages."""
    graph = TaskGraph("fork")
    for task, cost in (("a", 2.0), (1, 3.0), (2, 4.0)):
        graph.add_task(task, cost)
    graph.add_edge("a", 1, 5.0)
    graph.add_edge("a", 2, 6.0)
    # each task is fastest on its own processor, so messages cross links
    table = {"a": [2.0, 40.0, 40.0], 1: [30.0, 3.0, 30.0], 2: [40.0, 40.0, 4.0]}
    system = HeterogeneousSystem.from_exec_table(
        graph, _seed_topology(), table,
        link_mode=LinkHeterogeneity.PER_LINK,
        per_link_factors={(0, 1): 1.5, (1, 2): 2.0})
    doc = bundle_to_dict(schedule_heft(system))
    assert any(len(m["hops"]) == 2 for m in doc["schedule"]["messages"])
    return doc


_TRACE_VECTORS = {
    "format": "repro-trace", "version": 1, "name": "t", "n_procs": 2,
    "tasks": [{"id": "a", "costs": [1.0, 2.0]}, {"id": 1, "costs": [2.0, 1.0]}],
    "edges": [{"src": "a", "dst": 1, "comm": 1.5}],
}
_TRACE_SCALARS = {
    "format": "repro-trace", "version": 1, "name": "t",
    "tasks": [{"id": "a", "cost": 1.0}, {"id": 1, "cost": 2.0}],
    "edges": [{"src": "a", "dst": 1, "comm": 1.5}],
}
_WF_SPEC = {"name": "w", "workflow": {
    "specification": {
        "tasks": [{"id": "a", "parents": [], "children": ["b"],
                   "inputFiles": [], "outputFiles": ["f"]},
                  {"id": "b", "parents": ["a"], "children": [],
                   "inputFiles": ["f"], "outputFiles": []}],
        "files": [{"id": "f", "sizeInBytes": 2.0}]},
    "execution": {"tasks": [{"id": "a", "runtimeInSeconds": 1.0},
                            {"id": "b", "runtimeInSeconds": 2.0}]}}}
_WF_FLAT = {"name": "w", "workflow": {"tasks": [
    {"name": "a", "runtime": 1.0, "parents": [],
     "files": [{"name": "f", "link": "output", "size": 2.0}]},
    {"name": "b", "runtime": 2.0, "parents": ["a"],
     "files": [{"name": "f", "link": "input", "size": 2.0}]}]}}
_JSON_GRAPH = {"version": 1, "name": "g", "tasks": [["'a'", 1.0], ["1", 2.0]],
               "edges": [["'a'", "1", 0.5]]}
_EVENTS = {"format": "repro-event-trace", "version": 1, "events": [
    {"type": "arrival", "time": 1.0, "task": ["U", 1], "cost": 2.0,
     "deps": [["a", 1.0]], "exec_row": [2.0, 3.0]},
    {"type": "proc_failure", "time": 2.0, "proc": 1},
    {"type": "link_failure", "time": 3.0, "link": [0, 1]},
]}
_STG = "3\n0 10 0\n1 20 1 0\n2 30 1 0\n"
_SPEC = {"name": "chain3", "n_procs": 3, "links": [[0, 1], [1, 2]],
         "link_specs": {"0-1": {"bandwidth": 2.0, "duplex": "full"}}}
_REQUESTS = {
    "schedule": {"type": "schedule", "workload": "gauss", "size": 18,
                 "granularity": 1.0, "topology_spec": _SPEC,
                 "algorithm": "heft", "seed": 1, "bridge": "none",
                 "overlay": "ccr2", "duplex": "half", "bandwidth_skew": 1.0},
    "schedule-graph": {"type": "schedule", "graph": _STG, "format": "stg",
                       "topology": "ring", "n_procs": 4, "algorithm": "heft"},
    "convert": {"type": "convert", "graph": _STG, "from_fmt": "stg",
                "to_fmt": "trace", "default_comm": 1.0, "default_cost": 1.0,
                "validate_graph": True, "require_connected": True,
                "bridge": "none", "topology": False},
    "sweep": {"type": "sweep", "suite": "regular", "apps": ["gauss"],
              "sizes": [18], "granularities": [1.0], "topologies": ["ring"],
              "algorithms": ["heft"], "n_procs": 4, "het_lo": 1.0,
              "het_hi": 50.0, "graph_seeds": [0], "system_seeds": [0],
              "duplex": "half", "bandwidth_skew": 1.0, "scenarios": [""]},
    "simulate": {"type": "simulate", "workload": "gauss", "size": 18,
                 "topology": "ring", "n_procs": 4, "algorithm": "heft",
                 "scenario": "f1a1s0", "events": json.dumps(_EVENTS),
                 "compare_replan": True},
    "pareto": {"type": "pareto", "workload": "gauss", "size": 18,
               "topology": "ring", "n_procs": 4, "het_lo": 1.0, "het_hi": 50.0,
               "seed": 0, "algorithms": ["heft", "dls"],
               "objectives": ["makespan", "energy"]},
}


_MANIFEST = {"format": "repro-corpus-manifest", "version": 1,
             "directory": "corpus", "entries": [
                 {"path": "corpus/a.stg", "fmt": "stg", "name": "a",
                  "n_tasks": 3, "n_edges": 2, "components": 1, "ccr": 0.5,
                  "n_procs": None, "content_hash": "ab"},
                 {"path": "corpus/b.trace.json", "fmt": "trace", "name": "b",
                  "n_tasks": 2, "n_edges": 1, "components": 2, "ccr": 1.5,
                  "n_procs": 4, "content_hash": "cd"}]}


def _read_request(text):
    request_from_dict(loads(text, ConfigurationError, "request")).idempotency_key()


#: reader name -> (seed document, text -> parse and read)
READERS = {
    "topology": (json.loads(topology_to_json(_seed_topology())),
                 topology_from_json),
    "bundle": (_seed_bundle(),
               lambda text: schedule_violations(bundle_from_json(text))),
    "trace-vectors": (_TRACE_VECTORS, read_trace),
    "trace-scalars": (_TRACE_SCALARS, read_trace),
    "wfcommons-spec": (_WF_SPEC, read_wfcommons),
    "wfcommons-flat": (_WF_FLAT, read_wfcommons),
    "json-graph": (_JSON_GRAPH, graph_from_json),
    "events": (_EVENTS, lambda text: events_from_dict(
        loads(text, ConfigurationError, "event trace"))),
    "manifest": (_MANIFEST, Manifest.from_json),
    **{f"request-{name}": (seed, _read_request)
       for name, seed in _REQUESTS.items()},
}


class TestFuzzReaders:
    @pytest.mark.parametrize("hostile", sorted(HOSTILE))
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_parses_or_fails_typed(self, reader, hostile):
        seed, read = READERS[reader]
        read(_text(seed))  # the seed itself parses
        bad = _untyped_failures(read, seed, HOSTILE[hostile])
        assert not bad, "\n".join(bad[:10])


# ----------------------------------------------------------------------
# cached cell entries, read back through the sweep engine
# ----------------------------------------------------------------------

_CELL = Cell(suite="random", app="random", size=12, granularity=1.0,
             topology="ring", algorithm="heft", n_procs=4)


def _entry_path(directory, key):
    name = hashlib.sha256(key.encode("utf-8")).hexdigest() + ".json"
    return os.path.join(directory, name)


def _typed(result: CellResult) -> bool:
    """Whether every field of a served result has its type."""
    d = asdict(result)
    return (all(is_number(d[k]) for k in ("schedule_length", "total_comm_cost",
                                          "speedup", "normalized_sl", "runtime_s"))
            and all(is_int(d[k]) for k in ("n_tasks", "n_edges", "n_events"))
            and isinstance(d["objectives"], dict)
            and all(map(is_number, d["objectives"].values())))


@pytest.fixture(scope="module")
def cell_entry(tmp_path_factory):
    """The entry file a sweep writes for ``_CELL``, as a document."""
    directory = str(tmp_path_factory.mktemp("seed"))
    run_cells([_CELL], cache=ResultCache(directory))
    with open(_entry_path(directory, _CELL.key())) as fh:
        return json.load(fh)


class TestFuzzCellEntries:
    @pytest.mark.parametrize("hostile", sorted(HOSTILE))
    def test_entry_is_served_typed_or_recomputed(self, tmp_path, cell_entry,
                                                 hostile):
        bad = []
        for i, (path, text) in enumerate(_mutants(cell_entry, HOSTILE[hostile])):
            directory = str(tmp_path / str(i))
            os.makedirs(directory)
            with open(_entry_path(directory, _CELL.key()), "w") as fh:
                fh.write(text)
            try:
                results, report = run_cells([_CELL], cache=ResultCache(directory))
            except Exception as exc:  # noqa: BLE001 - the failure under test
                bad.append(f"{list(path)}: {type(exc).__name__}: {exc}"[:200])
                continue
            if report.failures or not _typed(results[_CELL.key()]):
                bad.append(f"{list(path)}: served {results.get(_CELL.key())}")
        assert not bad, "\n".join(bad[:10])


# ----------------------------------------------------------------------
# the HTTP leg: no mutated body is answered 500
# ----------------------------------------------------------------------

HTTP_SEEDS = {
    "/schedule": {k: v for k, v in _REQUESTS["schedule"].items() if k != "type"},
    "/convert": {"graph": _STG, "from_fmt": "stg", "to_fmt": "trace",
                 "default_comm": 1.0, "bridge": "none"},
    "/sweep": {"sizes": [12], "topologies": ["ring"], "n_procs": 4,
               "algorithms": ["heft"], "granularities": [1.0],
               "graph_seeds": [0]},
}


class TestFuzzHttp:
    @pytest.mark.parametrize("hostile", sorted(HOSTILE))
    @pytest.mark.parametrize("path", sorted(HTTP_SEEDS))
    def test_no_mutated_body_answers_500(self, server, path, hostile):
        bad = []
        for where, text in _mutants(HTTP_SEEDS[path], HOSTILE[hostile]):
            status, _, reply = _request(server, "POST", path, text.encode())
            if status == 500:
                bad.append(f"{list(where)}: {reply[:160]!r}")
        assert not bad, "\n".join(bad[:10])


# ----------------------------------------------------------------------
# the defects the shared rules removed, one test each
# ----------------------------------------------------------------------

#: 100 000 nested arrays: 200 KB, far under the 32 MiB body cap
DEEP_DOC = "[" * 100_000 + "]" * 100_000


class TestDeepNesting:
    @pytest.mark.parametrize("path,body,kind", [
        ("/schedule", DEEP_DOC, "configuration"),
        ("/schedule", json.dumps({
            "graph": '{"format": "repro-trace", "tasks": ' + DEEP_DOC + "}",
            "format": "trace", "topology": "ring", "n_procs": 4,
            "algorithm": "heft"}), "graph"),
        # no from_fmt: the format sniffer parses the text too
        ("/convert", json.dumps({
            "graph": '{"format": "repro-trace", "tasks": ' + DEEP_DOC + "}",
            "to_fmt": "stg"}), "graph"),
    ], ids=["raw-body", "inline-trace", "convert-sniffed"])
    def test_http_answers_400(self, server, path, body, kind):
        status, _, reply = _request(server, "POST", path, body.encode())
        doc = json.loads(reply)
        assert (status, doc["kind"]) == (400, kind), doc
        assert "not valid JSON" in doc["detail"] or "format" in doc["detail"]

    @pytest.mark.parametrize("entry", [
        "request-from-json", "manifest-from-json", "schedule-from-json",
        "inline-events", "topology-sniffer", "stg-name-directive"])
    def test_library_entry_points_fail_typed(self, tmp_path, entry):
        nested = '{"a": ' + DEEP_DOC + "}"
        if entry == "request-from-json":
            with pytest.raises(ConfigurationError, match="not valid JSON"):
                ScheduleRequest.from_json(DEEP_DOC)
        elif entry == "manifest-from-json":
            with pytest.raises(ConfigurationError, match="not valid JSON"):
                Manifest.from_json(DEEP_DOC)
        elif entry == "schedule-from-json":
            system = bundle_from_json(_text(_seed_bundle())).system
            with pytest.raises(SchedulingError, match="not valid JSON"):
                schedule_from_json(DEEP_DOC, system)
        elif entry == "inline-events":
            req = SimulateRequest(workload="gauss", size=18, topology="ring",
                                  n_procs=4, algorithm="heft", events=DEEP_DOC)
            with pytest.raises(ConfigurationError, match="not valid JSON"):
                execute(req, cache=ResultCache(str(tmp_path)))
        elif entry == "topology-sniffer":
            assert not is_topology_json(nested)
        else:
            # a name directive that is not JSON is the name as written
            wl = read_stg(f"#@ name {nested}\n2\n0 10 0\n1 20 1 0\n")
            assert wl.graph.name == nested

    @pytest.mark.parametrize("command,code", [
        ("convert", 4), ("replay", 9), ("trace", 9), ("simulate", 2)])
    def test_cli_exits_with_the_readers_code(self, tmp_path, capsys, command,
                                             code):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_DOC)
        argv = {
            "convert": ["convert", str(deep), str(tmp_path / "out.trace.json")],
            "replay": ["replay", str(deep)],
            "trace": ["trace", str(deep)],
            "simulate": ["simulate", "-w", "gauss", "-n", "18", "-t", "ring",
                         "-p", "4", "-a", "heft", "--events", str(deep)],
        }[command]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# text files read as bytes: graphs, event traces, manifests
# ----------------------------------------------------------------------

#: the example text graphs, one per text format
TEXT_GRAPHS = ("examples/graphs/forkjoin.stg",
               "examples/graphs/series_parallel.dot",
               "examples/corpus/montage_sample.dax")


def _byte_mutants(data: bytes):
    """A fixed set: a 0xff byte, a NUL and a truncation at five places."""
    n = len(data)
    for pos in sorted({0, n // 4, n // 2, 3 * n // 4, n - 1}):
        yield f"ff@{pos}", data[:pos] + b"\xff" + data[pos + 1:]
        yield f"nul@{pos}", data[:pos] + b"\x00" + data[pos + 1:]
        yield f"cut@{pos}", data[:pos]


class TestTextFiles:
    @pytest.mark.parametrize("graph", TEXT_GRAPHS)
    def test_mutated_graph_parses_or_fails_typed(self, tmp_path, capsys,
                                                 graph):
        with open(graph, "rb") as fh:
            data = fh.read()
        bad = []
        for name, mutant in _byte_mutants(data):
            path = tmp_path / (name + "_" + os.path.basename(graph))
            path.write_bytes(mutant)
            try:
                load_workload(str(path))
            except ReproError:
                pass
            except Exception as exc:  # noqa: BLE001 - the failure under test
                bad.append(f"{name}: {type(exc).__name__}: {exc}"[:200])
            code = main(["convert", str(path),
                         str(tmp_path / "out.trace.json")])
            err = capsys.readouterr().err
            if code == 70 or "Traceback" in err:  # 70: internal
                bad.append(f"{name}: convert exited {code}: {err[-200:]}")
        assert not bad, "\n".join(bad)

    def test_non_utf8_graph_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.stg"
        path.write_bytes(b"2\n0 10 0\n1 20 1 0\xff\n")
        for argv in (["convert", str(path), str(tmp_path / "out.trace.json")],
                     ["schedule", "--graph", str(path), "-a", "heft", "-t",
                      "ring", "-p", "4"]):
            assert main(argv) == 4, argv
            err = capsys.readouterr().err
            assert "is not valid UTF-8" in err and "Traceback" not in err

    def test_non_utf8_event_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(json.dumps(_EVENTS).encode() + b"\xff")
        assert main(["simulate", "-w", "gauss", "-n", "18", "-t", "ring",
                     "-p", "4", "-a", "heft", "--events", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not valid UTF-8" in err and "Traceback" not in err

    def test_non_utf8_manifest_fails_typed(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(json.dumps(_MANIFEST).encode() + b"\xff")
        with pytest.raises(ConfigurationError, match="is not valid UTF-8"):
            Manifest.load(str(path))

    def test_text_is_read_as_text_mode_reads_it(self, tmp_path):
        """Newlines translate as ``open(path)`` translates them, so
        content hashes and idempotency keys keep their bytes."""
        path = tmp_path / "g.stg"
        path.write_bytes("2\r\n0 10 0\r1 20 1 0\n# é\n".encode())
        with open(path) as fh:
            assert read_text(str(path), GraphError, "g") == fh.read()


class TestManifestEntries:
    @pytest.mark.parametrize("entries,field", [
        (5, "manifest field 'entries' must be a list"),
        ([5], r"manifest entries\[0\] must be an object"),
        ([{}], r"manifest entries\[0\].path is missing"),
        ([dict(_MANIFEST["entries"][0], n_tasks="3")],
         r"manifest entries\[0\].n_tasks must be an integer"),
        ([_MANIFEST["entries"][0], dict(_MANIFEST["entries"][1], ccr=True)],
         r"manifest entries\[1\].ccr must be a number"),
    ], ids=["entries-int", "entry-int", "entry-empty", "string-count",
            "bool-ccr"])
    def test_refused_naming_the_field(self, entries, field):
        doc = dict(_MANIFEST, entries=entries)
        with pytest.raises(ConfigurationError, match=field):
            Manifest.from_json(json.dumps(doc))

    def test_round_trip(self):
        manifest = Manifest.from_json(json.dumps(_MANIFEST))
        assert manifest.to_dict() == _MANIFEST


@pytest.fixture(scope="module")
def heft_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("heft") / "b.json"
    assert main(["schedule", "-w", "gauss", "-n", "20", "-t", "ring", "-p",
                 "4", "-a", "heft", "--export-bundle", str(path)]) == 0
    return json.loads(path.read_text())


def _first_routed(doc):
    return next(m for m in doc["schedule"]["messages"] if m["hops"])


class TestHugeIntegers:
    @pytest.mark.parametrize("where,field", [
        (lambda d: d["schedule"]["tasks"][0], r"schedule.tasks[0].start"),
        (lambda d: _first_routed(d)["hops"][0], ".hops[0].start"),
    ], ids=["task-start", "hop-start"])
    @pytest.mark.parametrize("command", ["replay", "trace"])
    def test_bundle_start_exits_9(self, tmp_path, capsys, heft_bundle, where,
                                  field, command):
        doc = copy.deepcopy(heft_bundle)
        where(doc)["start"] = 10 ** 400
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 9
        err = capsys.readouterr().err
        assert field in err and "must be a number" in err

    @pytest.mark.parametrize("bandwidth", [10 ** 400, float("inf")],
                             ids=["huge-int", "inf"])
    def test_topology_spec_bandwidth_answers_400(self, server, bandwidth):
        spec = {"n_procs": 4, "links": [[0, 1], [1, 2], [2, 3], [0, 3]],
                "link_specs": {"0-1": {"bandwidth": bandwidth}}}
        status, _, reply = _request(server, "POST", "/schedule", {
            "workload": "gauss", "size": 18, "algorithm": "heft",
            "topology_spec": spec})
        doc = json.loads(reply)
        assert (status, doc["kind"]) == (400, "topology"), doc
        assert "bandwidth" in doc["detail"]

    def test_link_spec_bandwidth_must_be_finite(self):
        with pytest.raises(TopologyError, match="positive and finite"):
            LinkSpec(bandwidth=float("inf"))
        with pytest.raises(TopologyError, match="positive and finite"):
            LinkSpec(bandwidth=10 ** 400)


class TestNoCoercion:
    @pytest.mark.parametrize("event", [
        {"type": "proc_failure", "time": True, "proc": 1},
        {"type": "proc_failure", "time": "10", "proc": 1},
        {"type": "proc_failure", "time": 10.0, "proc": 1.5},
        {"type": "proc_failure", "time": 10.0, "proc": True},
        {"type": "proc_failure", "time": 10.0, "proc": "1"},
        {"type": "arrival", "time": 10.0, "task": "x", "cost": 5.0, "exec_row": 0},
        {"type": "arrival", "time": 10.0, "task": "x", "cost": 5.0, "deps": ""},
    ], ids=["time-true", "time-string", "proc-float", "proc-true",
            "proc-string", "exec-row-zero", "deps-empty-string"])
    def test_simulate_refuses_event_value(self, tmp_path, capsys, event):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"format": "repro-event-trace",
                                     "version": 1, "events": [event]}))
        assert main(["simulate", "-w", "gauss", "-n", "18", "-t", "ring",
                     "-p", "4", "-a", "heft", "--events", str(trace)]) == 2
        assert "malformed event record" in capsys.readouterr().err

    @pytest.mark.parametrize("events", ["[]", "5", '"trace"', "null"])
    def test_inline_events_must_be_an_object(self, tmp_path, events):
        req = SimulateRequest(workload="gauss", size=18, topology="ring",
                              n_procs=4, algorithm="heft", events=events)
        with pytest.raises(ConfigurationError, match="event trace must be an object"):
            execute(req, cache=ResultCache(str(tmp_path)))

    @pytest.mark.parametrize("tag", [[], {}, 5, None])
    def test_request_type_must_be_a_known_string(self, tag):
        with pytest.raises(ConfigurationError, match="unknown request type"):
            request_from_dict({"type": tag})

    def test_generated_extension_workload_schedules(self, capsys):
        assert main(["schedule", "-w", "fft", "-n", "30", "-t", "ring", "-p",
                     "4", "-a", "heft"]) == 0


class TestCellEntries:
    """A cached cell entry file is untrusted: one that would not rebuild
    a typed CellResult is stale and recomputed, by run_cell and by the
    sweep engine alike."""

    SHAPES = {
        "missing-field": lambda v: v.pop("speedup"),
        "unknown-field": lambda v: v.update(makespan=1.0),
        "string-length": lambda v: v.update(schedule_length="x"),
        "true-count": lambda v: v.update(n_tasks=True),
        "float-count": lambda v: v.update(n_edges=3.0),
        "objectives-list": lambda v: v.update(objectives=[]),
        "objective-string": lambda v: v.update(objectives={"energy": "1"}),
    }

    @staticmethod
    def _plant(directory, mutate):
        fresh = run_cell(_CELL, use_cache=False)
        value = fresh.to_dict()
        mutate(value)
        with open(_entry_path(str(directory), _CELL.key()), "w") as fh:
            json.dump({"version": CACHE_VERSION, "key": _CELL.key(),
                       "value": value}, fh)
        return fresh

    @staticmethod
    def _same(a: CellResult, b: CellResult) -> bool:
        return dict(asdict(a), runtime_s=0) == dict(asdict(b), runtime_s=0)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_malformed_entry_is_recomputed(self, tmp_path, shape):
        fresh = self._plant(tmp_path, self.SHAPES[shape])
        results, report = run_cells([_CELL], cache=ResultCache(str(tmp_path)))
        assert (report.cache_hits, report.computed) == (0, 1)
        assert self._same(results[_CELL.key()], fresh)
        # the recompute overwrote the entry: a fresh handle now hits it
        results, report = run_cells([_CELL], cache=ResultCache(str(tmp_path)))
        assert report.cache_hits == 1

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_run_cell_recomputes_it(self, tmp_path, shape):
        fresh = self._plant(tmp_path, self.SHAPES[shape])
        assert self._same(run_cell(_CELL, cache=ResultCache(str(tmp_path))), fresh)

    def test_entry_without_the_later_fields_is_served(self, tmp_path):
        def drop(value):
            del value["n_events"], value["objectives"]
        fresh = self._plant(tmp_path, drop)
        results, report = run_cells([_CELL], cache=ResultCache(str(tmp_path)))
        assert report.cache_hits == 1
        assert self._same(results[_CELL.key()], fresh)

    def test_only_an_entry_read_from_disk_is_checked(self, tmp_path):
        calls = []

        def check(value):
            calls.append(value)
            return True

        cache = ResultCache(str(tmp_path))
        cache.put("written", {"a": 1})
        assert cache.get("written", check) == {"a": 1}
        assert calls == []
        fresh = ResultCache(str(tmp_path))
        for _ in range(3):
            assert fresh.get("written", check) == {"a": 1}
        assert len(calls) == 1
        assert fresh.get("written", lambda v: False) == {"a": 1}  # in memory
        assert ResultCache(str(tmp_path)).get("written", lambda v: False) is None


class TestCheckedRules:
    @pytest.mark.parametrize("value,kind,ok", [
        (1, is_int, True), (True, is_int, False), (1.0, is_int, False),
        (1, is_number, True), (1.5, is_number, True),
        (float("nan"), is_number, True), (10 ** 400, is_number, False),
        (-10 ** 400, is_number, False), ("1", is_number, False),
        (False, is_number, False), ({}, dict, True), ([], dict, False),
    ])
    def test_type_rules(self, value, kind, ok):
        if ok:
            assert want(value, kind, "f", ValueError) is value
        else:
            with pytest.raises(ValueError, match="^f must be "):
                want(value, kind, "f", ValueError)

    @pytest.mark.parametrize("data", [b"\xff", "{", DEEP_DOC, "1" * 5000])
    def test_loads_names_the_document(self, data):
        with pytest.raises(ConfigurationError, match="^the doc is not valid JSON"):
            loads(data, ConfigurationError, "the doc")

    def test_loads_keeps_json_values(self):
        doc = loads('{"a": [1, 2.5, NaN, true, null]}', ValueError, "doc")
        assert doc["a"][:2] == [1, 2.5] and math.isnan(doc["a"][2])
        assert doc["a"][3:] == [True, None]
