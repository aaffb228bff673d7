"""The canonical bundle text: the fixed-shape writers in
``repro.schedule.io`` must emit exactly ``json.dumps(bundle_to_dict(s),
indent=2)``, and the bundles the schedulers produce must take the
writers, not the ``json.dumps`` fallback."""

import hashlib
import json
import math
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import cache as cache_mod
from repro.experiments.runner import _SCHEDULERS
from repro.graph.interchange import load_workload
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import apply_link_model, fat_tree, ring
from repro.schedule.io import _bundle_text, bundle_to_dict, bundle_to_json
from repro.service import execute
from repro.service.requests import ScheduleRequest
from repro.workloads.suites import random_graph

ALGORITHMS = ("bsa", "heft", "cpop", "dls", "etf", "spdecomp")
TOPOLOGIES = ("ring", "torus", "hypercube", "fattree")

#: sha256 of the canonical bundle text for the CI serve-smoke body
CANONICAL_SHA256 = {
    "bsa": "ad9676bbe532b13f0833a11baa61d751bc7cb18765aa7da032ac8d83b9c5c01a",
    "heft": "f3076994c76c852f620e100546066ec0bb35b83d2d9fb270fcc3d1180ee00f9b",
}


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    """execute() binds the process-default ResultCache even with
    use_cache=False; keep it off the working directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache_mod, "_default_cache", None)
    yield
    cache_mod._default_cache = None


def _assert_writer_path(schedule) -> str:
    """The schedule's bundle takes the fixed-shape writers (a fallback
    would return None) and they reproduce the oracle's bytes."""
    doc = bundle_to_dict(schedule)
    oracle = json.dumps(doc, indent=2)
    assert _bundle_text(doc) == oracle
    assert bundle_to_json(schedule) == oracle
    return oracle


class TestSchedulerBundles:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_scheduler_and_topology(self, algorithm, topology):
        body = {"workload": "gauss", "size": 30, "topology": topology,
                "n_procs": 8, "algorithm": algorithm, "seed": 1}
        resp = execute(ScheduleRequest.from_dict(body), use_cache=False)
        oracle = _assert_writer_path(resp.extra["schedule"])
        assert resp.bundle_text == oracle + "\n"

    @pytest.mark.parametrize("duplex,skew", [("full", 1.0), ("half", 6.0),
                                             ("full", 6.0)])
    def test_duplex_and_bandwidth_skew(self, duplex, skew):
        body = {"workload": "gauss", "size": 30, "topology": "ring",
                "n_procs": 8, "algorithm": "heft", "seed": 2,
                "duplex": duplex, "bandwidth_skew": skew}
        resp = execute(ScheduleRequest.from_dict(body), use_cache=False)
        _assert_writer_path(resp.extra["schedule"])

    def test_per_message_link_system(self):
        workload = load_workload("examples/corpus/fft8.trace.json")
        topology = apply_link_model(
            fat_tree(8), duplex="full", bandwidth_skew=4.0, seed=3
        )
        system = workload.bind(topology, link_het_range=(1.0, 5.0), seed=9)
        assert system.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK
        _assert_writer_path(_SCHEDULERS["dls"](system))

    def test_int_task_ids(self):
        graph = random_graph(15, seed=2)
        assert all(type(t) is int for t in graph.tasks())
        system = HeterogeneousSystem.sample(
            graph, ring(4), het_range=(2.0, 10.0), seed=1
        )
        _assert_writer_path(_SCHEDULERS["heft"](system))

    def test_off_shape_schedule_falls_back(self):
        class Time(float):
            pass

        system = HeterogeneousSystem.sample(random_graph(12, seed=1), ring(4))
        schedule = _SCHEDULERS["heft"](system)
        slot = next(iter(schedule.slots.values()))
        slot.start = Time(slot.start)
        doc = bundle_to_dict(schedule)
        assert _bundle_text(doc) is None
        assert bundle_to_json(schedule) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("algorithm", sorted(CANONICAL_SHA256))
    def test_canonical_bytes_pinned(self, algorithm):
        body = {"workload": "gauss", "size": 30, "topology": "ring",
                "n_procs": 4, "algorithm": algorithm, "seed": 1}
        text = execute(ScheduleRequest.from_dict(body),
                       use_cache=False).bundle_text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == CANONICAL_SHA256[algorithm]


# ----------------------------------------------------------------------
# hypothesis-built documents of the bundle's shape
# ----------------------------------------------------------------------

AWKWARD_TEXT = ["", '"', "\\", "'a'", "é", "日本", "\x00", "\n", "\x7f",
                "\ud800", "\udfff", "a b", "\U0001f600"]
FLOATS = [-0.0, 0.0, 5e-324, 1e22, 1e16, 0.1, math.nan, math.inf, -math.inf]

texts = st.one_of(
    st.sampled_from(AWKWARD_TEXT),
    st.text(st.characters(exclude_categories=()), max_size=8),
)
ids = st.one_of(texts, st.integers())
numbers = st.one_of(st.sampled_from(FLOATS), st.floats(), st.integers())


def _entry(keys, *values):
    return st.tuples(*values).map(lambda vals: dict(zip(keys, vals)))


graph_tasks = st.lists(_entry(("id", "costs"), ids,
                              st.lists(numbers, max_size=4)), max_size=4)
graph_edges = st.lists(_entry(("src", "dst", "comm"), ids, ids, numbers),
                       max_size=4)
schedule_tasks = st.lists(
    _entry(("task", "proc", "start", "finish"), texts, st.integers(),
           numbers, numbers), max_size=4)
hops = st.lists(_entry(("src", "dst", "start", "finish"), st.integers(),
                       st.integers(), numbers, numbers), max_size=3)
messages = st.lists(_entry(("edge", "local", "hops"),
                           st.lists(texts, min_size=2, max_size=2),
                           st.booleans(), hops), max_size=4)


@st.composite
def bundle_docs(draw):
    """A document with every key of a bundle, in bundle order."""
    return {
        "format": "repro-schedule-bundle",
        "version": 1,
        "graph": {
            "format": "repro-trace",
            "version": 1,
            "name": draw(texts),
            "n_procs": draw(st.integers(0, 4)),
            "tasks": draw(graph_tasks),
            "edges": draw(graph_edges),
        },
        "nominal_costs": draw(st.lists(numbers, max_size=3)),
        "topology": {"name": draw(texts), "n_procs": 2, "links": [[0, 1]],
                     "link_specs": {"0-1": {"bandwidth": draw(numbers)}}},
        "link_model": {"mode": "HOMOGENEOUS", "factor_range": [1.0, 1.0],
                       "seed": 0, "per_link": {draw(texts): draw(numbers)}},
        "schedule": {
            "version": 1,
            "algorithm": draw(texts),
            "graph": draw(texts),
            "topology": draw(texts),
            "schedule_length": draw(numbers),
            "tasks": draw(schedule_tasks),
            "messages": draw(messages),
        },
    }


class _Proc(IntEnum):
    P0 = 0


class _Int(int):
    pass


#: ways to knock one entry of one bulk list off its fixed shape
_OFF_SHAPE = [
    ("graph", "tasks", {"id": "a"}),                              # missing key
    ("graph", "tasks", {"id": "a", "costs": [1.0], "x": 1}),      # extra key
    ("graph", "tasks", {"costs": [1.0], "id": "a"}),              # key order
    ("graph", "tasks", {"id": "a", "cost": [1.0]}),               # renamed key
    ("graph", "tasks", {"id": 1.5, "costs": []}),                 # float id
    ("graph", "tasks", {"id": None, "costs": []}),                # null id
    ("graph", "tasks", {"id": True, "costs": []}),                # bool id
    ("graph", "tasks", {"id": "a", "costs": (1.0,)}),             # tuple
    ("graph", "tasks", {"id": "a", "costs": [False]}),            # bool cost
    ("graph", "edges", {"src": "a", "dst": _Int(2), "comm": 1.0}),  # int subclass
    ("graph", "edges", {"src": "a", "dst": "b", "comm": "1"}),    # str number
    ("schedule", "tasks", {"task": "a", "proc": True, "start": 0.0,
                           "finish": 1.0}),                       # bool proc
    ("schedule", "tasks", {"task": "a", "proc": _Proc.P0, "start": 0.0,
                           "finish": 1.0}),                       # IntEnum proc
    ("schedule", "tasks", {"task": ["a"], "proc": 0, "start": 0.0,
                           "finish": 1.0}),                       # list id
    ("schedule", "messages", {"edge": ["a", "b"], "local": 1,
                              "hops": []}),                       # int local
    ("schedule", "messages", {"edge": ["a", "b"], "local": False,
                              "hops": [{"src": 0, "dst": 1,
                                        "start": 0.0}]}),         # hop missing key
    ("schedule", "messages", {"edge": ["a", "b"], "local": False, "hops": [
        {"dst": 1, "src": 0, "start": 0.0, "finish": 1.0}]}),     # hop key order
    ("schedule", "messages", {"edge": ["a", "b"], "local": False,
                              "hops": [[0, 1, 0.0, 1.0]]}),       # hop list
    ("schedule", "messages", ["a", "b"]),                         # not a dict
]


class TestGeneratedDocuments:
    @settings(max_examples=200, deadline=None)
    @given(bundle_docs())
    def test_writer_matches_json_dumps(self, doc):
        assert _bundle_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("section,name,entry", _OFF_SHAPE)
    @settings(max_examples=10, deadline=None)
    @given(doc=bundle_docs(), at=st.integers(0, 4))
    def test_off_shape_entry_takes_the_fallback(self, section, name, entry,
                                                doc, at):
        entries = doc[section][name]
        entries.insert(min(at, len(entries)), entry)
        assert _bundle_text(doc) is None
        json.dumps(doc, indent=2)  # the fallback still renders it

    def test_empty_lists_and_special_floats(self):
        doc = {
            "graph": {"tasks": [{"id": "", "costs": []}], "edges": []},
            "schedule": {
                "tasks": [],
                "messages": [{"edge": ["'a'", "'b'"], "local": True,
                              "hops": []},
                             {"edge": ["x", "y"], "local": False, "hops": [
                                 {"src": 0, "dst": 1, "start": -0.0,
                                  "finish": math.inf},
                                 {"src": 1, "dst": 2, "start": math.nan,
                                  "finish": -math.inf}]}],
            },
            "nominal_costs": [],
        }
        text = _bundle_text(doc)
        assert text == json.dumps(doc, indent=2)
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text

    def test_sections_off_shape_fall_back(self):
        assert _bundle_text({"graph": [], "schedule": {}}) is None
        assert _bundle_text({"schedule": {"tasks": {}}}) is None
        assert _bundle_text({1: "x"}) is None
        # a document without the bulk sections is written whole by
        # json.dumps pieces and still matches
        assert _bundle_text({}) == "{}"
        assert _bundle_text({"a": [1, {"b": "\n"}]}) == json.dumps(
            {"a": [1, {"b": "\n"}]}, indent=2)
