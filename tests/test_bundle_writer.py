"""The canonical bundle text: ``bundle_to_json``'s direct writer must
emit exactly ``json.dumps(bundle_to_dict(s), indent=2)`` from the live
schedule, the bundles the schedulers produce must take the direct path,
and a value the writer does not write as json does must send the whole
schedule to the ``json.dumps`` fallback."""

import hashlib
import json
import math
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.experiments import cache as cache_mod
from repro.experiments.runner import _SCHEDULERS
from repro.graph.interchange import load_workload, relabel_tasks
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import (
    apply_link_model,
    fat_tree,
    hypercube,
    ring,
    torus2d,
)
from repro.schedule.io import _OffShape, _write_bundle, bundle_to_dict, bundle_to_json
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


def _oracle(schedule) -> str:
    return json.dumps(bundle_to_dict(schedule), indent=2)


def _assert_direct_path(schedule) -> str:
    """The schedule's bundle takes the direct writer (the fallback is
    signalled by _OffShape) and it reproduces the oracle's bytes."""
    oracle = _oracle(schedule)
    assert _write_bundle(schedule) == oracle
    assert bundle_to_json(schedule) == oracle
    return oracle


def _assert_fallback(schedule) -> None:
    with pytest.raises(_OffShape):
        _write_bundle(schedule)
    assert bundle_to_json(schedule) == _oracle(schedule)


class TestSchedulerBundles:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_scheduler_and_topology(self, algorithm, topology):
        body = {"workload": "gauss", "size": 30, "topology": topology,
                "n_procs": 8, "algorithm": algorithm, "seed": 1}
        resp = execute(ScheduleRequest.from_dict(body), use_cache=False)
        oracle = _assert_direct_path(resp.extra["schedule"])
        assert resp.bundle_text == oracle + "\n"

    @pytest.mark.parametrize("duplex,skew", [("full", 1.0), ("half", 6.0),
                                             ("full", 6.0)])
    def test_duplex_and_bandwidth_skew(self, duplex, skew):
        body = {"workload": "gauss", "size": 30, "topology": "ring",
                "n_procs": 8, "algorithm": "heft", "seed": 2,
                "duplex": duplex, "bandwidth_skew": skew}
        resp = execute(ScheduleRequest.from_dict(body), use_cache=False)
        _assert_direct_path(resp.extra["schedule"])

    def test_per_message_link_system(self):
        workload = load_workload("examples/corpus/fft8.trace.json")
        topology = apply_link_model(
            fat_tree(8), duplex="full", bandwidth_skew=4.0, seed=3
        )
        system = workload.bind(topology, link_het_range=(1.0, 5.0), seed=9)
        assert system.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK
        _assert_direct_path(_SCHEDULERS["dls"](system))

    def test_int_task_ids(self):
        graph = random_graph(15, seed=2)
        assert all(type(t) is int for t in graph.tasks())
        system = HeterogeneousSystem.sample(
            graph, ring(4), het_range=(2.0, 10.0), seed=1
        )
        _assert_direct_path(_SCHEDULERS["heft"](system))

    def test_renamed_per_message_link_system_refused(self):
        """Both paths run the one id rule, so a PER_MESSAGE_LINK system
        whose tuple ids need renaming is refused by each."""
        from repro.workloads.forkjoin import fork_join

        system = HeterogeneousSystem.sample(
            fork_join(2, 2), ring(4), link_het_range=(1.0, 5.0), seed=1)
        schedule = _SCHEDULERS["heft"](system)
        for export in (bundle_to_dict, _write_bundle, bundle_to_json):
            with pytest.raises(SchedulingError, match="PER_MESSAGE_LINK"):
                export(schedule)

    @pytest.mark.parametrize("algorithm", sorted(CANONICAL_SHA256))
    def test_canonical_bytes_pinned(self, algorithm):
        body = {"workload": "gauss", "size": 30, "topology": "ring",
                "n_procs": 4, "algorithm": algorithm, "seed": 1}
        text = execute(ScheduleRequest.from_dict(body),
                       use_cache=False).bundle_text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == CANONICAL_SHA256[algorithm]


# ----------------------------------------------------------------------
# hypothesis-built schedules: awkward ids, awkward times
# ----------------------------------------------------------------------

AWKWARD_TEXT = ["", '"', "\\", "'a'", "é", "日本", "\x00", "\n", "\x7f",
                "\ud800", "\udfff", "a b", "\U0001f600"]
#: finite times json writes as their repr: the writer must too
EDGE_TIMES = [-0.0, 5e-324, 1e16, 1e22, 7]

texts = st.one_of(
    st.sampled_from(AWKWARD_TEXT),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
LINK_MODES = list(LinkHeterogeneity)


def _topology(name: str, duplex: str, skew: float):
    base = {"ring": lambda: ring(4), "torus": lambda: torus2d(2, 3),
            "hypercube": lambda: hypercube(4),
            "fattree": lambda: fat_tree(6)}[name]()
    return apply_link_model(base, duplex=duplex, bandwidth_skew=skew, seed=5)


def _system(graph, topology, mode: LinkHeterogeneity, seed: int):
    if mode is LinkHeterogeneity.PER_MESSAGE_LINK:
        return HeterogeneousSystem.sample(
            graph, topology, link_het_range=(1.0, 4.0), seed=seed)
    sampled = HeterogeneousSystem.sample(graph, topology, seed=seed)
    if mode is LinkHeterogeneity.HOMOGENEOUS:
        return sampled
    return HeterogeneousSystem.from_exec_table(
        graph, topology,
        {t: sampled.exec_cost_row(t) for t in graph.tasks()},
        link_mode=mode,
        per_link_factors={lid: 1.0 + (sum(lid) % 3) * 0.75
                          for lid in topology.links})


@st.composite
def schedules(draw):
    """A schedule from any scheduler, topology and link mode over a
    small graph whose ids are ints, tuples, awkward strs or a mix, with
    some task and hop times set to EDGE_TIMES."""
    n = draw(st.integers(2, 9))
    base = random_graph(n, seed=draw(st.integers(0, 40)))
    kind = draw(st.sampled_from(["int", "tuple", "str", "mixed"]))
    if kind == "int":
        graph = base
    else:
        words = draw(st.lists(texts, min_size=n, max_size=n, unique=True))
        if kind == "tuple":  # the int part keeps the renamed ids apart
            ids = [(w, i) for i, w in enumerate(words)]
        elif kind == "str":
            ids = words
        else:
            ids = [w if i % 2 else i for i, w in enumerate(words)]
        rename = dict(zip(base.tasks(), ids))
        graph = relabel_tasks(base, rename.__getitem__)
    topology = _topology(draw(st.sampled_from(TOPOLOGIES)),
                         draw(st.sampled_from(["half", "full"])),
                         draw(st.sampled_from([1.0, 4.0])))
    mode = draw(st.sampled_from(LINK_MODES))
    system = _system(graph, topology, mode, draw(st.integers(0, 9)))
    schedule = _SCHEDULERS[draw(st.sampled_from(ALGORITHMS))](system)
    hops = [h for route in schedule.routes.values() for h in route.hops]
    for obj in draw(st.lists(st.sampled_from(
            list(schedule.slots.values()) + hops), max_size=4)):
        setattr(obj, draw(st.sampled_from(["start", "finish"])),
                draw(st.sampled_from(EDGE_TIMES)))
    return schedule


class TestGeneratedSchedules:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedules())
    def test_direct_path_matches_json_dumps(self, schedule):
        system = schedule.system
        renamed = any(type(t) not in (int, str) for t in system.graph.tasks())
        if (renamed and system.link_mode
                is LinkHeterogeneity.PER_MESSAGE_LINK):
            for export in (bundle_to_dict, bundle_to_json):
                with pytest.raises(SchedulingError):
                    export(schedule)
            return
        _assert_direct_path(schedule)

    def test_ids_and_times_json_escapes(self):
        """One deterministic schedule with every awkward id text and
        every edge time at once."""
        base = random_graph(len(AWKWARD_TEXT), seed=3)
        graph = relabel_tasks(base, dict(zip(base.tasks(), AWKWARD_TEXT))
                              .__getitem__)
        schedule = _SCHEDULERS["heft"](
            HeterogeneousSystem.sample(graph, ring(4), seed=2))
        hops = [h for route in schedule.routes.values() for h in route.hops]
        assert hops
        for obj, time in zip(list(schedule.slots.values()) + hops,
                             EDGE_TIMES * 2):
            obj.start = time
        text = _assert_direct_path(schedule)
        assert "\\ud800" in text and "-0.0" in text and "1e+22" in text


class _Proc(IntEnum):
    P0 = 0


class _Time(float):
    pass


#: (what, mutation) pairs that knock one value off the direct writer
_OFF_SHAPE = [
    ("nan slot start", lambda slot, hop: setattr(slot, "start", math.nan)),
    ("inf slot finish", lambda slot, hop: setattr(slot, "finish", math.inf)),
    ("-inf hop start", lambda slot, hop: setattr(hop, "start", -math.inf)),
    ("nan hop finish", lambda slot, hop: setattr(hop, "finish", math.nan)),
    ("float subclass start",
     lambda slot, hop: setattr(slot, "start", _Time(slot.start))),
    ("float subclass hop", lambda slot, hop: setattr(hop, "finish", _Time(1.5))),
    ("bool proc", lambda slot, hop: setattr(slot, "proc", True)),
    ("IntEnum proc", lambda slot, hop: setattr(slot, "proc", _Proc.P0)),
    ("bool hop src", lambda slot, hop: setattr(hop, "src", False)),
    ("int past float range", lambda slot, hop: setattr(slot, "start", 10 ** 400)),
]


class TestFallback:
    @pytest.mark.parametrize("what,mutate", _OFF_SHAPE,
                             ids=[w for w, _ in _OFF_SHAPE])
    @pytest.mark.parametrize("algorithm", ["heft", "bsa"])
    def test_off_shape_value_takes_the_fallback(self, what, mutate,
                                                algorithm):
        system = HeterogeneousSystem.sample(random_graph(12, seed=1), ring(4))
        schedule = _SCHEDULERS[algorithm](system)
        slot = list(schedule.slots.values())[3]
        hop = next(h for r in schedule.routes.values() for h in r.hops)
        mutate(slot, hop)
        _assert_fallback(schedule)

    def test_non_str_algorithm_takes_the_fallback(self):
        system = HeterogeneousSystem.sample(random_graph(8, seed=1), ring(4))
        schedule = _SCHEDULERS["heft"](system)
        schedule.algorithm = None
        _assert_fallback(schedule)
        assert '"algorithm": null' in bundle_to_json(schedule)
