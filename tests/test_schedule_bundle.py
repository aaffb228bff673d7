"""Schedule bundles: export trace graph + topology + schedule, re-import
without the generating code, and replay through the strict validator.
"""

import copy
import json
import math

import pytest

from repro.errors import (
    ConfigurationError,
    GraphError,
    InvalidScheduleError,
    SchedulingError,
)
from repro.experiments.runner import _SCHEDULERS, build_cell_system
from repro.graph.interchange import load_workload, relabel_tasks
from repro.graph.model import TaskGraph
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import apply_link_model, fat_tree, ring
from repro.schedule.io import (
    bundle_from_dict,
    bundle_from_json,
    bundle_to_dict,
    bundle_to_json,
    read_bundle,
    schedule_to_json,
    write_bundle,
)
from repro.schedule.validator import validate_schedule
from repro.workloads.external import external_cell
from repro.workloads.suites import random_graph, regular_graph

TRACE_PATH = "examples/corpus/fft8.trace.json"


def _bsa_schedule():
    cell = external_cell(TRACE_PATH, algorithm="bsa", topology="ring")
    return _SCHEDULERS["bsa"](build_cell_system(cell))


class TestGoldenReplay:
    def test_bundle_replays_through_validator(self, tmp_path):
        """The golden replay: write a bundle, read it back cold, and the
        rebuilt schedule is validator-clean and byte-identical."""
        schedule = _bsa_schedule()
        path = str(tmp_path / "run.bundle.json")
        write_bundle(schedule, path)
        replay = read_bundle(path)
        validate_schedule(replay)  # full audit, no generating code
        assert schedule_to_json(replay) == schedule_to_json(schedule)
        assert replay.schedule_length() == schedule.schedule_length()
        assert replay.algorithm == schedule.algorithm

    def test_rebuilt_system_is_exact(self):
        schedule = _bsa_schedule()
        replay = bundle_from_dict(bundle_to_dict(schedule))
        original = schedule.system
        rebuilt = replay.system
        assert rebuilt.graph.tasks() == original.graph.tasks()
        for t in original.graph.tasks():
            assert rebuilt.exec_cost_row(t) == original.exec_cost_row(t)
            assert rebuilt.graph.cost(t) == original.graph.cost(t)
        assert rebuilt.topology.to_dict() == original.topology.to_dict()

    def test_heterogeneous_link_model_survives(self):
        # full-duplex skewed fat tree + per-message link factors: the
        # bundle must reproduce every hop duration exactly
        workload = load_workload(TRACE_PATH)
        topology = apply_link_model(
            fat_tree(8), duplex="full", bandwidth_skew=4.0, seed=3
        )
        system = workload.bind(topology, link_het_range=(1.0, 5.0), seed=9)
        assert system.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK
        schedule = _SCHEDULERS["dls"](system)
        replay = bundle_from_json(bundle_to_json(schedule))
        validate_schedule(replay)
        assert schedule_to_json(replay) == schedule_to_json(schedule)

    def test_nominal_costs_survive_heterogeneity(self):
        # sampled systems with het_lo > 1 have nominal != min(vector);
        # the bundle records nominal costs explicitly
        graph = random_graph(15, seed=2)
        system = HeterogeneousSystem.sample(
            graph, ring(4), het_range=(2.0, 10.0), seed=1
        )
        schedule = _SCHEDULERS["heft"](system)
        replay = bundle_from_dict(bundle_to_dict(schedule))
        for t in graph.tasks():
            assert replay.system.graph.cost(t) == graph.cost(t)
        assert schedule_to_json(replay) == schedule_to_json(schedule)

    def test_tuple_ids_are_renamed(self):
        """Tuple ids are written through relabel_tasks' default rename:
        the bundle equals the one exported from the same run over the
        relabeled graph, and it replays validator-clean."""
        from repro.workloads.forkjoin import fork_join

        graph = fork_join(2, 3)
        system = HeterogeneousSystem.sample(graph, ring(4), seed=0)
        blob = bundle_to_dict(_SCHEDULERS["heft"](system))
        relabeled = relabel_tasks(graph)
        system2 = HeterogeneousSystem.sample(relabeled, ring(4), seed=0)
        assert blob == bundle_to_dict(_SCHEDULERS["heft"](system2))
        replay = bundle_from_dict(blob)
        validate_schedule(replay)
        assert replay.system.graph.tasks() == relabeled.tasks()


class TestTupleIdExport:
    def test_export_leaves_the_schedule_untouched(self):
        graph = regular_graph("gauss", 30, 1.0, seed=1)
        system = HeterogeneousSystem.sample(graph, ring(4), seed=1)
        schedule = _SCHEDULERS["heft"](system)
        before = schedule_to_json(schedule)
        bundle_to_dict(schedule)
        assert system.graph is graph
        assert graph.tasks() == regular_graph("gauss", 30, 1.0, seed=1).tasks()
        assert schedule_to_json(schedule) == before
        assert all(type(t) is tuple for t in schedule.slots)
        assert all(type(t) is tuple
                   for order in schedule.proc_order.values() for t in order)
        hops = [h for route in schedule.routes.values() for h in route.hops]
        assert hops and all(
            type(h.edge[0]) is tuple and type(h.edge[1]) is tuple for h in hops)

    def test_per_message_link_system_refused(self):
        """Per-message link factors are keyed by task id, so renaming
        would change hop costs: refuse rather than export a bundle that
        fails its own replay audit."""
        system = HeterogeneousSystem.sample(
            regular_graph("gauss", 30, 1.0, seed=1), ring(4),
            link_het_range=(1.0, 5.0))
        assert system.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK
        schedule = _SCHEDULERS["heft"](system)
        with pytest.raises(SchedulingError, match="PER_MESSAGE_LINK"):
            bundle_to_dict(schedule)
        with pytest.raises(SchedulingError, match="PER_MESSAGE_LINK"):
            bundle_to_json(schedule)

    def test_colliding_renamed_ids_refused(self):
        graph = TaskGraph("collide")
        graph.add_task(("U", 1, 2), 3.0)
        graph.add_task("U_1_2", 4.0)
        graph.add_edge(("U", 1, 2), "U_1_2", 1.0)
        system = HeterogeneousSystem.sample(graph, ring(4), seed=0)
        with pytest.raises(GraphError, match="collapsed"):
            bundle_to_dict(_SCHEDULERS["heft"](system))

    def test_simulate_arrival_exports_and_replays(self, tmp_path, capsys):
        """An arrival adds the str id ``dyn0`` among gauss's tuple ids;
        ``repro simulate --export-bundle`` writes the live schedule's
        canonical text and it replays validator-clean."""
        from repro.cli import main

        path = tmp_path / "sim.bundle.json"
        assert main(["simulate", "-w", "gauss", "-n", "40", "-t", "ring",
                     "-p", "8", "--seed", "3", "--scenario", "f1a1s0",
                     "--export-bundle", str(path)]) == 0
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        ids = [entry["id"] for entry in doc["graph"]["tasks"]]
        assert "dyn0" in ids and "U_1_2" in ids
        replay = read_bundle(str(path))
        validate_schedule(replay)
        assert "'dyn0'" in {entry["task"] for entry in doc["schedule"]["tasks"]}


def _first_routed(blob):
    return next(m for m in blob["schedule"]["messages"] if m["hops"])


#: (id, mutation of a valid bundle dict, the field the error must name)
MALFORMED = [
    ("no-schedule", lambda b: b.pop("schedule"), "schedule must be an object"),
    ("list-schedule", lambda b: b.update(schedule=[]),
     "schedule must be an object"),
    ("no-schedule-tasks", lambda b: b["schedule"].pop("tasks"),
     "schedule.tasks must be a list"),
    ("task-not-object", lambda b: b["schedule"]["tasks"].insert(0, 3),
     r"schedule.tasks\[0\] must be an object"),
    ("start-string", lambda b: b["schedule"]["tasks"][0].update(start="x"),
     r"schedule.tasks\[0\].start must be a number"),
    ("start-bool", lambda b: b["schedule"]["tasks"][0].update(start=True),
     r"schedule.tasks\[0\].start must be a number"),
    ("no-proc", lambda b: b["schedule"]["tasks"][0].pop("proc"),
     r"schedule.tasks\[0\].proc must be an integer"),
    ("proc-string", lambda b: b["schedule"]["tasks"][0].update(proc="x"),
     r"schedule.tasks\[0\].proc must be an integer"),
    ("proc-out-of-range", lambda b: b["schedule"]["tasks"][0].update(proc=-1),
     r"schedule.tasks\[0\].proc names processor -1"),
    ("edge-one-task", lambda b: b["schedule"]["messages"][0].update(edge=["x"]),
     r"schedule.messages\[0\].edge must name 2 tasks"),
    ("no-local", lambda b: b["schedule"]["messages"][0].pop("local"),
     r"schedule.messages\[0\].local must be true or false"),
    ("hops-object", lambda b: _first_routed(b).update(hops={}),
     r"hops must be a list"),
    ("hop-no-dst", lambda b: _first_routed(b)["hops"][0].pop("dst"),
     r"hops\[0\].dst must be an integer"),
    ("hop-start-string", lambda b: _first_routed(b)["hops"][0].update(start="x"),
     r"hops\[0\].start must be a number"),
    ("no-finish", lambda b: b["schedule"]["tasks"][0].pop("finish"),
     r"schedule.tasks\[0\].finish must be a number"),
    ("finish-bool", lambda b: b["schedule"]["tasks"][0].update(finish=True),
     r"schedule.tasks\[0\].finish must be a number"),
    ("hop-no-finish", lambda b: _first_routed(b)["hops"][0].pop("finish"),
     r"hops\[0\].finish must be a number"),
    ("length-string", lambda b: b["schedule"].update(schedule_length="1"),
     "schedule.schedule_length must be a number"),
    ("length-not-latest", lambda b: b["schedule"].update(schedule_length=123),
     "schedule.schedule_length is 123, but the latest recorded finish"),
    ("nominal-nulls",
     lambda b: b.update(nominal_costs=[None] * len(b["nominal_costs"])),
     r"nominal_costs\[0\] must be a number"),
    ("no-graph", lambda b: b.pop("graph"), "graph must be an object"),
    ("no-topology", lambda b: b.pop("topology"), "topology must be an object"),
    ("link-model-list", lambda b: b.update(link_model=[1]),
     "link_model must be an object"),
    ("link-mode-list", lambda b: b["link_model"].update(mode=[]),
     "link_model.mode must be a string"),
    ("factor-range-scalar", lambda b: b["link_model"].update(factor_range=5),
     "link_model.factor_range must be a list"),
    ("per-link-key", lambda b: b["link_model"].update(per_link={"a-b": 1.0}),
     "link_model.per_link key 'a-b'"),
]


@pytest.fixture(scope="module")
def bundle_blob():
    return bundle_to_dict(_bsa_schedule())


class TestErrorPaths:
    @pytest.mark.parametrize("mutate,field", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_section_names_the_field(self, bundle_blob, mutate, field):
        """Bundles are untrusted: every malformed section fails as a
        SchedulingError naming its field (exit 9), never as a KeyError,
        TypeError, IndexError or AttributeError."""
        blob = copy.deepcopy(bundle_blob)
        mutate(blob)
        with pytest.raises(SchedulingError, match=field):
            bundle_from_dict(copy.deepcopy(blob))
        with pytest.raises(SchedulingError, match=field):
            bundle_from_json(json.dumps(blob))

    def test_wrong_format_and_version(self):
        with pytest.raises(SchedulingError, match="not a repro-schedule-bundle"):
            bundle_from_dict({})
        with pytest.raises(SchedulingError, match="version"):
            bundle_from_dict({"format": "repro-schedule-bundle", "version": 9})
        with pytest.raises(SchedulingError, match="not valid JSON"):
            bundle_from_json("{")

    def test_scalar_graph_rejected(self):
        blob = bundle_to_dict(_bsa_schedule())
        for entry in blob["graph"]["tasks"]:
            entry["cost"] = min(entry.pop("costs"))
        blob["graph"].pop("n_procs")
        with pytest.raises(SchedulingError, match="exec-cost vectors"):
            bundle_from_dict(json.loads(json.dumps(blob)))

    def test_nominal_cost_count_mismatch(self):
        blob = bundle_to_dict(_bsa_schedule())
        blob["nominal_costs"] = blob["nominal_costs"][:-1]
        with pytest.raises(SchedulingError, match="nominal"):
            bundle_from_dict(blob)

    def test_unknown_link_mode(self):
        blob = bundle_to_dict(_bsa_schedule())
        blob["link_model"]["mode"] = "WARP"
        with pytest.raises(SchedulingError, match="link heterogeneity"):
            bundle_from_dict(blob)


class TestRecordedTimes:
    """A replay audits the bundle's own times: every recorded finish is
    kept, so the validator's duration checks judge it."""

    def test_tampered_task_finish_fails_the_audit(self, bundle_blob):
        blob = copy.deepcopy(bundle_blob)
        entry = blob["schedule"]["tasks"][0]
        entry["finish"] += 1000.0
        blob["schedule"]["schedule_length"] = max(
            t["finish"] for t in blob["schedule"]["tasks"])
        replay = bundle_from_json(json.dumps(blob))
        first = next(iter(replay.slots.values()))
        assert first.finish == entry["finish"]
        with pytest.raises(InvalidScheduleError, match="duration"):
            validate_schedule(replay)

    def test_tampered_hop_finish_fails_the_audit(self, bundle_blob):
        blob = copy.deepcopy(bundle_blob)
        _first_routed(blob)["hops"][0]["finish"] += 500.0
        with pytest.raises(InvalidScheduleError, match="hop 0 duration"):
            validate_schedule(bundle_from_json(json.dumps(blob)))

    def test_tampered_hop_src_fails_the_audit(self, bundle_blob):
        """Each hop's recorded src is kept too, not re-chained from the
        hop before it, so a route that does not chain is judged as
        written."""
        blob = copy.deepcopy(bundle_blob)
        hops = next(m["hops"] for m in blob["schedule"]["messages"]
                    if len(m["hops"]) > 1)
        hops[1]["src"] = hops[0]["src"]
        with pytest.raises(InvalidScheduleError,
                           match="route is not a contiguous path"):
            validate_schedule(bundle_from_json(json.dumps(blob)))

    def test_honest_bundle_keeps_every_time(self, bundle_blob):
        replay = bundle_from_json(json.dumps(bundle_blob))
        validate_schedule(replay)
        assert json.loads(schedule_to_json(replay)) == bundle_blob["schedule"]

    @pytest.mark.parametrize("link_model", [
        {"mode": "PER_LINK", "per_link": {"0-1": -2.0}},
        {"mode": "PER_LINK", "per_link": {"0-1": math.nan}},
        {"mode": "PER_LINK", "per_link": {"0-1": math.inf}},
        {"mode": "PER_LINK", "per_link": {"0-1": 0.0}},
        {"mode": "PER_MESSAGE_LINK", "factor_range": [-5.0, -1.0]},
        {"mode": "PER_MESSAGE_LINK", "factor_range": [2.0, 1.0]},
        {"mode": "PER_MESSAGE_LINK", "factor_range": [1.0, math.inf]},
        {"mode": "HOMOGENEOUS", "factor_range": [0.0, 1.0]},
    ], ids=["per-link-negative", "per-link-nan", "per-link-inf",
            "per-link-zero", "range-negative", "range-inverted", "range-inf",
            "range-zero"])
    def test_bad_link_factors_refused(self, bundle_blob, link_model):
        """Negative or NaN factors would give hops negative or NaN
        lengths, which overlap nothing and would pass the audit. A
        per-link table names every link, so only the bad factor is
        wrong with it."""
        blob = copy.deepcopy(bundle_blob)
        if "per_link" in link_model:
            table = {f"{a}-{b}": 1.0 for a, b in blob["topology"]["links"]}
            link_model["per_link"] = {**table, **link_model["per_link"]}
        blob["link_model"] = link_model
        with pytest.raises(ConfigurationError, match="factor"):
            bundle_from_json(json.dumps(blob))
