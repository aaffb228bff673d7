"""Schedule bundles: export trace graph + topology + schedule, re-import
without the generating code, and replay through the strict validator.
"""

import copy
import json

import pytest

from repro.errors import SchedulingError
from repro.experiments.runner import _SCHEDULERS, build_cell_system
from repro.graph.interchange import load_workload, relabel_tasks
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
from repro.workloads.suites import random_graph

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

    def test_tuple_ids_need_relabeling(self):
        from repro.workloads.forkjoin import fork_join

        graph = fork_join(2, 3)
        system = HeterogeneousSystem.sample(graph, ring(4), seed=0)
        schedule = _SCHEDULERS["heft"](system)
        with pytest.raises(Exception, match="relabel"):
            bundle_to_dict(schedule)
        # relabel_tasks is the documented escape hatch
        relabeled = relabel_tasks(graph)
        system2 = HeterogeneousSystem.sample(relabeled, ring(4), seed=0)
        replay = bundle_from_dict(
            bundle_to_dict(_SCHEDULERS["heft"](system2))
        )
        validate_schedule(replay)


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
