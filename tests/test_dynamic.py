"""Online rescheduling: events, injection, repair, and the simulator.

The discipline mirrors ``test_incremental_settle.py``: every guarantee
is asserted as byte-level state equality, not approximate metrics —
the committed prefix must be value-identical after every event, a
rejected repair must leave the schedule fingerprint *and* dict
insertion order untouched, and the whole simulation must be
bit-deterministic across hot-path modes and ``--jobs`` fan-out.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.baselines.dls import DLSOptions, schedule_dls
from repro.baselines.heft import schedule_heft
from repro.core.bsa import BSAOptions, schedule_bsa
from repro.dynamic import (
    FailureInjector,
    LinkFailure,
    ProcFailure,
    Scenario,
    TaskArrival,
    cone_repair,
    events_from_dict,
    events_to_dict,
    parse_scenario,
    prefix_fingerprint,
    read_event_trace,
    replan_tail,
    simulate,
    simulate_scenario,
    sort_events,
    tail_settle,
    write_event_trace,
)
from repro.dynamic.events import _alive_connected
from repro.dynamic.repair import alive_path
from repro.dynamic.simulate import affected_work
from repro.errors import ConfigurationError, SchedulingError
from repro.experiments.cache import ResultCache
from repro.experiments.config import Cell
from repro.experiments.runner import build_cell_system, run_cell, run_cells
from repro.network.topology import hypercube, ring
from repro.schedule.io import schedule_to_json
from repro.schedule.settle import settle
from repro.schedule.validator import schedule_violations, validate_schedule
from repro.util.intervals import hotpath_mode, set_hotpath_mode

MODES = ("legacy", "incremental")

#: the bench's smoke cell: small enough to schedule in ~100 ms, rich
#: enough that a scenario displaces real work
CELL = Cell("regular", "gauss", 40, 1.0, "ring", "bsa",
            n_procs=8, graph_seed=3, system_seed=3)


@pytest.fixture(autouse=True)
def _restore_mode():
    initial = hotpath_mode()
    yield
    set_hotpath_mode(initial)


def _fresh(cell=CELL):
    system = build_cell_system(cell)
    sched = schedule_bsa(system, BSAOptions())
    validate_schedule(sched)
    return system, sched


def _state_fingerprint(sched):
    """Every observable bit of schedule state, including dict order
    (same discipline as test_incremental_settle.py)."""
    return (
        [(t, s.proc, s.start, s.finish) for t, s in sched.slots.items()],
        {p: list(o) for p, o in sched.proc_order.items()},
        [
            (e, [(h.src, h.dst, h.start, h.finish) for h in r.hops])
            for e, r in sched.routes.items()
        ],
        {
            ch: [(h.edge, h.src, h.dst, h.start, h.finish) for h in hops]
            for ch, hops in sched.link_order.items()
        },
    )


# ----------------------------------------------------------------------
# scenario tokens
# ----------------------------------------------------------------------

class TestScenarioTokens:
    @pytest.mark.parametrize(
        "scn",
        [
            Scenario(0, 0, 0, 0),
            Scenario(1, 0, 0, 3),
            Scenario(0, 2, 1, 7),
            Scenario(2, 1, 3, 12345),
        ],
    )
    def test_round_trip(self, scn):
        assert parse_scenario(scn.token()) == scn

    def test_zero_parts_omitted(self):
        assert Scenario(1, 0, 1, 0).token() == "f1a1s0"
        assert Scenario(0, 0, 0, 5).token() == "s5"

    @pytest.mark.parametrize(
        "text", ["", "f1", "s", "x1s0", "a1f1s0", "f1a1s0x", "f-1s0"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_scenario(text)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(-1, 0, 0, 0)


# ----------------------------------------------------------------------
# injection + trace round-trip
# ----------------------------------------------------------------------

class TestInjector:
    def test_deterministic(self):
        system, sched = _fresh()
        horizon = sched.schedule_length()
        scn = parse_scenario("f1l1a2s7")
        a = FailureInjector(system, scn, horizon).events()
        b = FailureInjector(system, scn, horizon).events()
        assert events_to_dict(a) == events_to_dict(b)
        assert len(a) == 4

    def test_seed_changes_events(self):
        system, sched = _fresh()
        horizon = sched.schedule_length()
        a = FailureInjector(system, parse_scenario("f1a1s0"), horizon).events()
        b = FailureInjector(system, parse_scenario("f1a1s1"), horizon).events()
        assert events_to_dict(a) != events_to_dict(b)

    def test_times_inside_horizon(self):
        system, sched = _fresh()
        horizon = sched.schedule_length()
        events = FailureInjector(
            system, parse_scenario("f2l1a2s3"), horizon
        ).events()
        assert all(0 < ev.time < horizon for ev in events)

    def test_failures_keep_system_connected(self):
        system, sched = _fresh()
        events = FailureInjector(
            system, parse_scenario("f3l2s11"), sched.schedule_length()
        ).events()
        dead_procs = {e.proc for e in events if isinstance(e, ProcFailure)}
        dead_links = {e.link for e in events if isinstance(e, LinkFailure)}
        assert _alive_connected(system.topology, dead_procs, dead_links)
        assert len(dead_procs) == 3 and len(dead_links) == 2

    def test_trace_json_round_trip(self, tmp_path):
        system, sched = _fresh()
        events = FailureInjector(
            system, parse_scenario("f1l1a2s7"), sched.schedule_length()
        ).events()
        path = tmp_path / "trace.json"
        write_event_trace(events, str(path))
        back = read_event_trace(str(path))
        assert events_to_dict(back) == events_to_dict(events)
        # and a second write is byte-identical (no ambient state)
        path2 = tmp_path / "trace2.json"
        write_event_trace(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope", "events": []}))
        with pytest.raises(ConfigurationError):
            read_event_trace(str(path))
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            read_event_trace(str(path))

    def test_sort_events_orders_by_time_then_kind(self):
        arr = TaskArrival(time=5.0, task="dyn0", cost=1.0)
        pf = ProcFailure(time=5.0, proc=1)
        lf = LinkFailure(time=2.0, link=(0, 1))
        assert sort_events([pf, arr, lf]) == [lf, arr, pf]


# ----------------------------------------------------------------------
# simulation invariants
# ----------------------------------------------------------------------

class TestSimulateInvariants:
    def test_validator_clean_and_prefix_intact(self):
        system, sched = _fresh()
        sim = simulate_scenario(system, sched, "f1l1a2s7")
        assert sim.records, "scenario produced no events"
        assert all(r.prefix_intact for r in sim.records)
        assert schedule_violations(sim.schedule) == []
        # arrivals are actually scheduled
        arrivals = [r for r in sim.records if r.etype == "arrival"]
        assert len(arrivals) == 2
        assert "dyn0" in sim.schedule.slots and "dyn1" in sim.schedule.slots

    def test_dead_proc_gets_no_new_work(self):
        system, sched = _fresh()
        events = FailureInjector(
            system, parse_scenario("f1s3"), sched.schedule_length()
        ).events()
        (ev,) = events
        sim = simulate(sched, events, compare_replan=False)
        # drain semantics: slots on the dead proc all started before T
        for t in sim.schedule.proc_order[ev.proc]:
            assert sim.schedule.slots[t].start < ev.time

    def test_repair_vs_replan_quality_reported(self):
        system, sched = _fresh()
        sim = simulate_scenario(system, sched, "f1l1a2s7")
        ratios = [r.sl_after / r.sl_replan for r in sim.records if r.sl_replan]
        assert ratios, "no event produced an oracle comparison"
        log = sim.event_log()
        assert log["format"] == "repro-event-log"
        assert log["n_events"] == len(sim.records)
        assert sim.repair_wall_s > 0

    def test_duplicate_failures_rejected(self):
        system, sched = _fresh()
        events = [ProcFailure(time=10.0, proc=2), ProcFailure(time=20.0, proc=2)]
        with pytest.raises(ConfigurationError, match="failed twice"):
            simulate(sched, events, compare_replan=False)

    def test_unknown_resources_rejected(self):
        system, sched = _fresh()
        with pytest.raises(ConfigurationError, match="unknown proc"):
            simulate(sched, [ProcFailure(time=1.0, proc=99)],
                     compare_replan=False)
        system, sched = _fresh()
        with pytest.raises(ConfigurationError, match="unknown link"):
            simulate(sched, [LinkFailure(time=1.0, link=(0, 5))],
                     compare_replan=False)

    def test_event_trace_file_drives_simulation(self, tmp_path):
        """An explicit trace (the README's format) round-trips through
        the simulator exactly like injected events."""
        system, sched = _fresh()
        events = FailureInjector(
            system, parse_scenario("f1a1s3"), sched.schedule_length()
        ).events()
        path = tmp_path / "trace.json"
        write_event_trace(events, str(path))
        sim_a = simulate(sched, read_event_trace(str(path)),
                         compare_replan=False)
        system2, sched2 = _fresh()
        sim_b = simulate(sched2, events, compare_replan=False)
        assert sim_a.log_json() == sim_b.log_json()


# ----------------------------------------------------------------------
# byte-identity: hot-path modes and parallel fan-out
# ----------------------------------------------------------------------

class TestModeIdentity:
    def test_engine_mode_byte_identity(self):
        blobs = {}
        logs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system, sched = _fresh()
            sim = simulate_scenario(system, sched, "f1l1a2s7",
                                    compare_replan=False)
            blobs[mode] = schedule_to_json(sim.schedule)
            logs[mode] = sim.log_json()
        assert blobs["legacy"] == blobs["incremental"]
        assert logs["legacy"] == logs["incremental"]

    def test_jobs_fanout_identical(self, tmp_path):
        cells = [
            dataclasses.replace(CELL, scenario=scn, graph_seed=seed,
                                system_seed=seed)
            for scn in ("f1a1s0", "f1l1a1s1")
            for seed in (3, 4)
        ]
        results = {}
        for jobs in (1, 2):
            cache = ResultCache(str(tmp_path / f"jobs{jobs}"))
            got, _ = run_cells(cells, jobs=jobs, cache=cache)
            results[jobs] = {
                k: dataclasses.asdict(r) for k, r in got.items()
            }
            for d in results[jobs].values():
                d.pop("runtime_s")  # wall clock is per-process
        assert results[1] == results[2]


# ----------------------------------------------------------------------
# experiments wiring
# ----------------------------------------------------------------------

class TestCellScenario:
    def test_static_key_unchanged(self):
        """Adding the scenario axis must not move pre-existing cache
        entries: static cells keep their exact old keys."""
        assert CELL.key() == (
            "regular/gauss/n40/g1/ring8/bsa/het1-50/lh0/gs3/ss3"
        )
        assert "/sc" not in CELL.key()

    def test_scenario_key_visible(self):
        cell = dataclasses.replace(CELL, scenario="f1a1s2")
        assert cell.key().endswith("/scf1a1s2")
        assert cell.key() != CELL.key()

    def test_run_cell_scenario_metrics(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = dataclasses.replace(CELL, scenario="f1a1s2")
        r = run_cell(cell, cache=cache)
        static = run_cell(CELL, cache=cache)
        assert r.n_events == 2
        assert static.n_events == 0
        assert r.n_tasks == static.n_tasks + 1          # the arrival
        assert r.schedule_length >= static.schedule_length
        # cached round trip preserves the new field
        again = run_cell(cell, cache=cache)
        assert again == r

    def test_cellresult_from_dict_back_compat(self):
        """Pre-scenario cache entries (no n_events key) still load."""
        from repro.experiments.runner import CellResult

        d = dict(schedule_length=1.0, total_comm_cost=2.0, speedup=3.0,
                 normalized_sl=4.0, runtime_s=0.1, n_tasks=5, n_edges=6)
        assert CellResult.from_dict(d).n_events == 0


# ----------------------------------------------------------------------
# rollback under repair: rejected repairs leave zero trace
# ----------------------------------------------------------------------

class TestRollbackUnderRepair:
    @pytest.mark.parametrize("mode", MODES)
    def test_rejected_repair_is_invisible(self, mode, monkeypatch):
        """Force the validator gate to reject the repair: the rollback
        must restore the schedule fingerprint *and* dict insertion
        order byte-identically (the test_incremental_settle.py
        discipline), in every hot-path mode."""
        set_hotpath_mode(mode)
        system, sched = _fresh()
        from repro.dynamic.simulate import _apply_arrival

        events = FailureInjector(
            system, parse_scenario("a1s3"), sched.schedule_length()
        ).events()
        (ev,) = events
        _apply_arrival(system, ev)  # world mutates; the schedule must not
        before = _state_fingerprint(sched)
        work = affected_work(sched, ev, ev.time, set(), set())

        import repro.dynamic.repair as repair_mod
        monkeypatch.setattr(repair_mod, "schedule_violations",
                            lambda s: ["forced rejection"])
        res = cone_repair(sched, ev.time, *work, set(), set())
        assert not res.ok
        assert "forced rejection" in res.error
        assert _state_fingerprint(sched) == before

        rres = replan_tail(sched, ev.time, set(), set())
        assert not rres.ok
        assert _state_fingerprint(sched) == before

        # and with the real validator restored the same repair commits
        monkeypatch.setattr(repair_mod, "schedule_violations",
                            schedule_violations)
        res = cone_repair(sched, ev.time, *work, set(), set())
        assert res.ok
        assert _state_fingerprint(sched) != before
        assert schedule_violations(sched) == []

    @pytest.mark.parametrize("mode", MODES)
    def test_settle_failure_rolls_back(self, mode):
        """A repair that fails *inside* the transaction (no alive route
        for a displaced task) must also be invisible."""
        set_hotpath_mode(mode)
        system, sched = _fresh()
        topo = system.topology
        # kill every neighbor link of proc 0's successors' procs is
        # overkill; instead pick an impossible repair: all procs dead
        # but one, then fail that one too via dead set passed directly
        dead = set(topo.processors) - {0}
        frontier = sched.schedule_length() * 0.5
        moves, reroutes = [], []
        for p in dead:
            moves += [
                t for t in sched.proc_order[p]
                if sched.slots[t].start >= frontier
            ]
        moves.sort(key=lambda t: (sched.slots[t].start,
                                  system.graph.task_index(t)))
        before = _state_fingerprint(sched)
        res = cone_repair(sched, frontier, moves, reroutes, dead, set())
        # proc 0 alone cannot host messages that already departed on
        # frozen hops toward other procs — whatever the failure mode,
        # the schedule must be untouched
        if not res.ok:
            assert _state_fingerprint(sched) == before


# ----------------------------------------------------------------------
# repair primitives
# ----------------------------------------------------------------------

class TestTailSettle:
    @pytest.mark.parametrize("scheduler", [
        lambda system: schedule_bsa(system, BSAOptions()),
        schedule_heft,
        lambda system: schedule_dls(system, DLSOptions()),
    ], ids=["bsa", "heft", "dls"])
    def test_frontier_below_every_start_equals_settle(self, scheduler):
        """With the frontier at or below every start nothing is frozen,
        so the tail pass must reproduce the full settle's times bit for
        bit — from times perturbed away from the fixpoint first."""
        import random

        sched = scheduler(build_cell_system(CELL))
        rng = random.Random(11)
        for obj in list(sched.slots.values()) + [
                h for r in sched.routes.values() for h in r.hops]:
            obj.start = obj.start * rng.uniform(0.0, 2.0) + rng.uniform(0, 9)
            obj.finish = obj.start + rng.uniform(0.0, 5.0)
        full, tail = sched.copy(), sched.copy()
        settle(full)
        tail_settle(tail, 0.0)

        def times(s):
            return ([(t, x.start, x.finish) for t, x in s.slots.items()],
                    [(e, [(h.start, h.finish) for h in r.hops])
                     for e, r in s.routes.items()])

        assert times(tail) == times(full)
        assert times(tail) != times(sched)
        assert schedule_violations(full) == []


class TestAlivePath:
    def test_avoids_dead_resources(self):
        topo = hypercube(8)
        path = alive_path(topo, 0, 7)
        assert path[0] == 0 and path[-1] == 7
        # kill the direct riches: all of 0's neighbors except one
        dead_procs = {1, 2}
        p = alive_path(topo, 0, 7, dead_procs, set())
        assert p is not None
        assert not (set(p[1:]) & dead_procs)

    def test_dead_destination_unreachable(self):
        topo = ring(4)
        assert alive_path(topo, 0, 2, {2}, set()) is None

    def test_evacuation_from_dead_source_allowed(self):
        """Drain semantics: data may leave a dead proc."""
        topo = ring(4)
        p = alive_path(topo, 0, 2, {0}, set())
        assert p is not None and p[0] == 0

    def test_dead_links_avoided(self):
        topo = ring(4)  # 0-1-2-3-0
        p = alive_path(topo, 0, 1, set(), {(0, 1)})
        assert p == [0, 3, 2, 1]
