"""Equivalence regression tests for the incremental engine.

Two layers of protection for the hot-path overhauls (indexed timelines,
memoized routing/costs, the lower-bound candidate screen, change-driven
incremental settle, undo-log rollback):

* **pinned makespans** — exact floats for the paper's Table 1 worked
  example and fixed-seed sweep cells across every scheduler and both BSA
  route modes. Any change to scheduling arithmetic, however subtle,
  trips these. All arithmetic involved is deterministic IEEE-754, so the
  pins are machine-independent.
* **legacy/incremental cross-checks** — the same cell scheduled under
  both hot-path modes must serialize to byte-identical JSON
  (every task time and every message hop), on uniform *and*
  heterogeneous link models (full-duplex, bandwidth-skewed torus and
  fat-tree cells).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.core.bsa import BSAOptions, schedule_bsa
from repro.experiments.config import Cell
from repro.experiments.paper_example import run_paper_example
from repro.experiments.pareto import pareto_to_json, run_pareto
from repro.experiments.runner import _SCHEDULERS, build_cell_system
from repro.objectives import evaluate_objectives
from repro.schedule.io import schedule_to_json
from repro.util.intervals import Timeline, hotpath_mode, set_hotpath_mode

MODES = ("legacy", "incremental")


@pytest.fixture
def both_modes():
    """Restore the session's mode even when a test body fails midway."""
    initial = hotpath_mode()
    yield
    set_hotpath_mode(initial)


#: fixed-seed sweep cells (one regular, one random suite)
CELL_REGULAR = Cell("regular", "gauss", 40, 1.0, "ring", "x",
                    n_procs=8, graph_seed=3, system_seed=3)
CELL_RANDOM = Cell("random", "random", 30, 0.1, "hypercube", "x",
                   n_procs=8, graph_seed=7, system_seed=7)

#: exact schedule lengths per (cell, algorithm) — regenerate only when an
#: intentional algorithmic change is made, never for performance work
PINNED = {
    ("regular", "bsa"): 8696.409356983679,
    ("regular", "dls"): 12834.33279164142,
    ("regular", "heft"): 8929.199845235313,
    ("regular", "cpop"): 48445.270885614154,
    ("regular", "etf"): 73445.85537671586,
    ("random", "bsa"): 19886.270007245133,
    ("random", "dls"): 20494.286130461784,
    ("random", "heft"): 20645.843323245692,
    ("random", "cpop"): 20289.416135906395,
    ("random", "etf"): 30352.23961612196,
}

#: both route modes, neighbors scope (incremental is only defined there)
PINNED_ROUTE_MODES = {
    ("regular", "incremental"): 27743.360255631313,
    ("regular", "shortest"): 23351.958769638226,
    ("random", "incremental"): 28346.984959022604,
    ("random", "shortest"): 19751.398319758886,
}

#: heterogeneous link-model cells: full-duplex, bandwidth-skewed torus
#: and fat tree — the new axes must be as reproducible as the defaults
CELL_TORUS = Cell("random", "random", 30, 1.0, "torus", "x", n_procs=8,
                  graph_seed=13, system_seed=13,
                  duplex="full", bandwidth_skew=8.0)
CELL_FATTREE = Cell("regular", "gauss", 40, 1.0, "fattree", "x", n_procs=8,
                    graph_seed=5, system_seed=5,
                    duplex="full", bandwidth_skew=8.0)

#: PR 3 golden cells: the ETF and CPOP baselines had no pinned values
#: off the uniform half-duplex mesh — one full-duplex uniform torus cell
#: and one half-duplex bandwidth-skewed fat-tree cell close that gap
CELL_TORUS_FD = Cell("random", "random", 36, 1.0, "torus", "x", n_procs=9,
                     graph_seed=21, system_seed=21, duplex="full")
CELL_FATTREE_SKEW = Cell("regular", "gauss", 45, 0.5, "fattree", "x", n_procs=8,
                         graph_seed=11, system_seed=11, bandwidth_skew=6.0)

PINNED_BASELINES_LINK_MODEL = {
    ("torus_fd", "etf"): 37748.29486182677,
    ("torus_fd", "cpop"): 11183.597989604994,
    ("fattree_skew", "etf"): 67869.06198404686,
    ("fattree_skew", "cpop"): 61669.64289322252,
}

PINNED_LINK_MODEL = {
    ("torus", "bsa"): 1658.676355513322,
    ("torus", "dls"): 1765.8967197009376,
    ("torus", "heft"): 1468.0843657169328,
    ("torus", "cpop"): 15946.444545927852,
    ("torus", "etf"): 25233.547795115675,
    ("fattree", "bsa"): 3953.1405192774328,
    ("fattree", "dls"): 4877.120554511691,
    ("fattree", "heft"): 3869.672688984098,
    ("fattree", "cpop"): 62777.41692397765,
    ("fattree", "etf"): 73787.79713678898,
}


#: the series-parallel decomposition mapper (PR 9) pinned on the same
#: golden cells as the other schedulers. On the random suite cell the
#: graph has no serial chains, so spdecomp degenerates to HEFT exactly —
#: the shared float is intentional, not a copy-paste error.
PINNED_SPDECOMP = {
    "regular": 21199.6460230246,
    "random": 20645.843323245692,
    "torus": 2864.1463017080628,
    "fattree": 15202.355863924475,
    "torus_fd": 3091.8242917764665,
    "fattree_skew": 16540.619185208234,
}


#: n=1000 golden cell — the same cell family as ``bench_hotpath.py``'s
#: scaling curve. Pins the exact makespan and the serialized bytes so
#: engine schedules are locked against drift at scale (regenerate only
#: on intentional algorithmic change).
CELL_N1000 = Cell("regular", "gauss", 1000, 1.0, "hypercube", "bsa",
                  n_procs=16, graph_seed=1, system_seed=1)
PINNED_N1000 = 66554.90105672537
#: sha256 of ``schedule_to_json`` for the same schedule
PINNED_N1000_SHA256 = (
    "82971b64ebb7c6910b9781ded0b3479d8cf589b9a89b17c568a9ad7f94e022f6"
)


#: 16-processor cells for the list schedulers' earliest-finish screen
#: and ready-pair queue: ring and random topologies (where routing-table
#: routes differ from ``shortest_path``), per-message link factors, full
#: duplex with skewed bandwidth, and fine and coarse granularity
LIST_SCREEN_CELLS = {
    "ring16": Cell("regular", "gauss", 100, 1.0, "ring", "x", n_procs=16,
                   graph_seed=2, system_seed=2),
    "random16": Cell("random", "random", 100, 1.0, "random", "x",
                     n_procs=16, graph_seed=4, system_seed=4),
    "link_het16": Cell("regular", "lu", 100, 1.0, "ring", "x", n_procs=16,
                       link_het=True, graph_seed=6, system_seed=6),
    "torus_fd_skew16": Cell("random", "random", 100, 1.0, "torus", "x",
                            n_procs=16, graph_seed=8, system_seed=8,
                            duplex="full", bandwidth_skew=4.0),
    "gran01_16": Cell("regular", "laplace", 100, 0.1, "random", "x",
                      n_procs=16, graph_seed=10, system_seed=10),
    "gran10_16": Cell("regular", "mva", 100, 10.0, "ring", "x", n_procs=16,
                      graph_seed=12, system_seed=12),
}

ENGINE_MODE_CASES = [
    (algorithm, suite)
    for algorithm in ("bsa", "dls", "heft", "cpop", "etf", "spdecomp")
    for suite in ("regular", "random", "torus", "fattree", "torus_fd",
                  "fattree_skew")
] + [
    (algorithm, suite)
    for algorithm in ("heft", "cpop", "spdecomp", "dls", "etf",
                      "dls-insertion", "dls-weighted")
    for suite in LIST_SCREEN_CELLS
]


def _cell(suite: str) -> Cell:
    return {
        "regular": CELL_REGULAR,
        "random": CELL_RANDOM,
        "torus": CELL_TORUS,
        "fattree": CELL_FATTREE,
        "torus_fd": CELL_TORUS_FD,
        "fattree_skew": CELL_FATTREE_SKEW,
        **LIST_SCREEN_CELLS,
    }[suite]


class TestPinnedMakespans:
    def test_paper_example_exact(self):
        result = run_paper_example()
        assert result["metrics"].schedule_length == 186.0
        assert result["metrics"].total_comm_cost == 120.0

    @pytest.mark.parametrize("suite,algorithm", sorted(PINNED))
    def test_sweep_cell_exact(self, suite, algorithm):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS[algorithm](system)
        assert sched.schedule_length() == PINNED[(suite, algorithm)]

    @pytest.mark.parametrize("suite,route_mode", sorted(PINNED_ROUTE_MODES))
    def test_route_modes_exact(self, suite, route_mode):
        system = build_cell_system(_cell(suite))
        sched = schedule_bsa(
            system,
            BSAOptions(migration_scope="neighbors", route_mode=route_mode),
        )
        assert sched.schedule_length() == PINNED_ROUTE_MODES[(suite, route_mode)]

    @pytest.mark.parametrize("suite,algorithm", sorted(PINNED_LINK_MODEL))
    def test_link_model_cell_exact(self, suite, algorithm):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS[algorithm](system)
        assert sched.schedule_length() == PINNED_LINK_MODEL[(suite, algorithm)]

    @pytest.mark.parametrize("suite,algorithm", sorted(PINNED_BASELINES_LINK_MODEL))
    def test_baseline_link_model_cell_exact(self, suite, algorithm):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS[algorithm](system)
        assert sched.schedule_length() == PINNED_BASELINES_LINK_MODEL[(suite, algorithm)]

    @pytest.mark.parametrize("suite", sorted(PINNED_SPDECOMP))
    def test_spdecomp_cell_exact(self, suite):
        system = build_cell_system(_cell(suite))
        sched = _SCHEDULERS["spdecomp"](system)
        assert sched.schedule_length() == PINNED_SPDECOMP[suite]


class TestEngineModesIdentical:
    """legacy reference oracle vs the incremental engine —
    byte-identical serialized output."""

    @pytest.mark.parametrize("algorithm,suite", ENGINE_MODE_CASES)
    def test_serialized_schedules_identical(self, suite, algorithm, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(_cell(suite))
            blobs[mode] = schedule_to_json(_SCHEDULERS[algorithm](system))
        assert blobs["legacy"] == blobs["incremental"]

    @pytest.mark.parametrize("route_mode", ["incremental", "shortest"])
    def test_route_modes_identical(self, route_mode, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(CELL_RANDOM)
            sched = schedule_bsa(
                system,
                BSAOptions(migration_scope="neighbors", route_mode=route_mode),
            )
            blobs[mode] = schedule_to_json(sched)
        assert blobs["legacy"] == blobs["incremental"]

    @pytest.mark.parametrize("options", [
        BSAOptions(insertion=False),
        BSAOptions(insertion=False, migration_scope="neighbors",
                   route_mode="incremental"),
        BSAOptions(vip_follow=False),
        BSAOptions(migration_trigger="st_gt_drt"),
    ], ids=["append", "append-incremental-routes", "novip", "st_gt_drt"])
    def test_bsa_ablations_identical(self, options, both_modes):
        """The candidate screen's queue-free fallback bound (append slot
        policy, incremental routes) and the VIP-follow switch, against
        the oracle's exhaustive evaluation."""
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(CELL_RANDOM)
            blobs[mode] = schedule_to_json(schedule_bsa(system, options))
        assert blobs["legacy"] == blobs["incremental"]

    def test_paper_example_identical(self, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            blobs[mode] = schedule_to_json(run_paper_example()["schedule"])
        assert blobs["legacy"] == blobs["incremental"]

    def test_golden_cell_n1000(self, both_modes):
        """The n=1000 golden cell on the engine: the exact makespan AND
        the sha256 of the serialized schedule, so every task time and
        message hop is pinned. Legacy is excluded only for wall-clock
        reasons — the ``MODES`` sweeps above pin its equivalence on
        every differential cell."""
        set_hotpath_mode("incremental")
        sched = _SCHEDULERS["bsa"](build_cell_system(CELL_N1000))
        assert sched.schedule_length() == PINNED_N1000
        digest = hashlib.sha256(schedule_to_json(sched).encode()).hexdigest()
        assert digest == PINNED_N1000_SHA256

    @pytest.mark.parametrize("suite", ["regular", "torus", "fattree_skew"])
    @pytest.mark.parametrize("algorithm", ["bsa", "heft", "spdecomp"])
    def test_objective_vectors_identical(self, suite, algorithm, both_modes):
        """All four objectives, not just the makespan, must be
        byte-identical across the engine modes — they are pure float
        reductions over the committed schedule, so identical schedules
        must give identical values down to the last bit."""
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            system = build_cell_system(_cell(suite))
            sched = _SCHEDULERS[algorithm](system)
            values = evaluate_objectives(
                sched, "makespan,energy,reliability,throughput"
            )
            blobs[mode] = json.dumps(values, sort_keys=True)
        assert blobs["legacy"] == blobs["incremental"]

    def test_rejection_heavy_cell_identical(self, both_modes):
        """A communication-heavy cell whose BSA run rejects many
        migrations: exercises the undo-log rollback (incremental) and
        the deep-copy restore (legacy) against each other on the same
        commit sequence."""
        from repro.core.bsa import BSAScheduler

        cell = Cell("regular", "gauss", 60, 0.1, "hypercube", "bsa",
                    n_procs=8, graph_seed=1, system_seed=1)
        blobs = {}
        rejected = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            scheduler = BSAScheduler(build_cell_system(cell), BSAOptions())
            blobs[mode] = schedule_to_json(scheduler.run())
            rejected[mode] = scheduler.stats.n_rejected_migrations
        assert blobs["legacy"] == blobs["incremental"]
        assert len(set(rejected.values())) == 1
        # the cell must keep exercising rollback; reseed it if this trips
        assert rejected["incremental"] > 0

#: golden Pareto cell (PR 9): fat-tree n=100 gauss, every scheduler
#: scored on all four objectives. The front and every objective value
#: are pinned exactly; the serialized artifact must be byte-identical
#: across both engine modes.
CELL_PARETO = Cell("regular", "gauss", 100, 1.0, "fattree", "bsa",
                   n_procs=8, graph_seed=2, system_seed=2)

PINNED_PARETO_FRONT = ["bsa", "dls", "heft"]

PINNED_PARETO_VALUES = {
    "bsa": {
        "energy": 72763.65329156743,
        "makespan": 15625.6879943309,
        "reliability": 0.5669266229746843,
        "throughput": 10129.497862617287,
    },
    "dls": {
        "energy": 73122.10404707766,
        "makespan": 20045.52312037218,
        "reliability": 0.6162476532259843,
        "throughput": 11372.732782069601,
    },
    "heft": {
        "energy": 61863.09299873603,
        "makespan": 13425.483717367097,
        "reliability": 0.6064346300148088,
        "throughput": 10315.061896961502,
    },
    "cpop": {
        "energy": 293257.55288821465,
        "makespan": 79842.74772650919,
        "reliability": 0.22407986018408355,
        "throughput": 79842.74772650919,
    },
    "etf": {
        "energy": 619299.6642026117,
        "makespan": 117796.9418700612,
        "reliability": 0.019959237524555282,
        "throughput": 77823.85776555596,
    },
    "spdecomp": {
        "energy": 169543.15612680075,
        "makespan": 46262.84079518959,
        "reliability": 0.4086511047707097,
        "throughput": 20558.667669277038,
    },
}


class TestGoldenPareto:
    """The Pareto sweep is an artifact-producing endpoint (CLI stdout
    and the ``/pareto`` HTTP body are its exact bytes), so it gets the
    same golden treatment as the makespans: exact values, exact front,
    byte-identical serialization under every engine mode."""

    def _run(self):
        doc, _ = run_pareto(CELL_PARETO, use_cache=False)
        return doc

    def test_front_and_values_exact(self):
        doc = self._run()
        by_algo = {p["algorithm"]: p for p in doc["points"]}
        assert doc["front"] == PINNED_PARETO_FRONT
        for algo, expected in PINNED_PARETO_VALUES.items():
            assert by_algo[algo]["values"] == expected, algo
            assert by_algo[algo]["on_front"] == (algo in PINNED_PARETO_FRONT)

    def test_artifact_identical_across_modes(self, both_modes):
        blobs = {}
        for mode in MODES:
            set_hotpath_mode(mode)
            blobs[mode] = pareto_to_json(self._run())
        assert blobs["legacy"] == blobs["incremental"]


# ----------------------------------------------------------------------
# live timelines
# ----------------------------------------------------------------------
def _assert_timelines_live(sched, seen) -> None:
    """Every cached timeline equals a fresh build over its live order:
    starts, finishes and the running maximum."""
    for proc, tl in sched._proc_tl.items():
        ref = Timeline.from_items([sched.slots[t] for t in sched.proc_order[proc]])
        assert (tl.starts, tl.finishes, tl._maxf) == (
            ref.starts, ref.finishes, ref._maxf), f"processor {proc}"
    for ch, tl in sched._link_tl.items():
        ref = Timeline.from_items(sched.link_order[ch])
        assert (tl.starts, tl.finishes, tl._maxf) == (
            ref.starts, ref.finishes, ref._maxf), f"channel {ch}"
        if tl._maxf != tl.finishes:
            seen["non_monotone"] += 1
    seen["timelines"] += len(sched._proc_tl) + len(sched._link_tl)


def _assert_orders_sorted(sched, seen) -> None:
    """Every processor and link order is non-decreasing in ``(start,
    finish)``: a settle leaves the orders a stable sort would give."""
    for proc, order in sched.proc_order.items():
        keys = [(sched.slots[t].start, sched.slots[t].finish) for t in order]
        assert keys == sorted(keys), f"processor {proc}"
    for ch, hops in sched.link_order.items():
        keys = [(h.start, h.finish) for h in hops]
        assert keys == sorted(keys), f"channel {ch}"
    seen["sorted_checks"] += 1


@pytest.fixture
def live_timelines(monkeypatch, both_modes):
    """Run the incremental engine with the live-timeline invariant
    checked after every mutator, commit, rollback, incremental settle,
    full Kahn pass and dynamic cone repair, and the sorted-order
    invariant after every settle. Yields a tally of what the checks
    saw."""
    import importlib

    import repro.core.migration as migration
    from repro.schedule.schedule import Schedule, ScheduleTxn

    # the packages re-export functions named ``simulate`` and ``settle``
    simulate_mod = importlib.import_module("repro.dynamic.simulate")
    settle_mod = importlib.import_module("repro.schedule.settle")

    set_hotpath_mode("incremental")
    seen = Counter()

    def checked(fn, sched_of, settles=lambda args, kwargs: False):
        def wrapper(*args, **kwargs):
            sched = sched_of(args)
            out = fn(*args, **kwargs)
            _assert_timelines_live(sched, seen)
            if settles(args, kwargs):
                _assert_orders_sorted(sched, seen)
            seen[fn.__name__] += 1
            return out
        return wrapper

    def full_pass(args, kwargs):
        return (args[1] if len(args) > 1 else kwargs.get("frontier")) is None

    for name in ("place_task", "remove_task", "set_route", "clear_route",
                 "commit_txn"):
        monkeypatch.setattr(Schedule, name,
                            checked(getattr(Schedule, name), lambda a: a[0]))
    monkeypatch.setattr(ScheduleTxn, "rollback",
                        checked(ScheduleTxn.rollback, lambda a: a[0].sched))
    monkeypatch.setattr(migration, "settle_incremental",
                        checked(migration.settle_incremental, lambda a: a[0],
                                lambda args, kwargs: True))
    # settle() and both incremental fallbacks call the module's name
    monkeypatch.setattr(settle_mod, "kahn_settle",
                        checked(settle_mod.kahn_settle, lambda a: a[0],
                                full_pass))
    monkeypatch.setattr(simulate_mod, "cone_repair",
                        checked(simulate_mod.cone_repair, lambda a: a[0]))

    delete = Timeline.delete

    def tallying_delete(tl, i):
        # the deleted entry alone holds the running maximum over a
        # later entry that finishes earlier, so _maxf must fall
        f = tl.finishes[i]
        if ((i == 0 or tl._maxf[i - 1] < f)
                and i + 1 < len(tl) and tl.finishes[i + 1] < f):
            seen["max_deleted"] += 1
        delete(tl, i)

    monkeypatch.setattr(Timeline, "delete", tallying_delete)
    yield seen


def _zero_cost_system(seed: int, topology):
    """A random graph with every third message free: its hops take no
    link time, so they sit inside other reservations' spans and make
    link finishes non-monotone."""
    from repro.network.system import HeterogeneousSystem
    from repro.workloads.suites import random_graph

    graph = random_graph(30, granularity=1.0, seed=seed)
    for k, (u, v) in enumerate(graph.edges()):
        if k % 3 == 0:
            graph.set_edge_cost(u, v, 0.0)
    return HeterogeneousSystem.sample(graph, topology, het_range=(1, 10),
                                      seed=seed)


#: the randomized sweep: (scheduler, cell) pairs over both suites, full
#: duplex and skewed bandwidth, and the rejection-heavy BSA cell whose
#: rollbacks drop and rebuild timelines mid-run
LIVE_TIMELINE_CASES = [
    (algorithm, suite)
    for algorithm in ("bsa", "heft", "dls", "etf", "cpop", "spdecomp")
    for suite in ("random", "torus")
] + [("bsa", "rejection_heavy"), ("dls-insertion", "random16"),
     ("heft", "link_het16")]


class TestLiveTimelines:
    """Committed timelines are patched in place, never rebuilt on
    mutation: after each step every cached one must equal a rebuild."""

    @pytest.mark.parametrize("algorithm,suite", LIVE_TIMELINE_CASES)
    def test_sweep(self, algorithm, suite, live_timelines):
        cell = (Cell("regular", "gauss", 60, 0.1, "hypercube", "bsa",
                     n_procs=8, graph_seed=1, system_seed=1)
                if suite == "rejection_heavy" else _cell(suite))
        sched = _SCHEDULERS[algorithm](build_cell_system(cell))
        _assert_timelines_live(sched, live_timelines)
        assert live_timelines["timelines"] > 0
        if algorithm == "bsa":
            assert live_timelines["settle_incremental"] > 0
            assert live_timelines["kahn_settle"] > 0
            assert live_timelines["sorted_checks"] == (
                live_timelines["settle_incremental"]
                + live_timelines["kahn_settle"])
        if suite == "rejection_heavy":
            assert live_timelines["rollback"] > 0

    @pytest.mark.parametrize("algorithm", ["bsa", "heft", "dls", "etf"])
    @pytest.mark.parametrize("seed,topology", [(11, "hypercube"),
                                               (24, "ring")])
    def test_zero_cost_messages(self, algorithm, seed, topology,
                                live_timelines):
        """Free messages: HEFT's insertion policy leaves their
        zero-duration hops inside other hops' spans, and BSA on these
        seeds deletes a hop that alone holds a link's running maximum
        mid-commit."""
        from repro.network.topology import hypercube, ring

        net = hypercube(8) if topology == "hypercube" else ring(4)
        sched = _SCHEDULERS[algorithm](_zero_cost_system(seed, net))
        _assert_timelines_live(sched, live_timelines)
        assert live_timelines["timelines"] > 0
        if algorithm == "heft":
            assert live_timelines["non_monotone"] > 0
        if algorithm == "bsa":
            assert live_timelines["max_deleted"] > 0
            # zero-cost edges send every commit through the full pass
            assert (live_timelines["kahn_settle"]
                    > live_timelines["settle_incremental"] > 0)

    def test_dynamic_cone_repair(self, live_timelines):
        from repro.dynamic import simulate_scenario

        cell = Cell("regular", "gauss", 40, 1.0, "ring", "bsa",
                    n_procs=8, graph_seed=3, system_seed=3)
        system = build_cell_system(cell)
        sched = schedule_bsa(system, BSAOptions())
        sim = simulate_scenario(system, sched, "f1l1a2s7")
        assert live_timelines["cone_repair"] > 0
        _assert_timelines_live(sim.schedule, live_timelines)
