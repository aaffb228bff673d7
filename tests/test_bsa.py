"""Tests for the BSA scheduler (core algorithm behaviour and options)."""

import pytest

from repro import (
    HeterogeneousSystem,
    clique,
    random_graph,
    ring,
    schedule_bsa,
    validate_schedule,
)
from repro.core.bsa import BSAOptions, BSAScheduler
from repro.errors import ConfigurationError


class TestOptions:
    def test_defaults(self):
        opts = BSAOptions()
        assert opts.migration_trigger == "always"
        assert opts.route_mode == "shortest"
        assert opts.migration_scope == "global"
        assert opts.n_sweeps == 0  # sweep until stable

    def test_default_trigger_is_paper_faithful(self):
        """Lock in the docstring/default reconciliation: the default
        trigger is the ICPP text's literal "always" (vacuous FT > DRT);
        "st_gt_drt" is the journal-formulation ablation and must stay
        available but non-default."""
        assert BSAOptions().migration_trigger == "always"
        assert BSAOptions.__dataclass_fields__["migration_trigger"].default == "always"
        # the ablation spelling is accepted...
        assert BSAOptions(migration_trigger="st_gt_drt").migration_trigger == "st_gt_drt"
        # ...and the module docstring agrees with the default
        import repro.core.bsa as bsa_module
        assert '``"always"`` (default' in bsa_module.__doc__

    def test_bad_trigger_rejected(self):
        with pytest.raises(ConfigurationError):
            BSAOptions(migration_trigger="sometimes")

    def test_bad_route_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            BSAOptions(route_mode="scenic")

    def test_bad_scope_rejected(self):
        with pytest.raises(ConfigurationError):
            BSAOptions(migration_scope="universe")

    def test_negative_sweeps_rejected(self):
        with pytest.raises(ConfigurationError):
            BSAOptions(n_sweeps=-1)

    def test_global_scope_needs_shortest_routes(self):
        with pytest.raises(ConfigurationError):
            BSAOptions(migration_scope="global", route_mode="incremental")


class TestScheduleValidity:
    @pytest.mark.parametrize("options", [
        BSAOptions(),
        BSAOptions(migration_trigger="st_gt_drt"),
        BSAOptions(migration_scope="neighbors"),
        BSAOptions(migration_scope="neighbors", route_mode="incremental"),
        BSAOptions(insertion=False),
        BSAOptions(vip_follow=False),
        BSAOptions(n_sweeps=1),
        BSAOptions(truncate_routes=False, migration_scope="neighbors",
                   route_mode="incremental"),
    ], ids=[
        "default", "st_gt_drt", "neighbors", "incremental", "append",
        "novip", "1sweep", "no-truncate",
    ])
    def test_every_variant_produces_valid_schedule(self, small_random_system, options):
        sched = schedule_bsa(small_random_system, options)
        validate_schedule(sched)
        assert len(sched.slots) == small_random_system.graph.n_tasks

    def test_paper_system_valid(self, paper_system):
        sched = schedule_bsa(paper_system)
        validate_schedule(sched)


class TestBehaviour:
    def test_never_worse_than_serialization(self, small_random_system):
        sch = BSAScheduler(small_random_system, BSAOptions())
        sched = sch.run()
        assert sched.schedule_length() <= sch.stats.serial_length + 1e-6

    def test_deterministic(self, small_random_system):
        a = schedule_bsa(small_random_system, BSAOptions(seed=3))
        b = schedule_bsa(small_random_system, BSAOptions(seed=3))
        assert a.schedule_length() == b.schedule_length()
        assert {t: s.proc for t, s in a.slots.items()} == {
            t: s.proc for t, s in b.slots.items()
        }

    def test_stats_populated(self, small_random_system):
        sch = BSAScheduler(small_random_system, BSAOptions())
        sch.run()
        stats = sch.stats
        assert stats.first_pivot in range(4)
        assert sorted(stats.pivot_sequence) == [0, 1, 2, 3]
        assert stats.n_examined > 0
        # every candidate of an examined task is either evaluated or
        # screened out (the screen may discard all of them; the legacy
        # reference mode evaluates every one)
        assert stats.n_evaluated > 0
        assert (stats.n_evaluated + stats.n_pruned
                == stats.n_examined * (small_random_system.n_procs - 1))
        assert stats.n_sweeps_run >= 1
        assert stats.serial_length > 0

    def test_sweeps_capped_by_option(self, small_random_system):
        sch = BSAScheduler(small_random_system, BSAOptions(n_sweeps=2))
        sch.run()
        assert sch.stats.n_sweeps_run == 2

    def test_multi_sweep_never_hurts(self, small_random_system):
        one = schedule_bsa(small_random_system, BSAOptions(n_sweeps=1))
        conv = schedule_bsa(small_random_system, BSAOptions())
        assert conv.schedule_length() <= one.schedule_length() + 1e-6

    def test_single_processor_topology_like(self, paper_system):
        """On a clique of identical processors BSA stays valid and sane."""
        graph = paper_system.graph
        table = {t: [graph.cost(t)] * 4 for t in graph.tasks()}
        system = HeterogeneousSystem.from_exec_table(graph, clique(4), table)
        sched = schedule_bsa(system)
        validate_schedule(sched)
        # never worse than pure serial on one processor
        assert sched.schedule_length() <= graph.total_exec_cost() + 1e-6

    def test_trivial_graph(self):
        from repro import TaskGraph

        g = TaskGraph(name="pair")
        g.add_task("a", 10.0)
        g.add_task("b", 20.0)
        g.add_edge("a", "b", 5.0)
        system = HeterogeneousSystem.sample(g, ring(4), het_range=(1, 2), seed=0)
        sched = schedule_bsa(system)
        validate_schedule(sched)

    def test_heterogeneity_exploited(self):
        """A lone heavy task should land on (one of) its faster processors."""
        from repro import TaskGraph

        g = TaskGraph(name="single-ish")
        g.add_task("big", 100.0)
        g.add_task("tail", 1.0)
        g.add_edge("big", "tail", 0.1)
        # processor 2 is 10x faster for 'big'
        table = {"big": [1000.0, 1000.0, 100.0, 1000.0],
                 "tail": [1.0, 1.0, 1.0, 1.0]}
        system = HeterogeneousSystem.from_exec_table(g, clique(4), table)
        sched = schedule_bsa(system)
        assert sched.proc_of("big") == 2
