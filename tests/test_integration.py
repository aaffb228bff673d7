"""Cross-module integration tests: the full pipeline at miniature scale."""

import pytest

from repro import (
    HeterogeneousSystem,
    compute_metrics,
    hypercube,
    schedule_bsa,
    schedule_cpop,
    schedule_dls,
    schedule_heft,
    schedule_serial,
    validate_schedule,
)
from repro.baselines.dls import DLSOptions
from repro.experiments.cache import ResultCache
from repro.experiments.config import Scale
from repro.experiments.figures import figure3, figure7, runtime_study
from repro.experiments.reporting import render_figure, render_panels
from repro.workloads import regular_graph

TINY = Scale(
    name="tiny",
    sizes=(20,),
    granularities=(1.0,),
    topologies=("ring", "clique"),
    regular_apps=("laplace",),
    n_random_seeds=1,
    het_sweep_sizes=(20,),
    het_sweep_n_graphs=1,
    het_ranges=((1, 5), (1, 20)),
    algorithms=("dls", "bsa"),
)


@pytest.fixture
def tiny_cache(tmp_path):
    return ResultCache(str(tmp_path / "cells"))


class TestFigurePipeline:
    def test_figure3_tiny(self, tiny_cache):
        panels = figure3(scale=TINY, cache=tiny_cache)
        assert set(panels) == {"ring", "clique"}
        for fig in panels.values():
            assert fig.xs == [20]
            assert set(fig.series) == {"dls", "bsa"}
            assert all(v > 0 for vals in fig.series.values() for v in vals)
        text = render_panels(panels)
        assert "ring" in text and "bsa/dls" in text

    def test_figure7_tiny(self, tiny_cache):
        fig = figure7(scale=TINY, cache=tiny_cache)
        assert fig.xs == [5, 20]
        # SL grows with the heterogeneity range for both algorithms
        for series in fig.series.values():
            assert series[1] > series[0]

    def test_runtime_study_tiny(self, tiny_cache):
        fig = runtime_study(scale=TINY, cache=tiny_cache)
        assert all(v >= 0 for vals in fig.series.values() for v in vals)
        assert "runtime" in render_figure(fig).lower() or fig.xs == [20]

    def test_cache_shared_between_figures(self, tiny_cache):
        figure3(scale=TINY, cache=tiny_cache)
        n_after_fig3 = len(tiny_cache)
        # figure5 aggregates the same cells: no new runs
        from repro.experiments.figures import figure5

        figure5(scale=TINY, cache=tiny_cache)
        assert len(tiny_cache) == n_after_fig3


class TestAllAlgorithmsOneWorkload:
    """Every scheduler, one platform — metrics coherent across the board."""

    @pytest.fixture(scope="class")
    def system(self):
        graph = regular_graph("gauss", 50, granularity=1.0, seed=5)
        return HeterogeneousSystem.sample(
            graph, hypercube(8), het_range=(1, 20), seed=5
        )

    @pytest.mark.parametrize("scheduler", [
        schedule_bsa,
        schedule_dls,
        lambda s: schedule_dls(s, DLSOptions(link_insertion=True)),
        lambda s: schedule_dls(s, DLSOptions(routing_strategy="ecube")),
        schedule_heft,
        schedule_cpop,
        schedule_serial,
    ], ids=["bsa", "dls", "dls-ins", "dls-ecube", "heft", "cpop", "serial"])
    def test_valid_and_bounded(self, system, scheduler):
        sched = scheduler(system)
        validate_schedule(sched)
        m = compute_metrics(sched)
        assert m.schedule_length >= m.cp_exec_lower_bound - 1e-9
        assert m.schedule_length <= m.serial_best * 4  # sanity ceiling

    def test_bsa_competitive(self, system):
        bsa = schedule_bsa(system).schedule_length()
        dls = schedule_dls(system).schedule_length()
        serial = schedule_serial(system).schedule_length()
        assert bsa < serial
        assert bsa <= dls * 1.3  # BSA within 30% of DLS at worst, usually ahead

    def test_dls_ecube_routes_are_dimension_ordered(self, system):
        sched = schedule_dls(system, DLSOptions(routing_strategy="ecube"))
        for edge, route in sched.routes.items():
            if route.is_local:
                continue
            procs = route.procs
            # each hop flips exactly one bit, in increasing bit order
            bits = [(a ^ b).bit_length() - 1 for a, b in zip(procs, procs[1:])]
            assert bits == sorted(bits)
            assert all((a ^ b).bit_count() == 1 for a, b in zip(procs, procs[1:]))
