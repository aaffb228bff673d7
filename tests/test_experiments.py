"""Tests for the experiment harness (cells, cache, figures, reporting)."""

import hashlib
import json
import os

import pytest

from repro.experiments.aggregate import geometric_mean, mean_by
from repro.experiments.cache import CACHE_VERSION, ResultCache
from repro.experiments.config import SCALES, Cell, Scale, current_scale
from repro.experiments.figures import FigureSeries
from repro.experiments.reporting import render_figure, render_improvement_summary
from repro.experiments.runner import CellResult, build_cell_system, build_topology, run_cell
from repro.errors import ConfigurationError


class TestCell:
    def test_key_stable_and_unique(self):
        a = Cell("regular", "gauss", 100, 1.0, "ring", "bsa")
        b = Cell("regular", "gauss", 100, 1.0, "ring", "bsa")
        c = Cell("regular", "gauss", 100, 1.0, "ring", "dls")
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_key_includes_heterogeneity(self):
        a = Cell("random", "random", 100, 1.0, "ring", "bsa", het_hi=50)
        b = Cell("random", "random", 100, 1.0, "ring", "bsa", het_hi=100)
        assert a.key() != b.key()


class TestScale:
    def test_scales_exist(self):
        assert set(SCALES) == {"smoke", "default", "full"}

    def test_full_scale_is_paper_grid(self):
        full = SCALES["full"]
        assert full.sizes == tuple(range(50, 501, 50))
        assert full.granularities == (0.1, 1.0, 10.0)
        assert set(full.topologies) == {"ring", "hypercube", "clique", "random"}
        assert full.het_sweep_sizes == (500,)
        assert full.het_sweep_n_graphs == 10
        assert full.het_ranges == ((1, 10), (1, 50), (1, 100), (1, 200))

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigurationError):
            current_scale()

    def test_current_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "default"


def _entry_file(directory, key):
    """Where the cache keeps ``key``: the key's SHA-256, in ``directory``."""
    return directory / (hashlib.sha256(key.encode("utf-8")).hexdigest() + ".json")


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "r"))
        cache.put("k", {"schedule_length": 1.0})
        reloaded = ResultCache(str(tmp_path / "r"))
        assert reloaded.get("k") == {"schedule_length": 1.0}
        assert len(reloaded) == 1
        assert json.loads(_entry_file(tmp_path / "r", "k").read_text()) == {
            "version": CACHE_VERSION, "key": "k",
            "value": {"schedule_length": 1.0},
        }

    def test_missing_key(self, tmp_path):
        cache = ResultCache(str(tmp_path / "r"))
        assert cache.get("nope") is None
        assert len(cache) == 0

    def test_version_mismatch_discards(self, tmp_path):
        path = _entry_file(tmp_path, "k")
        path.write_text(json.dumps({"version": -1, "key": "k", "value": {}}))
        cache = ResultCache(str(tmp_path))
        assert cache.get("k") is None
        cache.put("k", {"a": 1})
        assert ResultCache(str(tmp_path)).get("k") == {"a": 1}

    @pytest.mark.parametrize("text", [
        "{ not json",
        "[]",
        '"k"',
        '{"version": %d, "key": "other", "value": {}}' % CACHE_VERSION,
        '{"version": %d, "key": "k", "value": [1]}' % CACHE_VERSION,
        '{"version": %d, "key": "k"}' % CACHE_VERSION,
        "[" * 100000,
    ])
    def test_corrupt_file_tolerated(self, tmp_path, text):
        """An entry file is untrusted: anything but this version's
        object for this key is a miss, and the next put overwrites it."""
        _entry_file(tmp_path, "k").write_text(text)
        cache = ResultCache(str(tmp_path))
        assert cache.get("k") is None
        cache.put("k", {"a": 1})
        assert ResultCache(str(tmp_path)).get("k") == {"a": 1}

    def test_old_layout_files_ignored(self, tmp_path):
        """Shard and single-file caches of earlier layouts are neither
        read nor counted: their cells are recomputed once."""
        old = json.dumps({"version": CACHE_VERSION, "results": {"k": {"a": 1}}})
        (tmp_path / "shard-00.json").write_text(old)
        (tmp_path / "results.json").write_text(old)
        cache = ResultCache(str(tmp_path))
        assert cache.get("k") is None
        assert len(cache) == 0


class TestRunner:
    def test_build_topology(self):
        assert build_topology("ring", 16).n_links == 16
        assert build_topology("hypercube", 16).n_links == 32
        assert build_topology("clique", 4).n_links == 6
        assert build_topology("random", 8).n_procs == 8
        assert build_topology("torus", 16).n_links == 32      # 4x4, 2 per node
        assert build_topology("fattree", 16).n_links == 15    # tree: m-1 links
        with pytest.raises(ConfigurationError):
            build_topology("moebius", 16)
        # a prime count only factors as 1 x m (structurally a ring) and
        # 2 x 2 is a 4-cycle isomorphic to ring(4): refuse rather than
        # silently alias topologies
        for m in (7, 2, 4):
            with pytest.raises(ConfigurationError):
                build_topology("torus", m)

    def test_build_cell_system(self):
        cell = Cell("random", "random", 30, 1.0, "ring", "bsa", n_procs=4)
        system = build_cell_system(cell)
        assert system.graph.n_tasks == 30
        assert system.topology.n_procs == 4

    def test_run_cell_and_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "r"))
        cell = Cell("random", "random", 20, 1.0, "ring", "bsa", n_procs=4)
        r1 = run_cell(cell, cache=cache)
        assert r1.schedule_length > 0
        assert r1.n_tasks == 20
        # second call hits the cache (same values, no recompute)
        r2 = run_cell(cell, cache=cache)
        assert r2 == r1

    def test_run_cell_all_algorithms(self, tmp_path):
        cache = ResultCache(str(tmp_path / "r"))
        for algo in ("bsa", "dls", "heft", "cpop"):
            cell = Cell("random", "random", 20, 1.0, "clique", algo, n_procs=4)
            result = run_cell(cell, cache=cache)
            assert result.schedule_length > 0

    def test_unknown_algorithm_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path / "r"))
        cell = Cell("random", "random", 20, 1.0, "ring", "magic", n_procs=4)
        with pytest.raises(ConfigurationError):
            run_cell(cell, cache=cache)

    def test_cell_result_round_trip(self):
        r = CellResult(1.0, 2.0, 3.0, 4.0, 5.0, 6, 7)
        assert CellResult.from_dict(r.to_dict()) == r


class TestAggregation:
    def test_mean_by(self):
        items = [("a", 1.0), ("a", 3.0), ("b", 10.0)]
        means = mean_by(items, key=lambda x: x[0], value=lambda x: x[1])
        assert means == {"a": 2.0, "b": 10.0}

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) != geometric_mean([])  # NaN


class TestReporting:
    def _fig(self):
        return FigureSeries(
            title="demo", x_label="size", xs=[50, 100],
            series={"dls": [100.0, 200.0], "bsa": [80.0, 150.0]},
        )

    def test_render_figure(self):
        out = render_figure(self._fig())
        assert "demo" in out and "bsa/dls" in out

    def test_improvement(self):
        fig = self._fig()
        imp = fig.improvement()
        assert imp[0] == pytest.approx(0.2)
        assert imp[1] == pytest.approx(0.25)

    def test_improvement_summary(self):
        out = render_improvement_summary({"ring": self._fig()})
        assert "ring" in out
        assert "-" in out or "+" in out
