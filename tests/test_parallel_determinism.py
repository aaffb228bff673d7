"""The parallel sweep engine: the shared result cache, reporting, and
determinism.

The headline guarantee: the same sweep run with ``--jobs 1`` and
``--jobs 4`` produces identical cached results (modulo measured wall
time) and identical aggregate tables — each cell is a pure function of
its own seeds and workers never touch shared state.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import (
    PROVENANCE_KEY,
    ResultCache,
    stamp_provenance,
)
from repro.experiments.config import Cell, Scale
from repro.experiments.figures import figure3
from repro.experiments.reporting import render_panels
from repro.experiments.runner import run_cells

TINY_SCALE = Scale(
    name="tiny",
    sizes=(20,),
    granularities=(1.0,),
    topologies=("ring", "clique"),
    regular_apps=("gauss",),
    n_random_seeds=1,
    het_sweep_sizes=(20,),
    het_sweep_n_graphs=1,
    het_ranges=((1, 10),),
)


def _tiny_cells():
    return [
        Cell("random", "random", 20, 1.0, topology, algorithm,
             n_procs=4, graph_seed=seed, system_seed=seed)
        for topology in ("ring", "clique")
        for algorithm in ("bsa", "dls")
        for seed in (0, 1)
    ]


def _stable(result):
    """Everything deterministic about a cell result (runtime is wall
    clock measured in whichever process ran the cell)."""
    d = dataclasses.asdict(result)
    d.pop("runtime_s")
    return d


def _write_keys(directory, worker, n_keys):
    """One writer process: ``n_keys`` entries no other writer touches."""
    cache = ResultCache(directory)
    for i in range(n_keys):
        cache.put(f"w{worker}/k{i}", {"worker": worker, "i": i})


class TestResultCache:
    def test_round_trip_across_handles(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        keys = [f"cell/{i}" for i in range(20)]
        for i, key in enumerate(keys):
            cache.put(key, {"schedule_length": float(i)})
        reloaded = ResultCache(str(tmp_path / "cache"))
        assert len(reloaded) == 20
        for i, key in enumerate(keys):
            assert reloaded.get(key) == {"schedule_length": float(i)}
        assert len(list((tmp_path / "cache").glob("*.json"))) == 20

    def test_miss_is_not_remembered(self, tmp_path):
        """A key one handle missed is found once another handle (another
        process, in a sweep or a server) writes it."""
        reader = ResultCache(str(tmp_path / "cache"))
        assert reader.get("k") is None
        ResultCache(str(tmp_path / "cache")).put("k", {"v": 1})
        assert reader.get("k") == {"v": 1}

    def test_refused_entry_is_not_remembered(self, tmp_path):
        """A handle that refused a version-stale entry file serves the
        current entry another handle writes later for that key."""
        directory = str(tmp_path / "cache")
        stale = stamp_provenance({"v": 0}, "k")
        stale[PROVENANCE_KEY]["repro_version"] = "0.0.0"
        ResultCache(directory).put("k", stale)
        reader = ResultCache(directory)
        assert reader.get("k") is None
        fresh = stamp_provenance({"v": 1}, "k")
        ResultCache(directory).put("k", fresh)
        assert reader.get("k") == fresh
        assert reader.stale == 1

    def test_concurrent_writers_keep_every_entry(self, tmp_path):
        """Writers sharing one directory never drop each other's
        entries: each entry is its own file, replaced atomically."""
        directory = str(tmp_path / "cache")
        with ProcessPoolExecutor(
                max_workers=4,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            for fut in [pool.submit(_write_keys, directory, w, 40)
                        for w in range(4)]:
                fut.result(timeout=120)
        cache = ResultCache(directory)
        assert len(cache) == 160
        for w in range(4):
            for i in range(40):
                assert cache.get(f"w{w}/k{i}") == {"worker": w, "i": i}

    def test_default_cache_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache()
        assert cache.path == str(tmp_path / "results")
        cache.put("k", {"v": 1})
        assert ResultCache().get("k") == {"v": 1}

    def test_failed_write_is_retried(self, tmp_path, monkeypatch):
        """An entry whose write fails (disk error) stays in memory and
        really is persisted by the next put."""
        import os as _os

        cache = ResultCache(str(tmp_path / "cache"))
        real_replace = _os.replace

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.experiments.cache.os.replace",
                            failing_replace)
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}  # nothing persisted, nothing lost
        assert len(cache) == 1
        assert ResultCache(str(tmp_path / "cache")).get("k") is None
        assert not list((tmp_path / "cache").glob("*.tmp"))

        monkeypatch.setattr("repro.experiments.cache.os.replace", real_replace)
        cache.put("k2", {"v": 2})
        reloaded = ResultCache(str(tmp_path / "cache"))
        assert reloaded.get("k") == {"v": 1}
        assert reloaded.get("k2") == {"v": 2}

    def test_unwritable_directory_warns_once(self, tmp_path, capsys):
        """A directory that cannot be created (path blocked by a file)
        must not crash a put nor drop the entry, and must warn, once,
        that persistence is off."""
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache = ResultCache(str(blocker))
        cache.put("k", {"v": 2})
        cache.put("k2", {"v": 3})
        assert cache.get("k") == {"v": 2}
        assert capsys.readouterr().err.count("result-cache write") == 1
        blocker.unlink()
        cache.put("k3", {"v": 4})
        reloaded = ResultCache(str(blocker))
        assert [reloaded.get(k) for k in ("k", "k2", "k3")] == [
            {"v": 2}, {"v": 3}, {"v": 4}]


class TestRunCells:
    def test_serial_report(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cells = _tiny_cells()
        results, report = run_cells(cells, jobs=1, cache=cache)
        assert report.total == len(cells)
        assert report.unique == len(cells)
        assert report.computed == len(cells)
        assert report.cache_hits == 0
        assert not report.failures
        assert set(results) == {c.key() for c in cells}
        # second run: all hits, nothing recomputed
        _, report2 = run_cells(cells, jobs=1, cache=cache)
        assert report2.cache_hits == len(cells)
        assert report2.computed == 0
        assert "cache hits" in report2.summary()

    def test_duplicates_deduplicated(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cell = _tiny_cells()[0]
        results, report = run_cells([cell, cell, cell], cache=cache)
        assert report.total == 3
        assert report.unique == 1
        assert report.computed == 1

    def test_failures_reported(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        bad = Cell("random", "random", 20, 1.0, "ring", "no-such-algo",
                   n_procs=4)
        with pytest.raises(ConfigurationError):
            run_cells([bad], cache=cache)
        _, report = run_cells([bad], cache=cache, raise_on_error=False)
        assert len(report.failures) == 1
        assert "no-such-algo" in report.failures[0][0]

    def test_progress_callback(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        lines = []
        run_cells(_tiny_cells()[:2], cache=cache, progress=lines.append)
        assert lines


class TestParallelDeterminism:
    def test_jobs1_vs_jobs4_identical_results(self, tmp_path):
        cells = _tiny_cells()
        cache1 = ResultCache(str(tmp_path / "jobs1"))
        cache4 = ResultCache(str(tmp_path / "jobs4"))

        results1, report1 = run_cells(cells, jobs=1, cache=cache1)
        results4, report4 = run_cells(cells, jobs=4, cache=cache4)

        assert report1.computed == report4.computed == len(cells)
        assert set(results1) == set(results4)
        for key in results1:
            assert _stable(results1[key]) == _stable(results4[key]), key
        # the caches agree too (parent-side writes only)
        for cell in cells:
            a = ResultCache(str(tmp_path / "jobs1")).get(cell.key())
            b = ResultCache(str(tmp_path / "jobs4")).get(cell.key())
            a.pop("runtime_s"), b.pop("runtime_s")
            assert a == b

    def test_jobs1_vs_jobs4_identical_tables(self, tmp_path):
        """Aggregate figure tables are byte-identical across job counts."""
        tables = {}
        for jobs in (1, 4):
            cache = ResultCache(str(tmp_path / f"fig-jobs{jobs}"))
            panels = figure3(scale=TINY_SCALE, cache=cache, jobs=jobs)
            tables[jobs] = render_panels(panels)
        assert tables[1] == tables[4]

    def test_chunking_does_not_change_results(self, tmp_path):
        cells = _tiny_cells()
        outs = []
        for chunk_size in (1, 3, len(cells)):
            cache = ResultCache(str(tmp_path / f"chunk{chunk_size}"))
            results, _ = run_cells(cells, jobs=2, cache=cache,
                                   chunk_size=chunk_size)
            outs.append({k: _stable(v) for k, v in results.items()})
        assert outs[0] == outs[1] == outs[2]
