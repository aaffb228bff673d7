"""The observability layer: deterministic counters, spans, exports.

Pins the layer's three contracts:

1. **Determinism** — for a fixed request and engine mode the counters
   are byte-for-byte identical rep-to-rep and independent of ``--jobs``
   (worker deltas merge commutatively). A golden snapshot for one
   pinned cell regression-tests *how* the schedule was found.
2. **Out-of-band** — telemetry never changes an artifact: schedule
   bundles are byte-identical across both ``REPRO_HOTPATH`` modes with
   ``REPRO_OBS=1``, exactly as they are with it off.
3. **Exports** — ``/metrics`` renders every registered counter (zeros
   included) in Prometheus text 0.0.4, span records become valid
   Chrome trace JSON, and the schedule Gantt export carries matched
   flow arrows.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import threading

import pytest

from repro import obs
from repro.errors import SchedulingError
from repro.experiments import cache as cache_mod
from repro.experiments.config import Cell
from repro.experiments.runner import run_cells
from repro.obs import counters as counters_mod
from repro.obs.chrometrace import schedule_trace, spans_to_trace, trace_to_json
from repro.obs.ndjson import configure_log, log_json, telemetry
from repro.obs.promtext import CONTENT_TYPE, metric_name, render_metrics
from repro.service.http import make_server
from repro.service.pipeline import execute
from repro.service.requests import ScheduleRequest
from repro.util.intervals import HOTPATH_MODES, set_hotpath_mode


@pytest.fixture()
def obs_on(monkeypatch):
    """Collection on, counters/spans zeroed; prior state restored."""
    was_active = counters_mod.ACTIVE
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.enable()
    obs.reset()
    obs.reset_spans()
    yield
    obs.reset()
    obs.reset_spans()
    if not was_active:
        obs.disable()


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache_mod, "_default_cache", None)
    yield
    cache_mod._default_cache = None


def _pinned_cell(size: int = 40, algorithm: str = "bsa",
                 seed: int = 0) -> Cell:
    return Cell(suite="random", app="random", size=size, granularity=1.0,
                topology="ring", algorithm=algorithm,
                graph_seed=seed, system_seed=seed)


@pytest.fixture()
def incremental_mode():
    """Force the incremental engine (counters are mode-specific by
    design: what the golden snapshot pins is one engine's work)."""
    from repro.util.intervals import hotpath_mode

    before = hotpath_mode()
    set_hotpath_mode("incremental")
    yield
    set_hotpath_mode(before)


def _engine_counters() -> dict:
    return {k: v for k, v in obs.snapshot().items() if v}


# ----------------------------------------------------------------------
# counters: golden snapshot, determinism, jobs-independence
# ----------------------------------------------------------------------
#: exact incremental-engine work for the pinned cell — a regression
#: test for *how* the schedule is found, which makespan pins cannot
#: see. Any engine change that moves these must be deliberate.
#: The candidate counts and route-trie lookups are the screen's (69
#: exact evaluations out of 2370 candidates). For 68 of the 158
#: examined tasks the one-hop bound prunes every candidate, so no trie
#: is walked; the other walks follow only the routes to candidates
#: still alive. Timelines are built on first query after the initial
#: full settle pass (30) and again after each of the 2 rollbacks drops
#: them (19 + 13; the skipped and restricted walks never query three
#: link timelines a full walk rebuilt after the second rollback); every
#: other change reaches a cached timeline as an in-place patch. A cone
#: settle completes once per committed migration (39) and, in the first
#: phase, once per examined task (40) while the pivot's unexamined
#: tasks are held. The 2 settles whose orders form a cycle raise before
#: their worklist starts, so they pop and patch nothing.
GOLDEN_INCREMENTAL_N40 = {
    "bsa.candidates_evaluated": 69,
    "bsa.candidates_pruned": 2301,
    "bsa.migrations": 39,
    "bsa.rejected_migrations": 2,
    "bsa.sweeps": 3,
    "bsa.tasks_examined": 158,
    "bsa.walks_skipped": 68,
    "route.trie_hits": 129,
    "route.trie_misses": 13,
    "settle.cone_pops": 1550,
    "settle.full_passes": 1,
    "settle.incremental_runs": 79,
    "timeline.patches": 1806,
    "timeline.rebuilds": 62,
    "txn.rollbacks": 2,
}

#: the same pinned cell under HEFT: the earliest-finish screen plans the
#: best one-hop bound exactly as the incumbent, and for 26 of the 40
#: tasks that bound prunes every other processor, so no trie is walked.
#: The other 14 walk a routing-table trie only toward the processors
#: still alive (22 walks, 12 of them building the trie; 64 when every
#: message walked its whole trie), and 5 of them plan a second
#: processor that beats the incumbent (45 of 640 plans). The legacy
#: oracle plans all 640. Each of the 16 processor and 16 link timelines
#: is built once; every placement after that patches it.
GOLDEN_HEFT_N40 = {
    "list.candidates_evaluated": 45,
    "list.candidates_pruned": 595,
    "list.walks_skipped": 26,
    "route.trie_hits": 10,
    "route.trie_misses": 12,
    "timeline.patches": 249,
    "timeline.rebuilds": 32,
}

#: the same cell under DLS and ETF: the ready-pair queue plans 151 of
#: DLS's 5104 ready (task, processor) pairs (the legacy oracle plans
#: all of them; the per-step screen it replaced planned 651) and 101 of
#: ETF's 3728. Neither walks a route trie; both build each of the 32
#: timelines once and patch it from then on.
GOLDEN_DLS_N40 = {
    "list.candidates_evaluated": 151,
    "list.candidates_pruned": 4953,
    "timeline.patches": 239,
    "timeline.rebuilds": 32,
}
GOLDEN_ETF_N40 = {
    "list.candidates_evaluated": 101,
    "list.candidates_pruned": 3627,
    "timeline.patches": 131,
    "timeline.rebuilds": 32,
}


class TestCounters:
    def test_registry_has_help_text(self):
        assert counters_mod.COUNTERS
        for name, help_text in counters_mod.COUNTERS.items():
            assert "." in name
            assert help_text.strip()

    def test_snapshot_includes_zeros_sorted(self, obs_on):
        snap = obs.snapshot()
        assert set(counters_mod.COUNTERS) <= set(snap)
        assert list(snap) == sorted(snap)
        assert all(v == 0 for v in snap.values())

    def test_enable_propagates_via_env(self, obs_on, monkeypatch):
        import os

        assert os.environ.get("REPRO_OBS") == "1"
        obs.disable()
        assert "REPRO_OBS" not in os.environ
        assert not obs.enabled()

    def test_merge_commutes(self, obs_on):
        obs.inc("bsa.sweeps", 2)
        obs.merge({"bsa.sweeps": 3, "txn.rollbacks": 1})
        obs.merge({"txn.rollbacks": 4})
        snap = obs.snapshot()
        assert snap["bsa.sweeps"] == 5
        assert snap["txn.rollbacks"] == 5

    def test_golden_snapshot_incremental(self, obs_on, incremental_mode):
        run_cells([_pinned_cell()], use_cache=False)
        assert _engine_counters() == GOLDEN_INCREMENTAL_N40

    def test_golden_snapshot_heft(self, obs_on, incremental_mode):
        run_cells([_pinned_cell(algorithm="heft")], use_cache=False)
        assert _engine_counters() == GOLDEN_HEFT_N40

    @pytest.mark.parametrize("algorithm,golden", [
        ("dls", GOLDEN_DLS_N40), ("etf", GOLDEN_ETF_N40),
    ])
    def test_golden_snapshot_ready_pair_queue(self, obs_on, incremental_mode,
                                              algorithm, golden):
        run_cells([_pinned_cell(algorithm=algorithm)], use_cache=False)
        assert _engine_counters() == golden

    def test_rep_to_rep_identical(self, obs_on, incremental_mode):
        run_cells([_pinned_cell()], use_cache=False)
        first = _engine_counters()
        obs.reset()
        run_cells([_pinned_cell()], use_cache=False)
        assert _engine_counters() == first

    def test_jobs_independent(self, obs_on, incremental_mode):
        cells = [_pinned_cell(size=s, algorithm=a, seed=s)
                 for s in (18, 20, 22) for a in ("bsa", "dls")]
        run_cells(cells, jobs=1, use_cache=False)
        serial = _engine_counters()
        obs.reset()
        run_cells(cells, jobs=2, chunk_size=2, use_cache=False)
        assert _engine_counters() == serial
        assert serial["bsa.sweeps"] > 0

    def test_disabled_counts_nothing(self, incremental_mode):
        assert not counters_mod.ACTIVE  # tier-1 runs with obs off
        obs.reset()
        run_cells([_pinned_cell(size=18)], use_cache=False)
        assert _engine_counters() == {}

    def test_cache_dispositions_partition(self, obs_on, fresh_cache,
                                          incremental_mode):
        cell = _pinned_cell(size=18)
        run_cells([cell], use_cache=True)
        snap = obs.snapshot()
        assert snap["cache.misses"] == 1
        assert snap["cache.hits"] == 0
        run_cells([cell], use_cache=True)
        snap = obs.snapshot()
        assert snap["cache.hits"] == 1
        assert snap["cache.misses"] == 1
        assert snap["cache.stale"] == 0

    def test_malformed_schedule_entry_counts_once_as_stale(self, obs_on,
                                                           tmp_path):
        req = ScheduleRequest(workload="gauss", size=18, topology="ring",
                              n_procs=4, algorithm="heft")
        key = req.idempotency_key()
        directory = str(tmp_path / "cache")
        cache_mod.ResultCache(directory).put(
            key, cache_mod.stamp_provenance({"summary": {}}, key))
        assert execute(req, cache=cache_mod.ResultCache(directory)).cache == "miss"
        snap = obs.snapshot()
        assert (snap["cache.hits"], snap["cache.misses"],
                snap["cache.stale"]) == (0, 0, 1)

    def test_sweep_stale_equals_the_counter(self, obs_on, tmp_path,
                                            incremental_mode):
        """One sweep over a missing, a version-stale, a shape-refused and
        a valid entry file: each lookup counts one disposition, and the
        report's stale count is the counter's."""
        directory = str(tmp_path / "cache")
        missing, version_stale, shape_refused, valid = (
            _pinned_cell(size=s) for s in (18, 20, 22, 24))
        run_cells([version_stale, shape_refused, valid],
                  cache=cache_mod.ResultCache(directory))

        def rewrite(cell, mutate):
            name = hashlib.sha256(cell.key().encode("utf-8")).hexdigest()
            path = tmp_path / "cache" / f"{name}.json"
            blob = json.loads(path.read_text())
            mutate(blob["value"])
            path.write_text(json.dumps(blob))

        rewrite(version_stale,
                lambda v: v[cache_mod.PROVENANCE_KEY].update(repro_version="0.0.0"))
        rewrite(shape_refused, lambda v: v.update(speedup="fast"))
        obs.reset()
        _, report = run_cells([missing, version_stale, shape_refused, valid],
                              cache=cache_mod.ResultCache(directory))
        snap = obs.snapshot()
        assert (snap["cache.hits"], snap["cache.misses"],
                snap["cache.stale"]) == (1, 1, 2)
        assert (report.cache_hits, report.stale, report.computed) == (1, 2, 3)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_elapsed_valid_even_when_disabled(self):
        assert not counters_mod.ACTIVE
        obs.reset_spans()
        with obs.span("quiet") as sp:
            pass
        assert sp.elapsed_s >= 0.0
        assert obs.span_records() == []

    def test_records_nest_with_depth_and_attrs(self, obs_on):
        with obs.span("outer", kind="test"):
            with obs.span("inner"):
                pass
        records = obs.span_records()
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["attrs"] == {"kind": "test"}
        assert inner["dur_s"] <= outer["dur_s"]
        assert "thread" in inner

    def test_reset_spans(self, obs_on):
        with obs.span("x"):
            pass
        assert obs.span_records()
        obs.reset_spans()
        assert obs.span_records() == []


# ----------------------------------------------------------------------
# chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_spans_to_trace_shape(self, obs_on):
        with obs.span("outer"):
            with obs.span("inner", n=3):
                pass
        doc = spans_to_trace(obs.span_records(),
                             counters={"bsa.sweeps": 2})
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"outer", "inner"}
        assert all(e["dur"] >= 0 for e in slices)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert doc["otherData"]["counters"] == {"bsa.sweeps": 2}
        json.loads(trace_to_json(doc))  # serializes cleanly

    @pytest.fixture()
    def bundle(self, fresh_cache):
        resp = execute(ScheduleRequest(workload="random", size=24,
                                       topology="ring", algorithm="bsa"),
                       use_cache=False)
        return json.loads(resp.bundle_text)

    def test_schedule_trace_gantt(self, bundle):
        doc = schedule_trace(bundle)
        events = doc["traceEvents"]
        tasks = [e for e in events
                 if e["ph"] == "X" and e.get("cat") == "task"]
        hops = [e for e in events
                if e["ph"] == "X" and e.get("cat") == "message"]
        assert len(tasks) == 24
        assert all(e["pid"] == 1 for e in tasks)
        assert hops and all(e["pid"] == 2 for e in hops)
        # every flow arrow start has exactly one matching finish
        starts = sorted(e["id"] for e in events if e["ph"] == "s")
        finishes = sorted(e["id"] for e in events if e["ph"] == "f")
        assert starts and starts == finishes
        assert doc["otherData"]["algorithm"] == "BSA"

    def test_bare_schedule_dict_accepted(self, bundle):
        doc = schedule_trace(bundle["schedule"])
        assert any(e.get("cat") == "task" for e in doc["traceEvents"])

    def test_non_bundle_rejected(self):
        with pytest.raises(SchedulingError):
            schedule_trace({"nope": 1})
        with pytest.raises(SchedulingError):
            schedule_trace([1, 2])


# ----------------------------------------------------------------------
# prometheus text + ndjson log
# ----------------------------------------------------------------------
class TestPromText:
    def test_metric_name_mapping(self):
        assert (metric_name("bsa.candidates_evaluated")
                == "repro_bsa_candidates_evaluated_total")
        assert metric_name("cache.hits") == "repro_cache_hits_total"

    def test_render_covers_registry_with_zeros(self, obs_on):
        text = render_metrics()
        assert text.endswith("\n")
        for counter in counters_mod.COUNTERS:
            assert f"# HELP {metric_name(counter)} " in text
            assert f"# TYPE {metric_name(counter)} counter" in text
            assert f"{metric_name(counter)} 0\n" in text
        assert "repro_obs_enabled 1" in text
        assert 'repro_build_info{version="' in text

    def test_render_reflects_values_and_gauges(self, obs_on):
        obs.inc("bsa.sweeps", 7)
        text = render_metrics(extra_gauges={"repro_http_requests": 3})
        assert "repro_bsa_sweeps_total 7" in text
        assert "repro_http_requests 3" in text
        assert "version=0.0.4" in CONTENT_TYPE


class TestNdjson:
    def test_log_json_ndjson_lines(self):
        sink = io.StringIO()
        configure_log(stream=sink)
        try:
            log_json(event="request", path="/health", status=200)
            log_json(event="request", path="/metrics", status=200)
        finally:
            configure_log()
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"event": "request", "path": "/health",
                         "status": 200}
        # keys are sorted so tails diff cleanly
        assert lines[0].index("event") < lines[0].index("path")

    def test_telemetry_goes_to_stderr_and_sink(self, capsys):
        sink = io.StringIO()
        configure_log(stream=sink)
        try:
            telemetry("hello operator")
        finally:
            configure_log()
        assert "hello operator" in capsys.readouterr().err
        rec = json.loads(sink.getvalue())
        assert rec["event"] == "telemetry"
        assert rec["message"] == "hello operator"

    def test_unconfigured_is_noop(self):
        configure_log()
        log_json(event="dropped")  # must not raise


# ----------------------------------------------------------------------
# byte-identity: telemetry never touches the artifacts
# ----------------------------------------------------------------------
class TestArtifactsUnchanged:
    def test_bundles_identical_across_modes_with_obs_on(
            self, obs_on, fresh_cache):
        req = ScheduleRequest(workload="gauss", size=21,
                              topology="hypercube", algorithm="bsa")
        texts = {}
        from repro.util.intervals import hotpath_mode

        before = hotpath_mode()
        try:
            for mode in HOTPATH_MODES:
                set_hotpath_mode(mode)
                texts[mode] = execute(req, use_cache=False).bundle_text
        finally:
            set_hotpath_mode(before)
        assert len(texts) == 2 and len(set(texts.values())) == 1, sorted(texts)

    def test_obs_on_off_same_bytes(self, fresh_cache):
        req = ScheduleRequest(workload="random", size=20,
                              topology="ring", algorithm="bsa")
        off = execute(req, use_cache=False).bundle_text
        obs.enable()
        obs.reset()
        try:
            on = execute(req, use_cache=False).bundle_text
        finally:
            obs.disable()
            obs.reset()
            obs.reset_spans()
        assert on == off

    def test_wall_time_is_extra_not_body(self, fresh_cache):
        resp = execute(ScheduleRequest(workload="random", size=18,
                                       topology="ring"), use_cache=False)
        assert resp.extra["wall_s"] >= 0.0
        assert resp.extra["wall_ms"] >= 0.0
        assert "wall_ms" not in resp.bundle_text
        assert "wall_ms" not in json.dumps(resp.to_dict()["summary"])


# ----------------------------------------------------------------------
# HTTP surface: /metrics, wall headers, request log
# ----------------------------------------------------------------------
def _request(server, method, path, body=None, headers=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


class TestHttpObservability:
    @pytest.fixture()
    def served(self, fresh_cache, obs_on):
        sink = io.StringIO()
        configure_log(stream=sink)
        srv = make_server(quiet=True)
        # a short poll keeps shutdown() from waiting out the default 0.5 s
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.01}, daemon=True)
        thread.start()
        yield srv, sink
        srv.shutdown()
        srv.server_close()
        configure_log()

    def test_metrics_endpoint(self, served):
        srv, _ = served
        status, headers, body = _request(srv, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        text = body.decode()
        for counter in counters_mod.COUNTERS:
            assert metric_name(counter) in text
        assert "repro_http_requests " in text
        assert "repro_http_uptime_seconds " in text

    def test_metrics_counts_scheduling_work(self, served):
        srv, _ = served
        payload = {"workload": "random", "size": 20, "topology": "ring",
                   "algorithm": "bsa"}
        status, headers, _ = _request(srv, "POST", "/schedule", payload)
        assert status == 200
        _, _, body = _request(srv, "GET", "/metrics")
        line = [ln for ln in body.decode().splitlines()
                if ln.startswith("repro_bsa_sweeps_total ")][0]
        assert int(line.split()[1]) > 0

    def test_wall_ms_header_on_posts(self, served):
        srv, _ = served
        payload = {"workload": "random", "size": 18, "topology": "ring"}
        status, headers, _ = _request(srv, "POST", "/schedule", payload)
        assert status == 200
        assert float(headers["X-Repro-Wall-Ms"]) >= 0.0
        status, headers, _ = _request(
            srv, "POST", "/sweep",
            {"sizes": [18], "topologies": ["ring"], "n_procs": 4,
             "algorithms": ["heft"]})
        assert status == 200
        assert float(headers["X-Repro-Wall-Ms"]) >= 0.0

    def test_request_log_lines(self, served):
        import time

        srv, sink = served
        _request(srv, "GET", "/health")
        payload = {"workload": "random", "size": 18, "topology": "ring"}
        _request(srv, "POST", "/schedule", payload)
        # the record is written just after the response is sent — give
        # the handler thread a beat to land the second line
        deadline = time.time() + 10
        while (sink.getvalue().count('"event": "request"') < 2
               and time.time() < deadline):
            time.sleep(0.02)
        records = [json.loads(ln) for ln in
                   sink.getvalue().splitlines()]
        reqs = [r for r in records if r["event"] == "request"]
        assert [r["path"] for r in reqs] == ["/health", "/schedule"]
        post = reqs[-1]
        assert post["method"] == "POST"
        assert post["status"] == 200
        assert post["wall_ms"] >= 0.0
        assert post["cache"] in ("hit", "miss")
        assert post["request_key"].startswith("schedule/")

    def test_metrics_never_auth_gated(self, fresh_cache):
        srv = make_server(api_key="sesame", quiet=True)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.01}, daemon=True)
        thread.start()
        try:
            status, _, _ = _request(srv, "GET", "/metrics")
            assert status == 200
            status, _, _ = _request(srv, "GET", "/version")
            assert status == 401
        finally:
            srv.shutdown()
            srv.server_close()

    def test_async_job_reports_wall_ms(self, served):
        import time

        srv, _ = served
        srv.async_threshold = 0
        payload = {"sizes": [18, 20], "topologies": ["ring"],
                   "n_procs": 4, "algorithms": ["heft"]}
        status, _, body = _request(srv, "POST", "/sweep", payload)
        assert status == 202
        poll = json.loads(body)["poll"]
        deadline = time.time() + 120
        while True:
            _, _, body = _request(srv, "GET", poll)
            job = json.loads(body)
            if job["status"] in ("done", "failed"):
                break
            assert time.time() < deadline
            time.sleep(0.1)
        assert job["status"] == "done"
        assert job["wall_ms"] >= 0.0
