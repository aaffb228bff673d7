"""The service core and ``repro serve``.

The contract under test, in order of importance:

1. **byte-identity** — for the same request, ``POST /schedule``'s body
   equals the file ``repro schedule --export-bundle`` writes, byte for
   byte, under every ``REPRO_HOTPATH`` engine mode;
2. **idempotency** — repeating a request is a cache hit
   (``X-Repro-Cache: hit``) that serves the identical artifact, and the
   entry carries a ``{repro_version, engine_mode, request_key}``
   provenance stamp whose staleness rules are enforced;
3. **structured errors** — every malformed request maps through the
   error table to a stable ``{error, kind, detail}`` payload with the
   table's HTTP status (and, at the CLI, the table's exit code).
"""

import hashlib
import http.client
import json
import re
import socket
import threading
import time

import pytest

import repro.experiments.cache as cache_mod
from repro import __version__
from repro.errors import (
    ConfigurationError,
    CycleError,
    DisconnectedGraphError,
    InvalidScheduleError,
    ReproError,
    RoutingError,
    SchedulingError,
    TopologyError,
)
from repro.experiments.cache import (
    PROVENANCE_KEY,
    ResultCache,
    is_stale,
    provenance_of,
    stamp_provenance,
)
from repro.service import (
    ERROR_TABLE,
    ConvertRequest,
    ParetoRequest,
    ScheduleRequest,
    SimulateRequest,
    SweepRequest,
    error_payload,
    error_spec,
    execute,
    exit_code_for,
    http_status_for,
    request_from_dict,
)
from repro.service import http as http_mod
from repro.service.http import make_server
from repro.util.intervals import HOTPATH_MODES, hotpath_mode, set_hotpath_mode

DISCONNECTED_STG = """\
6
0 0 0
1 10 1 0
2 20 1 1
3 30 1 0
4 40 1 3
5 0 2 2 4
"""

CONNECTED_STG = """\
5
0 0 0
1 10 1 0
2 20 1 1
3 30 1 1
4 0 2 2 3
"""


#: shapes of cache entry file that must be recomputed, never served
MALFORMED_ENTRIES = ("list-file", "stamp-not-object", "no-bundle",
                     "summary-not-object")


#: inline ``topology_spec`` shapes that escaped ``Topology.from_dict`` as
#: KeyError/TypeError/ValueError/AttributeError (HTTP 500 ``internal``);
#: each must be a TopologyError naming the field (HTTP 400 ``topology``)
MALFORMED_TOPOLOGY_SPECS = {
    "empty": ({}, "'n_procs'"),
    "no-links": ({"n_procs": 4}, "'links'"),
    "n-procs-string": ({"n_procs": "4", "links": [[0, 1]]}, "'n_procs'"),
    "short-pair": ({"n_procs": 2, "links": [[0]]}, "'links[0]'"),
    "links-not-list": ({"n_procs": 2, "links": 7}, "'links'"),
    "spec-key": ({"n_procs": 2, "links": [[0, 1]],
                  "link_specs": {"0_1": {"bandwidth": 2.0}}}, "'link_specs'"),
    "spec-value": ({"n_procs": 2, "links": [[0, 1]],
                    "link_specs": {"0-1": 5}}, "'link_specs['0-1']'"),
}


def _plant_malformed_entry(directory, key, shape):
    """Write a malformed entry file for ``key`` into cache ``directory``."""
    if shape == "list-file":
        text = "[]"
    else:
        value = {
            "stamp-not-object": {"summary": {}, "bundle": "{}\n",
                                 PROVENANCE_KEY: "0.0.1"},
            "no-bundle": stamp_provenance({"summary": {}}, key),
            "summary-not-object": stamp_provenance(
                {"summary": [], "bundle": "{}\n"}, key),
        }[shape]
        text = json.dumps({"version": cache_mod.CACHE_VERSION, "key": key,
                           "value": value})
    directory.mkdir(parents=True, exist_ok=True)
    name = hashlib.sha256(key.encode("utf-8")).hexdigest() + ".json"
    (directory / name).write_text(text)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """Point the process-default ResultCache at a private directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache_mod, "_default_cache", None)
    yield
    cache_mod._default_cache = None


def _serve(server):
    # a short poll keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    return thread


@pytest.fixture()
def server(fresh_cache):
    srv = make_server(quiet=True)
    _serve(srv)
    yield srv
    srv.shutdown()
    srv.server_close()


def _request(server, method, path, body=None, headers=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = None
        if body is not None:
            payload = json.dumps(body).encode() if isinstance(body, dict) else body
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# requests: validation, round-trips, idempotency keys
# ----------------------------------------------------------------------

class TestRequests:
    def test_schedule_round_trip(self):
        req = ScheduleRequest(workload="gauss", size=18, topology="ring",
                              n_procs=4, algorithm="heft", seed=3)
        again = ScheduleRequest.from_json(req.to_json())
        assert again == req
        assert request_from_dict(req.to_dict()) == req

    def test_all_types_round_trip(self):
        for req in (
            ScheduleRequest(),
            ConvertRequest(graph=CONNECTED_STG, to_fmt="dot"),
            SweepRequest(sizes=(20, 30)),
            SimulateRequest(workload="gauss", size=18),
            ParetoRequest(size=20, algorithms=("bsa", "heft"),
                          objectives=("energy", "makespan")),
        ):
            assert request_from_dict(json.loads(req.to_json())) == req

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ScheduleRequest.from_dict({"workloadd": "gauss"})

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="algorithm"):
            ScheduleRequest(algorithm="magic").validate()

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigurationError):
            ScheduleRequest(size=True).validate()

    def test_non_positive_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleRequest(size=0).validate()

    def test_wrong_typed_request_tag(self):
        with pytest.raises(ConfigurationError, match="type"):
            request_from_dict({"type": "frobnicate"})

    def test_generated_key_is_readable(self):
        req = ScheduleRequest(workload="gauss", size=30, topology="ring",
                              n_procs=4, algorithm="heft")
        assert req.idempotency_key() == \
            "schedule/gauss/n30/g1/ring4/dxhalf/bw1/heft/s0"

    def test_inline_graph_key_is_content_addressed(self):
        a = ScheduleRequest(graph=CONNECTED_STG)
        b = ScheduleRequest(graph=CONNECTED_STG)
        c = ScheduleRequest(graph=CONNECTED_STG + "\n# comment\n")
        assert a.idempotency_key() == b.idempotency_key()
        assert a.idempotency_key() != c.idempotency_key()
        assert "#" in a.graph_token()

    def test_overlay_changes_the_key(self):
        base = ScheduleRequest(graph=CONNECTED_STG)
        ccr = ScheduleRequest(graph=CONNECTED_STG, overlay="ccr2")
        assert base.idempotency_key() != ccr.idempotency_key()

    def test_seed_changes_the_key(self):
        assert ScheduleRequest(seed=0).idempotency_key() != \
            ScheduleRequest(seed=1).idempotency_key()

    def test_sweep_key_counts_cells(self):
        req = SweepRequest(sizes=(20, 30), algorithms=("bsa", "dls"))
        key = req.idempotency_key()
        assert key.startswith("sweep/#")
        assert key.endswith("/4cells")
        assert len(req.expand()) == 4

    def test_simulate_key_has_scenario(self):
        req = SimulateRequest(workload="gauss", size=18, scenario="f2a1s1")
        assert req.idempotency_key().endswith("/scf2a1s1")


# ----------------------------------------------------------------------
# error table
# ----------------------------------------------------------------------

class TestErrorTable:
    def test_every_repro_error_has_a_row(self):
        assert ReproError in ERROR_TABLE
        for exc_type in ERROR_TABLE:
            assert issubclass(exc_type, (ReproError, OSError))

    def test_kinds_and_exit_codes_are_distinct(self):
        kinds = [spec.kind for spec in ERROR_TABLE.values()]
        codes = [spec.exit_code for spec in ERROR_TABLE.values()]
        assert len(set(kinds)) == len(kinds)
        assert len(set(codes)) == len(codes)
        assert 0 not in codes  # success is never an error

    def test_mro_walk_finds_most_specific_row(self):
        assert error_spec(CycleError("loop")).kind == "cycle"
        assert error_spec(DisconnectedGraphError("x")).kind == "disconnected"
        assert exit_code_for(TopologyError("x")) == 7
        assert http_status_for(RoutingError("x")) == 422
        assert http_status_for(SchedulingError("x")) == 422
        assert http_status_for(ConfigurationError("x")) == 400

    def test_unknown_exception_falls_back_to_internal(self):
        spec = error_spec(RuntimeError("boom"))
        assert spec.kind == "internal"
        assert spec.exit_code == 70
        assert spec.http_status == 500

    def test_payload_shape(self):
        payload = error_payload(ConfigurationError("bad flag"))
        assert payload == {"error": "ConfigurationError",
                           "kind": "configuration", "detail": "bad flag"}

    def test_payload_carries_violations(self):
        exc = InvalidScheduleError(["task 3 overlaps task 4"])
        payload = error_payload(exc)
        assert payload["kind"] == "invalid-schedule"
        assert payload["violations"] == ["task 3 overlaps task 4"]


# ----------------------------------------------------------------------
# pipeline: cache hits, staleness, provenance
# ----------------------------------------------------------------------

class TestPipeline:
    REQ = ScheduleRequest(workload="gauss", size=18, topology="ring",
                          n_procs=4, algorithm="heft")

    @pytest.mark.parametrize("shape", sorted(MALFORMED_TOPOLOGY_SPECS))
    def test_malformed_topology_spec_names_the_field(self, tmp_path, shape):
        spec, field = MALFORMED_TOPOLOGY_SPECS[shape]
        req = ScheduleRequest(workload="gauss", size=18, algorithm="heft",
                              topology_spec=spec)
        with pytest.raises(TopologyError, match=re.escape(field)):
            execute(req, cache=ResultCache(str(tmp_path / "cache")))

    def test_miss_then_hit_same_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = execute(self.REQ, cache=cache)
        second = execute(self.REQ, cache=cache)
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert first.bundle_text == second.bundle_text
        assert first.summary == second.summary

    def test_provenance_stamp(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        resp = execute(self.REQ, cache=cache)
        prov = provenance_of(cache.get(resp.request_key))
        assert prov == {
            "repro_version": __version__,
            "engine_mode": hotpath_mode(),
            "request_key": resp.request_key,
        }
        assert resp.provenance == prov

    def test_stale_version_recomputes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        resp = execute(self.REQ, cache=cache)
        key = resp.request_key
        entry = cache.get(key)
        entry[PROVENANCE_KEY]["repro_version"] = "0.0.1"
        cache.put(key, entry)
        assert is_stale(cache.get(key), key)
        again = execute(self.REQ, cache=cache)
        assert again.cache == "miss"  # stale entries never served
        assert not is_stale(cache.get(key), key)  # re-stamped on recompute

    def test_foreign_request_key_is_stale(self):
        entry = stamp_provenance({"summary": {}, "bundle": ""}, "schedule/a")
        assert is_stale(entry, "schedule/b")
        assert not is_stale(entry, "schedule/a")

    def test_unstamped_entry_is_grandfathered(self):
        assert not is_stale({"summary": {}, "bundle": ""}, "schedule/a")

    def test_engine_mode_is_not_a_staleness_criterion(self, tmp_path):
        # schedules are byte-identical across modes by contract, so a
        # bundle cached under one mode is served under all of them
        cache = ResultCache(str(tmp_path / "cache"))
        initial = hotpath_mode()
        try:
            set_hotpath_mode("legacy")
            first = execute(self.REQ, cache=cache)
            set_hotpath_mode("incremental")
            second = execute(self.REQ, cache=cache)
        finally:
            set_hotpath_mode(initial)
        assert (first.cache, second.cache) == ("miss", "hit")

    @pytest.mark.parametrize("shape", MALFORMED_ENTRIES)
    def test_malformed_entry_is_recomputed(self, tmp_path, shape):
        _plant_malformed_entry(tmp_path / "cache", self.REQ.idempotency_key(),
                               shape)
        first = execute(self.REQ, cache=ResultCache(str(tmp_path / "cache")))
        again = execute(self.REQ, cache=ResultCache(str(tmp_path / "cache")))
        assert (first.cache, again.cache) == ("miss", "hit")
        assert again.bundle_text == first.bundle_text == execute(
            self.REQ, use_cache=False).bundle_text

    def test_want_schedule_bypasses_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        execute(self.REQ, cache=cache)
        live = execute(self.REQ, cache=cache, want_schedule=True)
        assert live.cache == "miss"
        assert live.extra["schedule"].schedule_length() == \
            live.summary["schedule_length"]

    def test_no_cache_mode(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        resp = execute(self.REQ, cache=cache, use_cache=False)
        assert resp.cache == "off"
        assert cache.get(resp.request_key) is None

    def test_convert_inline(self):
        resp = execute(ConvertRequest(graph=CONNECTED_STG, to_fmt="dot"))
        assert resp.summary["from"] == "stg"
        assert resp.summary["to"] == "dot"
        assert "digraph" in resp.extra["output"]

    def test_simulate(self):
        resp = execute(SimulateRequest(workload="gauss", size=18,
                                       topology="ring", n_procs=4,
                                       scenario="f1a1s0"))
        assert resp.summary["n_events"] >= 1
        assert resp.summary["final_sl"] > 0


# ----------------------------------------------------------------------
# byte-identity: service == CLI, across every engine mode
# ----------------------------------------------------------------------

class TestByteIdentity:
    PAYLOAD = {"workload": "gauss", "size": 18, "topology": "ring",
               "n_procs": 4, "algorithm": "bsa", "seed": 1}

    def _cli_bundle(self, tmp_path, tag):
        from repro.cli import main

        out = tmp_path / f"bundle-{tag}.json"
        rc = main(["schedule", "-w", "gauss", "-n", "18", "-t", "ring",
                   "-p", "4", "-a", "bsa", "--seed", "1",
                   "--export-bundle", str(out)])
        assert rc == 0
        return out.read_bytes()

    def test_post_schedule_matches_cli_bundle_every_mode(
            self, server, tmp_path, capsys):
        initial = hotpath_mode()
        bodies = {}
        try:
            for mode in HOTPATH_MODES:
                set_hotpath_mode(mode)
                status, headers, body = _request(
                    server, "POST", "/schedule", self.PAYLOAD)
                assert status == 200
                assert body == self._cli_bundle(tmp_path, mode)
                bodies[mode] = body
        finally:
            set_hotpath_mode(initial)
        assert len(set(bodies.values())) == 1  # and identical across modes

    def test_repeat_request_is_a_cache_hit(self, server):
        status1, headers1, body1 = _request(
            server, "POST", "/schedule", self.PAYLOAD)
        status2, headers2, body2 = _request(
            server, "POST", "/schedule", self.PAYLOAD)
        assert (status1, status2) == (200, 200)
        assert headers1["X-Repro-Cache"] == "miss"
        assert headers2["X-Repro-Cache"] == "hit"
        assert body1 == body2
        assert headers1["X-Repro-Request-Key"] == \
            headers2["X-Repro-Request-Key"]

    @pytest.mark.parametrize("shape", MALFORMED_ENTRIES)
    def test_malformed_entry_is_a_miss_then_a_hit(self, server, tmp_path,
                                                  shape):
        request = ScheduleRequest.from_dict(self.PAYLOAD)
        _plant_malformed_entry(tmp_path / "cache" / "results",
                               request.idempotency_key(), shape)
        status1, headers1, body1 = _request(
            server, "POST", "/schedule", self.PAYLOAD)
        status2, headers2, body2 = _request(
            server, "POST", "/schedule", self.PAYLOAD)
        assert (status1, status2) == (200, 200)
        assert headers1["X-Repro-Cache"] == "miss"
        assert headers2["X-Repro-Cache"] == "hit"
        assert body1 == body2 == execute(
            request, use_cache=False).bundle_text.encode("utf-8")

    def test_bundle_replays(self, server, tmp_path, capsys):
        from repro.cli import main

        _, _, body = _request(server, "POST", "/schedule", self.PAYLOAD)
        path = tmp_path / "served.json"
        path.write_bytes(body)
        assert main(["replay", str(path)]) == 0
        assert "replay OK" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Pareto sweeps over the service (PR 9)
# ----------------------------------------------------------------------

class TestPareto:
    PAYLOAD = {"workload": "gauss", "size": 20, "topology": "ring",
               "n_procs": 4, "seed": 1, "algorithms": ["bsa", "heft"],
               "objectives": ["makespan", "energy"]}

    def _cli_stdout(self, capsys):
        from repro.cli import main

        rc = main(["pareto", "-w", "gauss", "-n", "20", "-t", "ring",
                   "-p", "4", "--seed", "1", "-a", "bsa", "heft",
                   "-O", "makespan", "energy"])
        assert rc == 0
        return capsys.readouterr().out.encode("utf-8")

    def test_http_body_matches_cli_stdout(self, server, capsys):
        status, headers, body = _request(server, "POST", "/pareto",
                                         self.PAYLOAD)
        assert status == 200
        assert "X-Repro-Request-Key" in headers
        doc = json.loads(body)
        assert doc["format"] == "repro-pareto"
        assert doc["objectives"] == ["makespan", "energy"]
        assert body == self._cli_stdout(capsys)

    def test_repeat_is_cache_hit_same_bytes(self, server):
        _, headers1, body1 = _request(server, "POST", "/pareto", self.PAYLOAD)
        _, headers2, body2 = _request(server, "POST", "/pareto", self.PAYLOAD)
        assert headers1["X-Repro-Cache"] == "miss"
        assert headers2["X-Repro-Cache"] == "hit"
        assert body1 == body2

    def test_front_is_sane(self, server):
        _, _, body = _request(server, "POST", "/pareto", self.PAYLOAD)
        doc = json.loads(body)
        labels = [p["algorithm"] for p in doc["points"]]
        assert labels == ["bsa", "heft"]
        assert doc["front"]
        assert set(doc["front"]) <= set(labels)
        for point in doc["points"]:
            assert point["on_front"] == (point["algorithm"] in doc["front"])
            # sort_keys=True serialization alphabetizes the value dicts
            assert set(point["values"]) == {"makespan", "energy"}

    def test_objectives_spelling_canonicalizes_in_key(self):
        a = ParetoRequest(objectives=("throughput", "energy"))
        b = ParetoRequest(objectives=("energy", "throughput"))
        assert a.idempotency_key() == b.idempotency_key()
        # algorithm order IS the artifact's point order: it stays visible
        c = ParetoRequest(algorithms=("heft", "bsa"))
        d = ParetoRequest(algorithms=("bsa", "heft"))
        assert c.idempotency_key() != d.idempotency_key()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParetoRequest(algorithms=("bsa", "bsa")).validate()
        with pytest.raises(ConfigurationError):
            ParetoRequest(objectives=("makespan",)).validate()
        with pytest.raises(ConfigurationError):
            ParetoRequest(algorithms=("nope",)).validate()
        with pytest.raises(ConfigurationError):
            ParetoRequest(size=0).validate()
        ParetoRequest().validate()  # all-defaults request is well-formed


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------

class TestHttp:
    def test_health(self, server):
        status, _, body = _request(server, "GET", "/health")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["version"] == __version__

    def test_version_lists_registries(self, server):
        status, _, body = _request(server, "GET", "/version")
        doc = json.loads(body)
        assert status == 200
        assert "bsa" in doc["algorithms"]
        assert "stg" in doc["formats"]
        assert "hypercube" in doc["topologies"]

    def test_unknown_endpoint_is_structured_404(self, server):
        status, _, body = _request(server, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["kind"] == "not-found"

    def test_empty_body_is_400(self, server):
        status, _, body = _request(server, "POST", "/schedule")
        assert status == 400
        assert json.loads(body)["kind"] == "configuration"

    def test_oversized_body_is_413_and_closes(self, server):
        """A Content-Length above the limit is refused before the body
        is read; the connection closes, since the unread bytes would
        otherwise be parsed as the next request."""
        from repro.service.http import MAX_REQUEST_BODY_BYTES

        status, headers, body = _request(
            server, "POST", "/schedule", b"{}",
            headers={"Content-Length": str(MAX_REQUEST_BODY_BYTES + 1)})
        doc = json.loads(body)
        assert status == 413
        assert doc["kind"] == "request-too-large"
        assert doc["error"] == "RequestTooLargeError"
        assert headers["Connection"] == "close"
        # the server is still healthy on a fresh connection
        assert _request(server, "GET", "/health")[0] == 200

    @pytest.fixture()
    def quick_timeout(self, monkeypatch):
        assert http_mod._Handler.timeout == http_mod.REQUEST_TIMEOUT_S > 0
        monkeypatch.setattr(http_mod._Handler, "timeout", 0.2)

    @staticmethod
    def _raw_exchange(server, payload: bytes) -> bytes:
        """Send ``payload`` on a fresh socket, then read until the
        server closes it (a server that never closes fails the read)."""
        with socket.create_connection(server.server_address[:2],
                                      timeout=5) as sock:
            sock.sendall(payload)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)

    def test_stalled_request_line_drops_connection(self, server,
                                                   quick_timeout):
        assert self._raw_exchange(server, b"POST /sched") == b""
        # the handler thread is free and the server still answers
        assert _request(server, "GET", "/health")[0] == 200

    def test_stalled_body_is_answered_and_closes(self, server, quick_timeout):
        """A body cut short by a read timeout is answered, and the
        connection closes: the rest of the body must not be parsed as
        the next request."""
        head, _, body = self._raw_exchange(
            server,
            b"POST /schedule HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 100\r\n\r\n{\"workload\"",
        ).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["kind"] == "io"
        assert _request(server, "GET", "/health")[0] == 200

    def test_non_json_body_is_400(self, server):
        status, _, body = _request(server, "POST", "/schedule", b"not json")
        assert status == 400
        assert "not valid JSON" in json.loads(body)["detail"]

    def test_unknown_field_is_400(self, server):
        status, _, body = _request(server, "POST", "/schedule",
                                   {"workloadd": "gauss"})
        assert status == 400
        assert json.loads(body)["kind"] == "configuration"

    def test_disconnected_graph_is_structured_400(self, server):
        status, _, body = _request(server, "POST", "/schedule",
                                   {"graph": DISCONNECTED_STG,
                                    "topology": "ring", "n_procs": 4})
        doc = json.loads(body)
        assert status == 400
        assert doc["kind"] == "disconnected"
        assert "bridge" in doc["detail"]

    @pytest.mark.parametrize("shape", sorted(MALFORMED_TOPOLOGY_SPECS))
    def test_malformed_topology_spec_is_structured_400(self, server, shape):
        spec, field = MALFORMED_TOPOLOGY_SPECS[shape]
        status, _, body = _request(server, "POST", "/schedule",
                                   {"workload": "gauss", "size": 18,
                                    "algorithm": "heft",
                                    "topology_spec": spec})
        doc = json.loads(body)
        assert status == 400
        assert doc["kind"] == "topology"
        assert field in doc["detail"]

    def test_bridge_epsilon_repairs_over_http(self, server):
        status, _, _ = _request(server, "POST", "/schedule",
                                {"graph": DISCONNECTED_STG, "bridge": "epsilon",
                                 "topology": "ring", "n_procs": 4})
        assert status == 200

    def test_server_side_files_rejected(self, server):
        status, _, body = _request(server, "POST", "/schedule",
                                   {"graph_path": "/etc/hostname"})
        assert status == 400
        assert "server-side files" in json.loads(body)["detail"]
        status, _, body = _request(server, "POST", "/convert",
                                   {"src": "/etc/hostname", "dst": "/tmp/x"})
        assert status == 400

    def test_convert_inline(self, server):
        status, headers, body = _request(
            server, "POST", "/convert",
            {"graph": CONNECTED_STG, "to_fmt": "dot"})
        assert status == 200
        assert headers["X-Repro-From"] == "stg"
        assert headers["X-Repro-To"] == "dot"
        assert b"digraph" in body

    def test_sync_sweep(self, server):
        status, headers, body = _request(
            server, "POST", "/sweep",
            {"sizes": [18], "topologies": ["ring"], "n_procs": 4,
             "algorithms": ["heft"]})
        doc = json.loads(body)
        assert status == 200
        assert doc["summary"]["report"]["computed"] == 1
        assert doc["provenance"]["repro_version"] == __version__

    @staticmethod
    def _async_sweep(server, payload):
        """POST an async sweep and poll it until it finishes."""
        server.async_threshold = 0  # force the async path
        status, _, body = _request(server, "POST", "/sweep", payload)
        doc = json.loads(body)
        assert status == 202
        deadline = time.time() + 120
        while True:
            status, _, body = _request(server, "GET", doc["poll"])
            assert status == 200
            job = json.loads(body)
            if job["status"] in ("done", "failed"):
                return doc, job
            assert time.time() < deadline, "job never finished"
            time.sleep(0.1)

    def test_async_sweep_polls_to_done(self, server):
        payload = {"sizes": [18, 20], "topologies": ["ring"], "n_procs": 4,
                   "algorithms": ["heft", "dls"]}
        doc, job = self._async_sweep(server, payload)
        assert doc["n_cells"] == 4
        job_id = doc["job_id"]
        assert job["status"] == "done"
        assert job["id"] == job_id
        report = job["result"]["summary"]["report"]
        assert report["total"] == 4
        assert not report["failures"]
        assert job["result"]["provenance"]["request_key"] == \
            job["request_key"]

    def test_job_not_found(self, server):
        status, _, body = _request(server, "GET", "/jobs/job-9999")
        assert status == 404

    def test_oldest_finished_job_is_dropped(self, server, monkeypatch):
        """The server keeps MAX_FINISHED_JOBS finished jobs: a dropped
        id answers 410, an id it never issued still 404."""
        monkeypatch.setattr(http_mod, "MAX_FINISHED_JOBS", 1)
        ids = []
        for size in (18, 20):
            doc, job = self._async_sweep(server, {
                "sizes": [size], "topologies": ["ring"], "n_procs": 4,
                "algorithms": ["heft"]})
            assert job["status"] == "done"
            ids.append(doc["job_id"])
        status, _, body = _request(server, "GET", f"/jobs/{ids[0]}")
        assert status == 410
        assert json.loads(body)["kind"] == "job-evicted"
        status, _, body = _request(server, "GET", f"/jobs/{ids[1]}")
        assert status == 200
        assert json.loads(body)["status"] == "done"
        for never_issued in ("job-9999", "job-0000", "job-01", "job-00001"):
            status, _, body = _request(server, "GET", f"/jobs/{never_issued}")
            assert status == 404, never_issued

    def test_connections_disable_nagle(self, server, monkeypatch):
        """Headers and body go out in two sends, so every accepted
        connection must have TCP_NODELAY set."""
        import socket

        from repro.service import http as http_mod

        seen = []
        original = http_mod._Handler.setup

        def recording(handler):
            original(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(http_mod._Handler, "setup", recording)
        status, _, _ = _request(server, "GET", "/health")
        assert status == 200
        assert seen and all(seen), seen


class TestAuth:
    @pytest.fixture()
    def gated(self, fresh_cache):
        srv = make_server(api_key="sesame", quiet=True)
        _serve(srv)
        yield srv
        srv.shutdown()
        srv.server_close()

    def test_health_is_never_gated(self, gated):
        status, _, _ = _request(gated, "GET", "/health")
        assert status == 200

    def test_missing_key_is_401(self, gated):
        status, _, body = _request(gated, "GET", "/version")
        assert status == 401
        assert json.loads(body)["kind"] == "auth"
        status, _, _ = _request(gated, "POST", "/schedule",
                                {"workload": "gauss", "size": 18})
        assert status == 401

    def test_wrong_key_is_401(self, gated):
        status, _, _ = _request(gated, "GET", "/version",
                                headers={"X-API-Key": "guess"})
        assert status == 401

    def test_right_key_admits(self, gated):
        status, _, _ = _request(gated, "GET", "/version",
                                headers={"X-API-Key": "sesame"})
        assert status == 200


# ----------------------------------------------------------------------
# CLI integration: --json payloads, serve subcommand wiring
# ----------------------------------------------------------------------

class TestCliErrors:
    def test_json_error_payload(self, capsys):
        from repro.cli import main

        rc = main(["--json", "schedule", "--graph", "/nonexistent/g.stg"])
        assert rc == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "io"
        assert "detail" in doc

    def test_json_disconnected_kind(self, capsys, tmp_path):
        from repro.cli import main

        f = tmp_path / "g.stg"
        f.write_text(DISCONNECTED_STG)
        rc = main(["--json", "schedule", "--graph", str(f),
                   "-t", "ring", "-p", "4"])
        assert rc == 6
        assert json.loads(capsys.readouterr().out)["kind"] == "disconnected"

    def test_cli_schedule_uses_service_cache(self, fresh_cache, capsys):
        # the CLI and the service share one pipeline, so a CLI run warms
        # the cache the server reads from (and vice versa)
        from repro.cli import main

        req = ScheduleRequest(workload="gauss", size=18, topology="ring",
                              n_procs=4, algorithm="heft")
        assert main(["schedule", "-w", "gauss", "-n", "18", "-t", "ring",
                     "-p", "4", "-a", "heft"]) == 0
        capsys.readouterr()
        resp = execute(req)
        assert resp.cache == "hit"
