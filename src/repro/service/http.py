"""``repro serve`` — the scheduling service over HTTP, stdlib-only.

A :class:`ThreadingHTTPServer` front end over
:func:`repro.service.pipeline.execute`. No new dependencies: transport
is ``http.server``, auth is an optional shared-secret ``X-API-Key``
header compared with :func:`hmac.compare_digest`.

Endpoints
---------
* ``GET /health`` — liveness (never auth-gated): status, version,
  engine mode.
* ``GET /version`` — library version plus the live registries
  (formats, algorithms, topologies) a client can build requests from.
* ``POST /schedule`` — a :class:`ScheduleRequest` JSON body; the
  response body is the canonical schedule bundle, byte-identical to
  ``repro schedule --export-bundle`` for the same request. Metadata
  rides in headers: ``X-Repro-Cache`` (``hit``/``miss``/``off``),
  ``X-Repro-Request-Key``.
* ``POST /convert`` — an inline :class:`ConvertRequest` (``graph`` +
  ``to_fmt``); the response body is the converted document, with
  ``X-Repro-From``/``X-Repro-To`` headers. Path mode is CLI-only: the
  server never reads or writes client-named files.
* ``POST /sweep`` — a :class:`SweepRequest` Cell grid. Grids up to the
  server's ``--async-threshold`` run synchronously (200 + full result);
  larger grids return ``202`` with a job id immediately and run on the
  job worker over the existing process pool.
* ``POST /pareto`` — a :class:`ParetoRequest` multi-objective sweep;
  the response body is the canonical Pareto artifact JSON,
  byte-identical to ``repro pareto`` stdout for the same request.
* ``GET /jobs/<id>`` — poll an async job: status, then the full result
  payload (with cache/provenance metadata) once done, plus the job's
  ``wall_ms``. The server keeps the newest :data:`MAX_FINISHED_JOBS`
  finished jobs; polling one it has dropped answers 410
  ``job-evicted``.
* ``GET /metrics`` — Prometheus text exposition of the deterministic
  engine counters (:mod:`repro.obs.promtext`) plus transport gauges.
  Like ``/health`` it is never auth-gated: it is a monitoring surface,
  and it carries no request data.

Observability: every POST response carries an ``X-Repro-Wall-Ms``
header (the pipeline's measured wall time — telemetry rides in
headers, never the canonical body). With ``--log-file`` the server
appends one NDJSON record per request (method, path, status, request
key, cache disposition, wall ms) through :mod:`repro.obs.ndjson`;
``--obs`` turns on the deterministic counter registry that
``/metrics`` renders.

Errors are structured everywhere: the body is
``{error, kind, detail, violations?}`` from
:mod:`repro.service.errors`, with the table's HTTP status. A POST whose
``Content-Length`` exceeds :data:`MAX_REQUEST_BODY_BYTES` is answered
413 without reading the body, and the connection closes.

A client that stalls for :data:`REQUEST_TIMEOUT_S` on one socket read
loses its connection: silently while the server waits for a request
line or headers, with a 400 ``io`` payload and ``Connection: close``
mid-body.
"""

from __future__ import annotations

import collections
import hmac
import json
import queue
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from repro import __version__, obs
from repro.errors import ConfigurationError, RequestTooLargeError
from repro.service.errors import error_payload, http_status_for
from repro.service.pipeline import execute
from repro.service.requests import (
    ConvertRequest,
    ParetoRequest,
    ScheduleRequest,
    SweepRequest,
)
from repro.util.checked import loads, want

__all__ = ["ReproServer", "make_server", "serve"]

#: default sweep size above which /sweep answers 202 + job id
DEFAULT_ASYNC_THRESHOLD = 8

#: largest request body the server reads (32 MiB, far above any inline
#: graph the repository ships); a longer ``Content-Length`` is answered
#: 413 without reading the body
MAX_REQUEST_BODY_BYTES = 32 * 1024 * 1024

#: seconds a handler thread waits on one socket read before it gives
#: up on the client: a stalled request line drops the connection, a
#: stalled body is answered and the connection closes
REQUEST_TIMEOUT_S = 30.0

#: finished async jobs (done or failed) the server keeps, with their
#: result payloads; past this the oldest finished job is dropped
MAX_FINISHED_JOBS = 256

#: the ids :meth:`JobStore.submit` issues: job-0001 ... job-9999, job-10000 ...
_JOB_ID = re.compile(r"job-([0-9]{4}|[1-9][0-9]{4,})")


class JobStore:
    """Async sweep jobs: one daemon worker drains a FIFO queue.

    A single worker is deliberate — sweeps parallelize *internally*
    through the runner's process pool, so running two large grids
    concurrently would just thrash the same cores. Queued and running
    jobs are always kept; finished ones only up to
    :data:`MAX_FINISHED_JOBS`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Dict[str, Any]] = {}
        self._finished: "collections.deque[str]" = collections.deque()
        self._queue: "queue.Queue" = queue.Queue()
        self._count = 0
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-jobs", daemon=True
        )
        self._worker.start()

    def submit(self, request_key: str, n_cells: int, fn) -> str:
        with self._lock:
            self._count += 1
            job_id = f"job-{self._count:04d}"
            self._jobs[job_id] = {
                "id": job_id,
                "status": "queued",
                "request_key": request_key,
                "n_cells": n_cells,
                "result": None,
                "error": None,
            }
        self._queue.put((job_id, fn))
        return job_id

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return dict(job) if job is not None else None

    def dropped(self, job_id: str) -> bool:
        """True for an id this store issued and has since dropped."""
        match = _JOB_ID.fullmatch(job_id)
        with self._lock:
            return (match is not None and job_id not in self._jobs
                    and 0 < int(match.group(1)) <= self._count)

    def _finish(self, job_id: str, **fields: Any) -> None:
        """Record a finished job, then drop the oldest finished jobs
        beyond :data:`MAX_FINISHED_JOBS`."""
        with self._lock:
            self._jobs[job_id].update(fields)
            self._finished.append(job_id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]

    def _run(self) -> None:
        while True:
            job_id, fn = self._queue.get()
            with self._lock:
                self._jobs[job_id]["status"] = "running"
            try:
                with obs.span("job.sweep", job_id=job_id) as sp:
                    response = fn()
            except Exception as exc:  # noqa: BLE001 - reported to the poller
                self._finish(job_id, status="failed", error=error_payload(exc))
            else:
                # surfaced in the poll payload; wall time is telemetry,
                # so it rides beside the result, not in it
                self._finish(job_id, status="done", result=response.to_dict(),
                             wall_ms=round(sp.elapsed_s * 1000.0, 3))


class ReproServer(ThreadingHTTPServer):
    """The service process state shared by all handler threads."""

    daemon_threads = True

    def __init__(self, address, api_key: Optional[str] = None,
                 jobs: int = 1,
                 async_threshold: int = DEFAULT_ASYNC_THRESHOLD,
                 use_cache: bool = True, quiet: bool = False,
                 log_file: Optional[str] = None):
        super().__init__(address, _Handler)
        self.api_key = api_key
        self.jobs = max(1, jobs)
        self.async_threshold = max(0, async_threshold)
        self.use_cache = use_cache
        self.quiet = quiet
        self.log_file = log_file
        if log_file:
            obs.configure_log(log_file)
        self.job_store = JobStore()
        self.started_at = time.time()
        self._stats_lock = threading.Lock()
        self.requests_served = 0

    def count_request(self) -> int:
        with self._stats_lock:
            self.requests_served += 1
            return self.requests_served


class _Handler(BaseHTTPRequestHandler):
    server: ReproServer  # set by http.server
    protocol_version = "HTTP/1.1"
    # _send writes headers and body in two sends; with Nagle's algorithm
    # on, a keep-alive client's delayed ACK stalls the body ~40 ms
    disable_nagle_algorithm = True
    # without a timeout a client that stops sending holds its handler
    # thread forever
    timeout = REQUEST_TIMEOUT_S

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # pragma: no cover - cosmetic
        if not self.server.quiet:
            sys.stderr.write(
                f"repro serve: {self.address_string()} {fmt % args}\n"
            )

    #: filled per request by the logging wrapper / handlers
    _log_status: Optional[int] = None
    _log_fields: Optional[Dict[str, Any]] = None

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json",
              headers: Optional[Dict[str, str]] = None) -> None:
        self._log_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, obj,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(obj, indent=2) + "\n").encode("utf-8")
        self._send(status, body, headers=headers)

    def _send_error_payload(self, exc: BaseException) -> None:
        # a 413 leaves the body unread on the socket, and a read timeout
        # leaves the rest of it: it would be parsed as the next request,
        # so close the connection instead
        headers = (
            {"Connection": "close"}
            if isinstance(exc, (RequestTooLargeError, TimeoutError)) else None
        )
        self._send_json(http_status_for(exc), error_payload(exc),
                        headers=headers)

    def _authorized(self) -> bool:
        key = self.server.api_key
        if not key:
            return True
        given = self.headers.get("X-API-Key", "")
        return hmac.compare_digest(given.encode("utf-8"), key.encode("utf-8"))

    def _reject_unauthorized(self) -> None:
        self._send_json(401, {
            "error": "Unauthorized",
            "kind": "auth",
            "detail": "missing or invalid X-API-Key header",
        })

    def _not_found(self, what: str) -> None:
        self._send_json(404, {
            "error": "NotFound",
            "kind": "not-found",
            "detail": what,
        })

    def _read_request_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        if length > MAX_REQUEST_BODY_BYTES:
            raise RequestTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_REQUEST_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            raise ConfigurationError("request body is empty; expected JSON")
        return want(loads(raw, ConfigurationError, "request body"), dict,
                    "request body", ConfigurationError)

    def _wall_headers(self, response,
                      extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
        """Response headers + the pipeline's measured wall time."""
        headers = dict(extra or {})
        wall_ms = response.extra.get("wall_ms")
        if wall_ms is not None:
            headers["X-Repro-Wall-Ms"] = f"{wall_ms:.3f}"
        return headers

    def _dispatch_logged(self, method: str, fn) -> None:
        """Run a request handler; append one NDJSON record per request
        (a no-op without ``--log-file``). Wall time is measured around
        the whole handler, auth and serialization included."""
        self.server.count_request()
        self._log_status = None
        self._log_fields = {}
        with obs.span(f"http.{method}", path=self.path) as sp:
            fn()
        obs.log_json(
            event="request",
            ts=round(time.time(), 3),
            client=self.address_string(),
            method=method,
            path=self.path,
            status=self._log_status,
            wall_ms=round(sp.elapsed_s * 1000.0, 3),
            **(self._log_fields or {}),
        )

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch_logged("GET", self._do_get)

    def _do_get(self) -> None:
        from repro.util.intervals import hotpath_mode

        if self.path == "/metrics":
            # monitoring surface: open like /health, carries no request
            # data — just the counter registry and transport gauges
            from repro.obs.promtext import CONTENT_TYPE, render_metrics

            text = render_metrics(extra_gauges={
                "repro_http_requests": self.server.requests_served,
                "repro_http_uptime_seconds": round(
                    time.time() - self.server.started_at, 3),
            })
            self._send(200, text.encode("utf-8"), content_type=CONTENT_TYPE)
            return
        if self.path == "/health":
            # liveness stays open even when the API is key-gated
            self._send_json(200, {
                "status": "ok",
                "version": __version__,
                "engine_mode": hotpath_mode(),
            })
            return
        if not self._authorized():
            self._reject_unauthorized()
            return
        if self.path == "/version":
            from repro.experiments.cache import CACHE_VERSION
            from repro.experiments.config import (
                ALGORITHM_NAMES,
                TOPOLOGY_NAMES,
            )
            from repro.graph.interchange import format_names

            self._send_json(200, {
                "version": __version__,
                "cache_version": CACHE_VERSION,
                "engine_mode": hotpath_mode(),
                "formats": list(format_names()),
                "algorithms": list(ALGORITHM_NAMES),
                "topologies": list(TOPOLOGY_NAMES),
            })
            return
        if self.path.startswith("/jobs/"):
            job_id = self.path[len("/jobs/"):]
            store = self.server.job_store
            job = store.get(job_id)
            if job is None and store.dropped(job_id):
                self._send_json(410, {
                    "error": "Gone",
                    "kind": "job-evicted",
                    "detail": f"job {job_id!r} finished and was dropped; "
                              f"the server keeps the newest "
                              f"{MAX_FINISHED_JOBS} finished jobs",
                })
            elif job is None:
                self._not_found(f"no such job {job_id!r}")
            else:
                self._log_fields["request_key"] = job.get("request_key")
                self._send_json(200, job)
            return
        self._not_found(f"no such endpoint GET {self.path}")

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch_logged("POST", self._do_post)

    def _do_post(self) -> None:
        if not self._authorized():
            self._reject_unauthorized()
            return
        try:
            if self.path == "/schedule":
                self._post_schedule()
            elif self.path == "/convert":
                self._post_convert()
            elif self.path == "/sweep":
                self._post_sweep()
            elif self.path == "/pareto":
                self._post_pareto()
            else:
                self._not_found(f"no such endpoint POST {self.path}")
        except Exception as exc:  # noqa: BLE001 - rendered structurally
            self._send_error_payload(exc)

    def _post_schedule(self) -> None:
        doc = self._read_request_body()
        request = ScheduleRequest.from_dict(doc)
        if request.graph_path is not None or request.topology_file is not None:
            raise ConfigurationError(
                "the HTTP service does not read server-side files; send "
                "the graph inline (graph=...) and the platform inline "
                "(topology_spec=...)"
            )
        response = execute(request, use_cache=self.server.use_cache)
        self._log_fields.update(request_key=response.request_key,
                                cache=response.cache)
        # the body IS the canonical bundle — byte-identical to the CLI's
        # --export-bundle file for the same request
        self._send(
            200, response.bundle_text.encode("utf-8"),
            headers=self._wall_headers(response, {
                "X-Repro-Cache": response.cache,
                "X-Repro-Request-Key": response.request_key,
            }),
        )

    def _post_convert(self) -> None:
        doc = self._read_request_body()
        request = ConvertRequest.from_dict(doc)
        if request.src is not None or request.dst is not None or request.topology:
            raise ConfigurationError(
                "the HTTP service does not read or write server-side "
                "files; send the document inline (graph=... + to_fmt=...)"
            )
        response = execute(request)
        self._log_fields.update(request_key=response.request_key,
                                cache=response.cache)
        self._send(
            200, response.extra["output"].encode("utf-8"),
            content_type="text/plain; charset=utf-8",
            headers=self._wall_headers(response, {
                "X-Repro-From": response.summary["from"],
                "X-Repro-To": response.summary["to"],
                "X-Repro-Request-Key": response.request_key,
            }),
        )

    def _post_pareto(self) -> None:
        doc = self._read_request_body()
        request = ParetoRequest.from_dict(doc)
        response = execute(request, use_cache=self.server.use_cache,
                           jobs=self.server.jobs)
        self._log_fields.update(request_key=response.request_key,
                                cache=response.cache)
        # the body IS the canonical Pareto artifact — byte-identical to
        # `repro pareto` stdout for the same request
        self._send(
            200, response.bundle_text.encode("utf-8"),
            headers=self._wall_headers(response, {
                "X-Repro-Cache": response.cache,
                "X-Repro-Request-Key": response.request_key,
            }),
        )

    def _post_sweep(self) -> None:
        doc = self._read_request_body()
        request = SweepRequest.from_dict(doc)
        n_cells = len(request.expand())
        server = self.server
        if n_cells > server.async_threshold:
            job_id = server.job_store.submit(
                request.idempotency_key(), n_cells,
                lambda: execute(request, use_cache=server.use_cache,
                                jobs=server.jobs),
            )
            self._log_fields.update(request_key=request.idempotency_key(),
                                    job_id=job_id)
            self._send_json(202, {
                "job_id": job_id,
                "poll": f"/jobs/{job_id}",
                "n_cells": n_cells,
                "request_key": request.idempotency_key(),
            })
            return
        response = execute(request, use_cache=server.use_cache,
                           jobs=server.jobs)
        self._log_fields.update(request_key=response.request_key,
                                cache=response.cache)
        self._send_json(200, response.to_dict(),
                        headers=self._wall_headers(response, {
                            "X-Repro-Cache": response.cache,
                            "X-Repro-Request-Key": response.request_key,
                        }))


def make_server(host: str = "127.0.0.1", port: int = 0,
                api_key: Optional[str] = None, jobs: int = 1,
                async_threshold: int = DEFAULT_ASYNC_THRESHOLD,
                use_cache: bool = True, quiet: bool = False,
                log_file: Optional[str] = None) -> ReproServer:
    """Bind a :class:`ReproServer` (``port=0`` picks a free port)."""
    return ReproServer(
        (host, port), api_key=api_key, jobs=jobs,
        async_threshold=async_threshold, use_cache=use_cache, quiet=quiet,
        log_file=log_file,
    )


def serve(host: str, port: int, api_key: Optional[str] = None,
          jobs: int = 1, async_threshold: int = DEFAULT_ASYNC_THRESHOLD,
          use_cache: bool = True, log_file: Optional[str] = None,
          obs_counters: bool = False) -> int:
    """Run the service until interrupted (the ``repro serve`` command)."""
    if obs_counters:
        obs.enable()
    server = make_server(host, port, api_key=api_key, jobs=jobs,
                         async_threshold=async_threshold, use_cache=use_cache,
                         log_file=log_file)
    bound_host, bound_port = server.server_address[:2]
    gate = "X-API-Key required" if api_key else "open"
    log_note = f", logging to {log_file}" if log_file else ""
    obs.telemetry(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"({gate}; sweep jobs={max(1, jobs)}, "
        f"async threshold={async_threshold} cells{log_note})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
    return 0
