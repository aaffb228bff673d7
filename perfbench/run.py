"""End-to-end benchmark of the BSA scheduling service, sweep engine and engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload bsa_large --seed 1 --seconds 20 --trace 1

Workloads (inputs in ``workload_inputs.py``, generated from ``--seed``):

* ``serve_mixed`` — a real ``repro serve`` subprocess with a fresh
  ``REPRO_CACHE_DIR``, one client on one keep-alive loopback connection
  in a closed loop: 48 distinct ``POST /schedule`` bodies (list
  schedulers, cache misses) mixed with 200 Zipf-weighted repeats
  (cache hits).
* ``bsa_large`` — three large BSA requests through the in-process
  pipeline (``repro.service.execute``) into a fresh result cache, each
  followed by a few repeats answered from that cache.
* ``paper_sweep`` — the paper's regular grid plus a scenario/objectives
  random slice, one ``run_cells(jobs=1)`` call per cell into a fresh
  ``ResultCache``, each followed by the same cell answered from the
  cache.

``BENCHMARK.json`` lists serve_mixed and paper_sweep only: on a shared
host whose CPU speed drifts by 1.5x for minutes at a time, bsa_large's
ten-seed spread reached 0.3-0.55, past the 0.25 bound a listed workload
must hold. It stays runnable by hand, and it is where BSA engine work
(settle, candidate evaluation) shows most.

A run repeats its workload in rounds, each with fresh caches, for about
``--seconds`` (at least two rounds). Between operations it times a fixed
reference task (``calibrate.py``) and scales every operation's time to
the reference host speed, because a shared host's speed can drift by
1.5x for minutes at a time; each operation counts at its median scaled
time over the rounds.
Every output is checked: bundles replay through ``validate_schedule``, the same request
must give the same bytes within the run, and each output's sha256 must
match ``reference.json`` where that holds a digest for it (every output
at the default seed; made by ``make_reference.py`` and cross-checked
against the legacy engine).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same inputs in-process once untraced and once with every layer wrapped
(``layer_trace.py``) and prints the per-layer metrics, a self-time
table, and a Chrome trace under ``perfbench/out/``. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import importlib.metadata
import itertools
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import REFERENCE_S, Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("serve_mixed", "bsa_large", "paper_sweep")

#: name -> unit of every end-to-end metric (each workload reports all)
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "tasks_per_s": "tasks/s",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "mean_nsl": "ratio",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (the traced run reports all)
PER_LAYER = {
    "service.http.overhead_ms_p50": "ms",
    "service.pipeline.miss_ms_p50": "ms",
    "service.pipeline.hit_ms_p50": "ms",
    "graph.interchange.load_s": "s",
    "network.build_system_s": "s",
    "baselines.schedule_s": "s",
    "core.bsa.schedule_s": "s",
    "core.bsa.candidates_evaluated": "count",
    "core.bsa.prune_ratio": "ratio",
    "core.bsa.rejected_share": "ratio",
    "core.bsa.txn_rollbacks": "count",
    "schedule.settle.s": "s",
    "schedule.settle.cone_pops": "count",
    "schedule.settle.ns_per_pop": "ns",
    "util.intervals.timeline_rebuilds": "count",
    "util.intervals.timeline_rebuild_s": "s",
    "schedule.validator.s": "s",
    "schedule.validator.share": "ratio",
    "schedule.metrics.s": "s",
    "schedule.io.encode_s": "s",
    "schedule.io.bundle_bytes": "bytes",
    "experiments.cache.get_ms_p50": "ms",
    "experiments.cache.put_ms_p50": "ms",
    "experiments.cache.put_ms_max": "ms",
    "experiments.cache.hit_ratio": "ratio",
    "experiments.cache.bytes_on_disk": "bytes",
    "dynamic.simulate_s": "s",
    "dynamic.repair_share": "ratio",
    "objectives.evaluate_s": "s",
    "experiments.runner.overhead_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_SAMPLES = 9
#: set-up samples taken before each round, so they spread over the run
SETUP_PER_ROUND = 3
#: reference-task samples taken just before each set-up sample
SETUP_CLOCK_SAMPLES = 3
#: warm reads after each bsa_large request's first send
BSA_WARM_READS = 20
#: a run stops (without a result) rather than run past 180 s
DEADLINE_S = 170
#: a run's rounds end within this many seconds, whatever ``--seconds``
MAX_MEASURE_S = 110
SERVER_START_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so that the per-operation
    ``except Exception`` handlers do not count it as a failed request."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 1)) - 1))
    return ordered[idx]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]) -> Tuple[Optional[int], float, int]:
    """(percentile, value, samples beyond it) for the highest of p99,
    p95, p90, p75 and p50 that leaves at least ten samples beyond it;
    percentile None when there are too few samples for any."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        beyond = n - -(-p * n // 100)
        if beyond >= 10:
            return p, quantile(values, p / 100.0), beyond
    return None, 0.0, 0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cell_digest(result: Any) -> str:
    """Digest of a CellResult without its wall-clock ``runtime_s``."""
    doc = {k: v for k, v in result.to_dict().items() if k != "runtime_s"}
    return sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ----------------------------------------------------------------------
# correctness bookkeeping
# ----------------------------------------------------------------------

class Checker:
    """Counts attempted and failed operations and keeps each output.

    An operation fails when it raises, answers non-200, gives bytes that
    differ from an earlier answer to the same request, or bytes whose
    sha256 differs from the reference digest for its key. With
    ``strict`` (the default seed) every key must have a reference
    digest; otherwise only the keys the reference holds are checked.
    """

    def __init__(self, reference: Optional[Dict[str, str]],
                 strict: bool = False):
        self.reference = reference
        self.strict = strict
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.outputs: Dict[str, bytes] = {}
        self.problems: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def output(self, key: str, data: bytes, digest: Optional[str] = None) -> bool:
        """Record one operation's output; False (and a failure) when it
        contradicts an earlier output or the reference."""
        self.attempted += 1
        digest = digest or sha256(data)
        seen = self.digests.setdefault(key, digest)
        if seen != digest:
            self.fail(f"{key}: output differs from an earlier answer")
            return False
        if self.reference is not None and (self.strict or key in self.reference):
            if self.reference.get(key) != digest:
                self.fail(f"{key}: output differs from the reference digest")
                return False
        self.outputs.setdefault(key, data)
        return True

    def error(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(f"{key}: {type(exc).__name__}: {exc}")


def replay_bundles(checker: Checker) -> Dict[str, Tuple[float, int]]:
    """Replay every distinct bundle through the validator; returns
    ``key -> (normalized schedule length, n_tasks)`` for the valid ones
    (an invalid bundle counts as one more failure)."""
    from repro.schedule.io import bundle_from_json
    from repro.schedule.metrics import compute_metrics
    from repro.schedule.validator import validate_schedule

    out = {}
    for key, data in sorted(checker.outputs.items()):
        try:
            sched = bundle_from_json(data.decode("utf-8"))
            validate_schedule(sched)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            checker.fail(f"{key}: replay failed: {type(exc).__name__}: {exc}")
            continue
        out[key] = (compute_metrics(sched).normalized_sl,
                    sched.system.graph.n_tasks)
    return out


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------

_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import repro.service.pipeline, repro.experiments.runner, repro.dynamic\n"
    "from repro.experiments.cache import ResultCache\n"
    "ResultCache(sys.argv[2]).get('probe')\n"
    "print('ready', flush=True)\n"
)


def child_env(cache_dir: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_HOTPATH", "REPRO_OBS", "REPRO_CACHE_SHARDS"):
        env.pop(name, None)
    env["PYTHONPATH"] = SRC
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = cache_dir
    return env


def probe_setup(work: str) -> float:
    """Wall time from starting a fresh interpreter until it has
    imported the library and opened a fresh result cache."""
    cache = tempfile.mkdtemp(dir=work)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _PROBE, SRC, os.path.join(cache, "results")],
        stdout=subprocess.PIPE, env=child_env(), cwd=work,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` subprocess with its own fresh cache."""

    def __init__(self, work: str):
        self.dir = tempfile.mkdtemp(dir=work)
        self.log_path = os.path.join(self.dir, "server.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.setup_s = 0.0

    def start(self) -> "Server":
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--host", "127.0.0.1", "--port", "0"],
                stdout=subprocess.DEVNULL, stderr=log,
                env=child_env(os.path.join(self.dir, "cache")), cwd=self.dir,
            )
        deadline = t0 + SERVER_START_TIMEOUT_S
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not start")
            with open(self.log_path) as fh:
                match = _LISTENING.search(fh.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.002)
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                conn.request("GET", "/health")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /health")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        return self

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(str(self.proc.pid))

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def post_stream(port: int, bodies: List[bytes], stream: List[int],
                checker: Checker, clock: Optional[Clock] = None
                ) -> Tuple[float, List[dict]]:
    """Send the stream in a closed loop over one keep-alive connection,
    sampling ``clock`` before each first send; returns (wall seconds,
    one record per request)."""
    records = []
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    seen = set()
    t_start = time.perf_counter()
    try:
        for pos, idx in enumerate(stream):
            first = idx not in seen
            seen.add(idx)
            if first and clock is not None:
                clock.sample()
            t0 = time.perf_counter()
            try:
                conn.request("POST", "/schedule", body=bodies[idx],
                             headers={"Content-Type": "application/json"})
                # The server writes headers and body in separate sends
                # without TCP_NODELAY, so the body waits for the ACK of
                # the headers; a delayed ACK stalls the response ~40 ms,
                # at random, which swamps every latency. Acknowledge at
                # once.
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                checker.error(f"body {idx}", exc)
                conn.close()
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                continue
            latency = time.perf_counter() - t0
            key = resp.getheader("X-Repro-Request-Key") or f"body {idx}"
            if resp.status != 200:
                checker.error(key, RuntimeError(f"HTTP {resp.status}"))
                continue
            disposition = resp.getheader("X-Repro-Cache")
            if disposition != ("miss" if first else "hit"):
                checker.error(key, RuntimeError(
                    f"cache {disposition!r} on {'first' if first else 'repeat'} send"))
                continue
            if checker.output(key, data):
                records.append({
                    "pos": pos, "key": key, "cache": disposition,
                    "latency_s": latency, "at": t0 + latency / 2,
                    "wall_ms": float(resp.getheader("X-Repro-Wall-Ms") or 0.0),
                })
    finally:
        conn.close()
    return time.perf_counter() - t_start, records


def serve_inputs(seed: int, scale: str):
    from workload_inputs import serve_bodies, serve_stream

    bodies = serve_bodies(seed, ROOT, scale)
    stream = serve_stream(seed, len(bodies), scale)
    return bodies, stream


def serve_round(encoded: List[bytes], stream: List[int], checker: Checker,
                work: str, clock: Clock) -> Dict[str, Any]:
    """One round of serve_mixed: a fresh server, then the whole stream."""
    server = Server(work)
    try:
        clock.sample(SETUP_CLOCK_SAMPLES)
        at = time.perf_counter()
        server.start()
        wall, records = post_stream(server.port, encoded, stream, checker,
                                    clock)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {"wall_s": wall, "ops": records, "rss_mb": rss,
            "setup": (server.setup_s, at)}


def mean_nsl(shapes: Dict[str, Tuple[float, int]]) -> float:
    return statistics.fmean(v[0] for v in shapes.values()) if shapes else 0.0


def measure(workload, seed, seconds, scale, checker, work) -> Dict[str, Any]:
    """Untraced rounds of one workload, each with fresh caches.

    The host's speed drifts by up to 1.5x for seconds to minutes at a
    time, so every measured time is scaled to the reference speed by the
    reference-task samples taken around it (``calibrate.py``). A run
    repeats the same operations in at least two rounds, about
    ``seconds`` in all, and takes each operation's median scaled time
    over its rounds. Latencies are medians over operations; throughputs
    divide by the sum of those times. The set-up time is the median of
    its own scaled samples, spread over the run. The unscaled figures
    go to the report as ``raw``.
    """
    clock = Clock()
    if workload == "serve_mixed":
        bodies, stream = serve_inputs(seed, scale)
        encoded = [json.dumps(b).encode("utf-8") for b in bodies]
        one = lambda: serve_round(encoded, stream, checker, work, clock)  # noqa: E731
    elif workload == "bsa_large":
        requests, order = bsa_inputs(seed, scale)
        one = lambda: pipeline_pass(requests, order, checker, work,  # noqa: E731
                                    warm_reads=BSA_WARM_READS, clock=clock)
    else:
        cells = sweep_inputs(seed, scale)
        one = lambda: sweep_pass(cells, checker, work, clock=clock)  # noqa: E731
    #: (seconds, when) per set-up sample
    setups: List[Tuple[float, float]] = []

    def setup_sample() -> Tuple[float, float]:
        clock.sample(SETUP_CLOCK_SAMPLES)
        at = time.perf_counter()
        if workload == "serve_mixed":
            server = Server(work)
            try:
                return server.start().setup_s, at
            finally:
                server.stop()
        return probe_setup(work), at

    rounds = []
    budget = min(seconds, MAX_MEASURE_S)
    t_start = time.perf_counter()
    # at least two rounds; another only while it should end within budget
    while len(rounds) < 2 or (
            time.perf_counter() - t_start
            + median([r["wall_s"] for r in rounds]) <= budget):
        for _ in range(min(SETUP_PER_ROUND, SETUP_SAMPLES - len(setups))):
            setups.append(setup_sample())
        rounds.append(one())
        if "setup" in rounds[-1]:
            setups.append(rounds[-1]["setup"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    if workload == "paper_sweep":
        shapes = rounds[0]["nsl"]
    else:
        shapes = replay_bundles(checker)
    rss = [r["rss_mb"] for r in rounds if "rss_mb" in r]
    common = {"mean_nsl": mean_nsl(shapes),
              "peak_rss_mb": median(rss) if rss else vm_hwm_mb()}
    scaled, samples = summarize(rounds, setups, shapes, clock.scaled)
    raw, _ = summarize(rounds, setups, shapes, lambda seconds, at: seconds)
    factors = [REFERENCE_S / s for s in clock.seconds]
    return {
        "round_walls": [r["wall_s"] for r in rounds],
        "samples": samples,
        "metrics": dict(scaled, **common),
        "raw": raw,
        "calibration": {"samples": len(factors), "factor_min": min(factors),
                        "factor_p50": median(factors),
                        "factor_max": max(factors)},
    }


def summarize(rounds: List[dict], setups: List[Tuple[float, float]],
              shapes: Dict[str, Tuple[float, int]],
              scale: Callable[[float, float], float]
              ) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """The timing metrics, and their samples, with every time passed
    through ``scale(seconds, when)``; each operation counts once, at its
    median over the rounds."""
    times: Dict[int, List[float]] = {}
    kinds: Dict[int, dict] = {}
    for op in (op for r in rounds for op in r["ops"]):
        times.setdefault(op["pos"], []).append(scale(op["latency_s"], op["at"]))
        kinds[op["pos"]] = op
    ops = [(kinds[pos], median(values)) for pos, values in times.items()]
    busy = sum(t for _, t in ops)
    cold = [t for op, t in ops if op["cache"] == "miss"]
    warm = [t for op, t in ops if op["cache"] == "hit"]
    tasks = sum(shapes[op["key"]][1] for op, _ in ops
                if op["cache"] == "miss" and op["key"] in shapes)
    setup = [scale(seconds, at) for seconds, at in setups]
    return {
        "setup_s": median(setup),
        "req_per_s": ratio(len(ops), busy),
        "tasks_per_s": ratio(tasks, busy),
        "cold_p50_ms": median(cold) * 1e3,
        "warm_p50_ms": median(warm) * 1e3,
    }, {"setup": setup, "cold": cold, "warm": warm}


# ----------------------------------------------------------------------
# in-process passes (bsa_large, paper_sweep, and the traced replays)
# ----------------------------------------------------------------------

def pipeline_pass(requests: List[dict], order: List[int], checker: Checker,
                  work: str, span: Optional[Callable] = None,
                  warm_reads: int = 0,
                  clock: Optional[Clock] = None) -> Dict[str, Any]:
    """Send ``order`` (indices into ``requests``) through
    ``repro.service.execute`` against a fresh result cache; after each
    first send, send the same request ``warm_reads`` more times (cache
    hits). ``clock`` is sampled before each first send."""
    from repro.experiments.cache import ResultCache
    from repro.service import ScheduleRequest, execute

    cache_dir = os.path.join(tempfile.mkdtemp(dir=work), "results")
    typed = [ScheduleRequest.from_dict(r) for r in requests]
    ops: List[dict] = []
    request_ids = itertools.count()

    def run(req, cache, want):
        key = req.idempotency_key()
        rid = next(request_ids)
        t0 = time.perf_counter()
        try:
            with span(rid) if span is not None else contextlib.nullcontext():
                resp = execute(req, cache=cache)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            checker.error(key, exc)
            return
        latency = time.perf_counter() - t0
        if resp.cache != want:
            checker.error(key, RuntimeError(f"cache {resp.cache!r}, expected {want!r}"))
            return
        if checker.output(key, resp.bundle_text.encode("utf-8")):
            ops.append({"pos": rid, "key": key, "cache": want,
                        "latency_s": latency, "at": t0 + latency / 2})

    t_start = time.perf_counter()
    cache = ResultCache(cache_dir)
    seen = set()
    for i in order:
        first = i not in seen
        seen.add(i)
        if first and clock is not None:
            clock.sample()
        run(typed[i], cache, "miss" if first else "hit")
        for _ in range(warm_reads if first else 0):
            run(typed[i], cache, "hit")
    wall = time.perf_counter() - t_start
    return {"wall_s": wall, "ops": ops, "cache_dir": cache_dir}


def sweep_pass(cells: list, checker: Checker, work: str,
               span: Optional[Callable] = None,
               clock: Optional[Clock] = None) -> Dict[str, Any]:
    """Each cell through ``run_cells(jobs=1)`` into a fresh cache, each
    followed by the same cell again, answered from that cache.
    ``clock`` is sampled before each cell."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import run_cells

    cache_dir = os.path.join(tempfile.mkdtemp(dir=work), "results")
    ops: List[dict] = []
    nsl: Dict[str, Tuple[float, int]] = {}
    request_ids = itertools.count()

    def run(cell, cache, want):
        key = cell.key()
        rid = next(request_ids)
        t0 = time.perf_counter()
        try:
            with span(rid) if span is not None else contextlib.nullcontext():
                results, report = run_cells([cell], jobs=1, cache=cache)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            checker.error(key, exc)
            return
        latency = time.perf_counter() - t0
        got = "hit" if report.cache_hits == 1 else "miss" if report.computed == 1 else None
        if got != want or key not in results:
            checker.error(key, RuntimeError(f"cell {got!r}, expected {want!r}"))
            return
        result = results[key]
        if checker.output(key, b"", cell_digest(result)):
            ops.append({"pos": rid, "key": key, "cache": want,
                        "latency_s": latency, "at": t0 + latency / 2})
            nsl[key] = (result.normalized_sl, result.n_tasks)

    t_start = time.perf_counter()
    cache = ResultCache(cache_dir)
    for cell in cells:
        if clock is not None:
            clock.sample()
        run(cell, cache, "miss")
        run(cell, cache, "hit")
    wall = time.perf_counter() - t_start
    return {"wall_s": wall, "ops": ops, "cache_dir": cache_dir, "nsl": nsl}


def bsa_inputs(seed, scale):
    from workload_inputs import bsa_requests

    requests = bsa_requests(seed, scale)
    return requests, list(range(len(requests)))


def sweep_inputs(seed, scale):
    from workload_inputs import sweep_cells

    return sweep_cells(seed, scale)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

def counters_api():
    try:
        from repro.obs import counters
    except ImportError:
        return None
    return counters


def traced_run(workload, seed, scale, checker, work) -> Dict[str, Any]:
    """One untraced and one traced in-process pass over the same inputs
    (plus, for serve_mixed, one HTTP round for the transport overhead)."""
    from layer_trace import Tracer

    http_overhead: List[float] = []
    if workload == "serve_mixed":
        bodies, stream = serve_inputs(seed, scale)
        encoded = [json.dumps(b).encode("utf-8") for b in bodies]
        server = Server(work)
        try:
            server.start()
            _, records = post_stream(server.port, encoded, stream, checker)
        finally:
            server.stop()
        http_overhead = [x["latency_s"] * 1e3 - x["wall_ms"] for x in records]
        one = lambda span=None: pipeline_pass(  # noqa: E731
            bodies, stream, checker, work, span=span)
        root_layer = "service.pipeline"
    elif workload == "bsa_large":
        requests, order = bsa_inputs(seed, scale)
        one = lambda span=None: pipeline_pass(  # noqa: E731
            requests, order, checker, work, span=span,
            warm_reads=BSA_WARM_READS)
        root_layer = "service.pipeline"
    else:
        cells = sweep_inputs(seed, scale)
        one = lambda span=None: sweep_pass(cells, checker, work, span=span)  # noqa: E731
        root_layer = "experiments.runner"

    untraced = one()
    tracer = Tracer()
    counters = counters_api()
    snapshot = None
    if counters is not None:
        counters.reset()
        counters.enable()
    tracer.install()
    try:
        traced = one(span=lambda rid: tracer.span(root_layer, rid))
    finally:
        tracer.restore()
        if counters is not None:
            snapshot = counters.snapshot()
            counters.disable()
            counters.reset()
    if workload != "paper_sweep":
        replay_bundles(checker)
    pipeline_ops = traced["ops"] if root_layer == "service.pipeline" else []
    extra = {
        "http_overhead_ms": http_overhead,
        "miss_ms": [op["latency_s"] * 1e3 for op in pipeline_ops
                    if op["cache"] == "miss"],
        "hit_ms": [op["latency_s"] * 1e3 for op in pipeline_ops
                   if op["cache"] == "hit"],
        "bytes_on_disk": dir_bytes(os.path.dirname(traced["cache_dir"])),
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }
    return {"tracer": tracer, "metrics": layer_metrics(tracer, snapshot, extra),
            "extra": extra, "counters": snapshot or {}}


def layer_metrics(tr, counters: Optional[Dict[str, int]],
                  extra: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every per-layer metric; None where the layer (or the counter
    registry) no longer exists."""
    def incl(layer):
        return tr.inclusive_s.get(layer, 0.0) if layer in tr.present else None

    def p50_ms(layer):
        if layer not in tr.present:
            return None
        return median(tr.durations.get(layer, [])) * 1e3

    def count(name):
        return None if counters is None else counters.get(name, 0)

    def share(a, b):
        return None if a is None or b is None else ratio(a, b)

    evaluated = count("bsa.candidates_evaluated")
    pruned = count("bsa.candidates_pruned")
    pops = count("settle.cone_pops")
    settle_s = incl("schedule.settle")
    validator_s = incl("schedule.validator")
    schedulers = [v for v in (incl("core.bsa.schedule"), incl("baselines.schedule"))
                  if v is not None]
    lookups = None if counters is None else (
        counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
        + counters.get("cache.stale", 0))
    puts = tr.durations.get("experiments.cache.put", [])
    events = tr.counts.get("events", 0)
    runner = "experiments.runner"
    return {
        "service.http.overhead_ms_p50": median(extra["http_overhead_ms"]),
        "service.pipeline.miss_ms_p50": median(extra["miss_ms"]),
        "service.pipeline.hit_ms_p50": median(extra["hit_ms"]),
        "graph.interchange.load_s": incl("graph.interchange.load"),
        "network.build_system_s": incl("network.build_system"),
        "baselines.schedule_s": incl("baselines.schedule"),
        "core.bsa.schedule_s": incl("core.bsa.schedule"),
        "core.bsa.candidates_evaluated": evaluated,
        "core.bsa.prune_ratio": share(pruned, None if pruned is None
                                      else pruned + evaluated),
        "core.bsa.rejected_share": share(count("bsa.rejected_migrations"),
                                         count("bsa.migrations")),
        "core.bsa.txn_rollbacks": count("txn.rollbacks"),
        "schedule.settle.s": settle_s,
        "schedule.settle.cone_pops": pops,
        "schedule.settle.ns_per_pop": share(
            None if settle_s is None else settle_s * 1e9, pops),
        "util.intervals.timeline_rebuilds": (
            tr.calls.get("util.intervals.timeline_rebuild", 0)
            if "util.intervals.timeline_rebuild" in tr.present else None),
        "util.intervals.timeline_rebuild_s": incl("util.intervals.timeline_rebuild"),
        "schedule.validator.s": validator_s,
        "schedule.validator.share": share(
            validator_s, sum(schedulers) if schedulers else None),
        "schedule.metrics.s": incl("schedule.metrics"),
        "schedule.io.encode_s": incl("schedule.io.encode"),
        "schedule.io.bundle_bytes": (tr.counts.get("bundle_bytes", 0)
                                     if "schedule.io.encode" in tr.present else None),
        "experiments.cache.get_ms_p50": p50_ms("experiments.cache.get"),
        "experiments.cache.put_ms_p50": p50_ms("experiments.cache.put"),
        "experiments.cache.put_ms_max": (max(puts) * 1e3 if puts else 0.0)
        if "experiments.cache.put" in tr.present else None,
        "experiments.cache.hit_ratio": share(count("cache.hits"), lookups),
        "experiments.cache.bytes_on_disk": extra["bytes_on_disk"],
        "dynamic.simulate_s": incl("dynamic.simulate"),
        "dynamic.repair_share": (ratio(tr.counts.get("repairs", 0), events)
                                 if "dynamic.simulate" in tr.present else None),
        "objectives.evaluate_s": incl("objectives.evaluate"),
        "experiments.runner.overhead_s": tr.self_s.get(runner, 0.0),
        "trace.untraced_wall_s": extra["untraced_wall_s"],
        "trace.traced_wall_s": extra["traced_wall_s"],
        "trace.overhead_ratio": ratio(extra["traced_wall_s"],
                                      extra["untraced_wall_s"]),
    }


def self_time_table(tr, wall_s: float) -> List[str]:
    rows = [f"  {'layer':34s} {'calls':>8s} {'incl_s':>9s} {'self_s':>9s} "
            f"{'self/wall':>9s}"]
    layers = sorted(tr.calls, key=lambda name: -tr.self_s[name])
    for layer in layers:
        rows.append(
            f"  {layer:34s} {tr.calls[layer]:8d} "
            f"{tr.inclusive_s[layer]:9.4f} {tr.self_s[layer]:9.4f} "
            f"{ratio(tr.self_s[layer], wall_s):9.1%}")
    rows.append(f"  {'(traced wall)':34s} {'':8s} {wall_s:9.4f}")
    return rows


def ratio_bases(counters: Dict[str, int], tr, extra) -> List[str]:
    c = counters.get
    return [
        f"  core.bsa.prune_ratio     = pruned {c('bsa.candidates_pruned', 0)} / "
        f"(pruned + evaluated {c('bsa.candidates_evaluated', 0)})",
        f"  core.bsa.rejected_share  = rejected {c('bsa.rejected_migrations', 0)} / "
        f"migrations {c('bsa.migrations', 0)}",
        f"  schedule.settle.ns_per_pop = settle {tr.inclusive_s.get('schedule.settle', 0.0):.4f} s / "
        f"pops {c('settle.cone_pops', 0)}",
        f"  schedule.validator.share = validator {tr.inclusive_s.get('schedule.validator', 0.0):.4f} s / "
        f"schedulers {tr.inclusive_s.get('core.bsa.schedule', 0.0) + tr.inclusive_s.get('baselines.schedule', 0.0):.4f} s",
        f"  experiments.cache.hit_ratio = hits {c('cache.hits', 0)} / lookups "
        f"{c('cache.hits', 0) + c('cache.misses', 0) + c('cache.stale', 0)}",
        f"  dynamic.repair_share     = repairs {int(tr.counts.get('repairs', 0))} / "
        f"events {int(tr.counts.get('events', 0))}",
        f"  trace.overhead_ratio     = traced {extra['traced_wall_s']:.4f} s / "
        f"untraced {extra['untraced_wall_s']:.4f} s",
    ]


def export_chrome(tr, workload: str, seed: int) -> Optional[str]:
    try:
        from repro.obs.chrometrace import spans_to_trace, trace_to_json
    except ImportError:
        return None
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
    with open(path, "w") as fh:
        fh.write(trace_to_json(spans_to_trace(tr.chrome_records(workload))))
    return path


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------

def provenance(seed: int, samples: Dict[str, List[float]]) -> Dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        from repro.util.intervals import hotpath_mode
        engine = hotpath_mode()
    except ImportError:
        engine = "absent"
    commit = "absent"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    counts = {}
    for name, values in samples.items():
        p, _, beyond = tail(values)
        counts[name] = {"n": len(values), "tail_percentile": p,
                        "beyond_tail": beyond}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "engine_mode": engine,
        "git_commit": commit,
        "seed": seed,
        "samples": counts,
    }


def load_reference(workload: str, scale: str) -> Optional[Dict[str, str]]:
    """The committed digests (full scale only: the tiny inputs of the
    self-test have none)."""
    if scale != "full":
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full",
        reference: Any = "default") -> Dict[str, Any]:
    """Run one workload and return the full report (``result`` is the
    object the last output line carries). ``reference`` overrides the
    committed digests (None disables the check)."""
    from workload_inputs import DEFAULT_SEED

    if reference == "default":
        reference = load_reference(workload, scale)
    checker = Checker(reference, strict=seed == DEFAULT_SEED)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    lines = [f"perfbench {workload} seed={seed} trace={int(trace)} "
             f"scale={scale} reference={'off' if reference is None else 'strict' if checker.strict else 'known keys'}"]
    try:
        if not trace:
            # One CPU for this process, the servers it starts and the
            # reference task, so that the reference task times the CPU
            # the measured work runs on.
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
            try:
                report = measure(workload, seed, seconds, scale, checker, work)
            finally:
                os.sched_setaffinity(0, cpus)
            metrics = {name: (report["metrics"][name], unit)
                       for name, unit in END_TO_END.items()}
            samples = report["samples"]
            walls = ", ".join(f"{w:.3f}" for w in report["round_walls"])
            lines.append(f"  round walls (s): {walls}")
            cal = report["calibration"]
            lines.append(
                f"  host speed vs reference: {cal['factor_p50']:.3f} "
                f"(min {cal['factor_min']:.3f}, max {cal['factor_max']:.3f}, "
                f"{cal['samples']} reference-task samples); timings below "
                "are scaled to the reference")
            lines.append("  raw (unscaled): " + ", ".join(
                f"{name} = {value:.6g}" for name, value in report["raw"].items()))
            for name, values in samples.items():
                p, value, beyond = tail(values)
                if p is not None and name != "setup":
                    lines.append(f"  {name}_p{p}_ms = {value * 1e3:.3f} "
                                 f"({len(values)} samples, {beyond} beyond)")
            trace_report = None
        else:
            trace_report = traced_run(workload, seed, scale, checker, work)
            metrics = {name: (trace_report["metrics"][name], unit)
                       for name, unit in PER_LAYER.items()}
            samples = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"  {name:36s} {shown:>14s} {unit}")
    lines.append(f"  error_rate = {ratio(checker.failed, checker.attempted):.4g} "
                 f"({checker.failed} failed / {checker.attempted} attempted)")
    for problem in checker.problems:
        lines.append(f"  FAILED {problem}")
    prov = provenance(seed, samples)
    lines.append("  provenance: " + json.dumps(prov, sort_keys=True))
    if trace_report is not None:
        tr, extra = trace_report["tracer"], trace_report["extra"]
        lines.append("  per-layer self time (traced pass):")
        lines += self_time_table(tr, extra["traced_wall_s"])
        lines.append("  ratio bases:")
        lines += ratio_bases(trace_report["counters"], tr, extra)
        path = export_chrome(tr, workload, seed)
        if path:
            lines.append(f"  chrome trace: {os.path.relpath(path, ROOT)}")
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"lines": lines, "result": result, "provenance": prov,
            "digests": dict(checker.digests)}


def prepare() -> None:
    """Resolve the library and the sibling modules from this checkout
    only, on the default engine with telemetry off. Call before the
    first ``repro`` import."""
    for name in ("REPRO_HOTPATH", "REPRO_OBS"):
        os.environ.pop(name, None)
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    prepare()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.scale)
    except DeadlineExceeded as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"provenance": report["provenance"],
                   "result": report["result"]}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
