"""``execute(request) -> ServiceResponse``: the one request pipeline.

Before this module existed the graph-load -> bridge -> overlay ->
topology -> scheduler -> validate -> bundle flow was re-implemented (with
drift) in ``repro schedule``, ``repro simulate``, ``repro convert`` and
the sweep engine. Now the CLI and the HTTP server both call
:func:`execute`, so for the same request their outputs are
*byte-identical by construction*: the canonical schedule artifact is a
single string — ``bundle_to_json(schedule) + "\\n"`` over the live
schedule — and both transports emit it verbatim. Its bytes are
``json.dumps(bundle_to_dict(schedule), indent=2)``, which
``bundle_to_json`` writes straight from the schedule, falling back to
that ``json.dumps`` for a value off its shapes.

Caching. Schedule responses are memoized in the
:class:`~repro.experiments.cache.ResultCache` under the request's
idempotency key (the same store the experiment cells use; key grammars
cannot collide because cell keys start with a suite name and service
keys with ``schedule/``). Every entry carries provenance
``{repro_version, engine_mode, request_key}``; an entry whose version or
request key disagrees is *stale* and recomputed rather than served.
``engine_mode`` is recorded for observability but deliberately not a
staleness criterion: byte-identity of schedules across both
``REPRO_HOTPATH`` modes is the library's contract (enforced by
``tests/test_hotpath_equivalence.py``), so a bundle computed under one
mode is valid under all of them.

Thread-safety: :class:`ResultCache` is not thread-safe and the HTTP
server is threaded, so all cache access goes through a module lock.
Scheduling itself runs outside the lock — two racing identical requests
may both compute, but they compute the same bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro import obs
from repro.errors import ConfigurationError, DisconnectedGraphError
from repro.service.requests import (
    ConvertRequest,
    ParetoRequest,
    ScheduleRequest,
    SimulateRequest,
    SweepRequest,
)
from repro.util.checked import loads

__all__ = ["ServiceResponse", "execute", "build_schedule_system"]

_cache_lock = threading.Lock()


@dataclass
class ServiceResponse:
    """What :func:`execute` returns, for any request type.

    ``summary`` is always JSON-safe (it is the HTTP job payload);
    ``extra`` may hold live objects (the ``Schedule``, the bound system,
    a ``SimulationResult``) for in-process callers like the CLI and is
    never serialized.
    """

    kind: str                     # the request's TYPE tag
    request_key: str              # canonical idempotency key
    cache: str                    # "hit" | "miss" | "off"
    summary: Dict[str, Any] = field(default_factory=dict)
    bundle_text: Optional[str] = None   # canonical schedule bundle JSON
    provenance: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe view (used by ``/jobs/<id>`` and sync HTTP sweeps)."""
        return {
            "kind": self.kind,
            "request_key": self.request_key,
            "cache": self.cache,
            "summary": self.summary,
            "provenance": self.provenance,
        }


# ----------------------------------------------------------------------
# system construction (shared by schedule and simulate)
# ----------------------------------------------------------------------

def build_schedule_system(req: ScheduleRequest):
    """Materialize the bound :class:`HeterogeneousSystem` for a request.

    This is the one implementation of the CLI's historical branch
    structure: platform file/spec beats the topology family; a graph
    file's cost vectors pin the processor count; a generated workload
    with a family topology routes through the Cell grid builder so
    ``repro schedule`` and the sweep engine build bit-identical systems.
    """
    from repro.experiments.config import Cell
    from repro.experiments.runner import build_cell_system, build_topology
    from repro.network.topology import apply_link_model

    file_topology = None
    if req.topology_spec is not None or req.topology_file is not None:
        from repro.network.topology import Topology, load_topology

        if req.topology_spec is not None:
            source = "inline topology"
            topo = Topology.from_dict(req.topology_spec)
        else:
            source = req.topology_file
            topo = load_topology(req.topology_file)
        if req.n_procs is not None and req.n_procs != topo.n_procs:
            raise ConfigurationError(
                f"{source} has {topo.n_procs} processors; "
                f"--procs {req.n_procs} cannot apply"
            )
        # with the default flags this is a no-op that keeps the file's
        # own link specs; explicit duplex/bandwidth-skew overlay them
        file_topology = apply_link_model(
            topo, duplex=req.duplex,
            bandwidth_skew=req.bandwidth_skew, seed=req.seed,
        )

    if req.graph is not None or req.graph_path is not None:
        from repro.corpus.overlays import apply_overlay, parse_overlay
        from repro.graph.interchange import load_workload, loads_workload

        overlay = parse_overlay(req.overlay)
        bridge = req.bridge if req.bridge != "none" else overlay.bridge
        # strict validation is not optional here: every scheduler
        # re-checks the connected-DAG assumption itself; what IS offered
        # is the epsilon repair policy (bridge="epsilon")
        try:
            if req.graph_path is not None:
                workload = load_workload(
                    req.graph_path, fmt=req.format, bridge=bridge
                )
                source = req.graph_path
            else:
                workload = loads_workload(
                    req.graph, fmt=req.format, bridge=bridge
                )
                source = "inline graph"
        except DisconnectedGraphError as exc:
            raise DisconnectedGraphError(
                f"{exc} — the schedulers assume a connected DAG "
                f"(paper §2.1); pass `--bridge epsilon` to insert "
                f"minimal-cost connector edges, `--bridge components` "
                f"to co-schedule the weak components as independent "
                f"programs, or use `repro convert --allow-disconnected` "
                f"to inspect the file"
            ) from None
        if overlay.transforms:
            workload = apply_overlay(workload, overlay)
        if (workload.n_procs is not None and req.n_procs is not None
                and req.n_procs != workload.n_procs):
            raise ConfigurationError(
                f"{source} carries {workload.n_procs}-processor "
                f"cost vectors; --procs {req.n_procs} cannot apply"
            )
        if file_topology is not None:
            topology = file_topology
        else:
            n_procs = (
                workload.n_procs if workload.n_procs is not None
                else req.n_procs if req.n_procs is not None
                else 16
            )
            topology = build_topology(req.topology, n_procs, seed=req.seed)
            topology = apply_link_model(
                topology, duplex=req.duplex,
                bandwidth_skew=req.bandwidth_skew, seed=req.seed,
            )
        return workload.bind(topology, seed=req.seed)

    if file_topology is not None:
        from repro.network.system import HeterogeneousSystem
        from repro.workloads.suites import random_graph, regular_graph

        if req.workload == "random":
            graph = random_graph(req.size, req.granularity, seed=req.seed)
        else:
            graph = regular_graph(
                req.workload, req.size, req.granularity, seed=req.seed
            )
        return HeterogeneousSystem.sample(graph, file_topology, seed=req.seed)

    suite = "regular" if req.workload != "random" else "random"
    cell = Cell(
        suite=suite, app=req.workload, size=req.size,
        granularity=req.granularity, topology=req.topology,
        algorithm=req.algorithm,
        n_procs=req.n_procs if req.n_procs is not None else 16,
        graph_seed=req.seed, system_seed=req.seed,
        duplex=req.duplex, bandwidth_skew=req.bandwidth_skew,
    )
    return build_cell_system(cell)


def _run_scheduler(req, system):
    from repro.core.bsa import BSAOptions, schedule_bsa
    from repro.experiments.runner import _SCHEDULERS
    from repro.schedule.validator import validate_schedule

    with obs.span("schedule.algorithm", algorithm=req.algorithm):
        if req.algorithm == "bsa":
            sched = schedule_bsa(system, BSAOptions(seed=req.seed))
        else:
            sched = _SCHEDULERS[req.algorithm](system)
    with obs.span("schedule.validate"):
        validate_schedule(sched)
    return sched


# ----------------------------------------------------------------------
# per-type executors
# ----------------------------------------------------------------------

def _execute_schedule(req: ScheduleRequest, cache, use_cache: bool,
                      want_schedule: bool) -> ServiceResponse:
    from repro.experiments.cache import (
        PROVENANCE_KEY,
        default_cache,
        is_stale,
        stamp_provenance,
    )
    # looked up per call, not at import: perfbench's encode layer
    # wraps this name on repro.schedule.io
    from repro.schedule.io import bundle_to_json
    from repro.schedule.metrics import compute_metrics

    key = req.idempotency_key()
    if cache is None:
        cache = default_cache()
    # a cache hit cannot hand back the live Schedule object a Gantt
    # render needs, so want_schedule recomputes (deterministically —
    # the cached bytes and the recomputed bytes are the same bundle)
    if use_cache and not want_schedule:
        with _cache_lock:
            hit = cache.get(key)
        # cache files are untrusted: a malformed entry is stale
        if hit is not None and not is_stale(
                hit, key, {"bundle": str, "summary": dict}):
            return ServiceResponse(
                kind=req.TYPE, request_key=key, cache="hit",
                summary=dict(hit["summary"]), bundle_text=hit["bundle"],
                provenance=dict(hit.get(PROVENANCE_KEY) or {}),
            )

    with obs.span("schedule.build_system"):
        system = build_schedule_system(req)
    sched = _run_scheduler(req, system)
    metrics = compute_metrics(sched)
    bundle_text = bundle_to_json(sched) + "\n"
    summary = {
        "graph": system.graph.name,
        "n_tasks": system.graph.n_tasks,
        "n_edges": system.graph.n_edges,
        "topology": system.topology.name,
        "algorithm": sched.algorithm,
        "schedule_length": metrics.schedule_length,
        "total_comm_cost": metrics.total_comm_cost,
        "n_hops": metrics.n_hops,
        "speedup": metrics.speedup,
        "efficiency": metrics.efficiency,
    }
    resp = ServiceResponse(
        kind=req.TYPE, request_key=key,
        cache="miss" if use_cache else "off",
        summary=summary, bundle_text=bundle_text,
        extra={"schedule": sched, "system": system},
    )
    if use_cache:
        entry = stamp_provenance({"summary": summary, "bundle": bundle_text}, key)
        resp.provenance = dict(entry[PROVENANCE_KEY])
        with _cache_lock:
            cache.put(key, entry)
    return resp


def _execute_convert(req: ConvertRequest) -> ServiceResponse:
    from repro.graph.interchange import (
        convert_file,
        dumps_workload,
        loads_workload,
        save_workload,
        sniff_format,
    )

    key = req.idempotency_key()
    if req.topology:
        from repro.network.topology import load_topology, save_topology

        topo = load_topology(req.src)
        save_topology(topo, req.dst)
        return ServiceResponse(
            kind=req.TYPE, request_key=key, cache="off",
            summary={
                "mode": "topology", "src": req.src, "dst": req.dst,
                "topology": topo.name, "n_procs": topo.n_procs,
                "n_links": topo.n_links,
            },
        )

    kwargs = {}
    if req.default_comm is not None:
        kwargs["default_comm"] = req.default_comm
    if req.default_cost is not None:
        kwargs["default_cost"] = req.default_cost
    output = None
    if req.graph is not None:
        in_fmt = req.from_fmt or sniff_format(req.graph)
        workload = loads_workload(
            req.graph, fmt=in_fmt, validate=req.validate_graph,
            require_connected=req.require_connected, bridge=req.bridge,
            **kwargs,
        )
        out_fmt = req.to_fmt
        output = dumps_workload(workload, out_fmt)
        if req.dst is not None:
            with open(req.dst, "w") as fh:
                fh.write(output)
    else:
        in_fmt, out_fmt, workload = convert_file(
            req.src, req.dst,
            from_fmt=req.from_fmt, to_fmt=req.to_fmt,
            validate=req.validate_graph,
            require_connected=req.require_connected,
            bridge=req.bridge,
            **kwargs,
        )
    g = workload.graph
    return ServiceResponse(
        kind=req.TYPE, request_key=key, cache="off",
        summary={
            "mode": "graph", "src": req.src, "dst": req.dst,
            "from": in_fmt, "to": out_fmt,
            "graph": g.name, "n_tasks": g.n_tasks, "n_edges": g.n_edges,
            "n_procs": workload.n_procs,
        },
        extra={"workload": workload, "output": output},
    )


def _execute_sweep(req: SweepRequest, cache, use_cache: bool, jobs: int,
                   progress: Optional[Callable[[str], None]]) -> ServiceResponse:
    from repro.experiments.cache import provenance_stamp
    from repro.experiments.runner import run_cells

    key = req.idempotency_key()
    cells = req.expand()
    results, report = run_cells(
        cells, jobs=jobs, cache=cache, use_cache=use_cache,
        progress=progress, raise_on_error=False,
    )
    summary = {
        "n_cells": len(cells),
        "cells": {k: r.to_dict() for k, r in sorted(results.items())},
        "report": {
            "total": report.total,
            "unique": report.unique,
            "cache_hits": report.cache_hits,
            "stale": report.stale,
            "computed": report.computed,
            "failures": [list(f) for f in report.failures],
            "wall_s": report.wall_s,
            "jobs": report.jobs,
        },
    }
    return ServiceResponse(
        kind=req.TYPE, request_key=key,
        cache="off" if not use_cache
        else ("hit" if report.computed == 0 and not report.failures
              else "miss"),
        summary=summary,
        provenance=provenance_stamp(key),
        extra={"report": report},
    )


def _execute_pareto(req: ParetoRequest, cache, use_cache: bool, jobs: int,
                    progress: Optional[Callable[[str], None]]) -> ServiceResponse:
    from repro.experiments.cache import provenance_stamp
    from repro.experiments.pareto import pareto_to_json, run_pareto

    key = req.idempotency_key()
    doc, report = run_pareto(
        req.base_cell(),
        algorithms=req.resolved_algorithms(),
        objectives=req.resolved_objectives(),
        jobs=jobs, cache=cache, use_cache=use_cache, progress=progress,
    )
    # the canonical artifact rides in bundle_text: both transports (CLI
    # stdout, HTTP body) emit this exact string
    text = pareto_to_json(doc)
    summary = {
        "objectives": doc["objectives"],
        "senses": doc["senses"],
        "points": doc["points"],
        "front": doc["front"],
    }
    return ServiceResponse(
        kind=req.TYPE, request_key=key,
        cache="off" if not use_cache
        else ("hit" if report.computed == 0 else "miss"),
        summary=summary, bundle_text=text,
        provenance=provenance_stamp(key),
        extra={"doc": doc, "report": report},
    )


def _execute_simulate(req: SimulateRequest) -> ServiceResponse:
    from repro.dynamic import (
        FailureInjector,
        events_from_dict,
        parse_scenario,
        read_event_trace,
        simulate,
    )

    key = req.idempotency_key()
    system = build_schedule_system(req._as_schedule())
    sched = _run_scheduler(req, system)
    static_sl = sched.schedule_length()
    if req.events is not None:
        events = events_from_dict(
            loads(req.events, ConfigurationError, "inline event trace"))
        source = "inline events"
    elif req.events_path is not None:
        events = read_event_trace(req.events_path)
        source = req.events_path
    else:
        scenario = parse_scenario(req.scenario)
        events = FailureInjector(system, scenario, static_sl).events()
        source = f"scenario {req.scenario}"
    sim = simulate(sched, events, compare_replan=req.compare_replan)
    summary = {
        "graph": system.graph.name,
        "n_tasks": system.graph.n_tasks,
        "n_edges": system.graph.n_edges,
        "topology": system.topology.name,
        "algorithm": sched.algorithm,
        "static_sl": static_sl,
        "final_sl": sim.schedule.schedule_length(),
        "n_events": len(sim.records),
        "events_source": source,
        "records": [r.to_dict() for r in sim.records],
    }
    return ServiceResponse(
        kind=req.TYPE, request_key=key, cache="off", summary=summary,
        extra={"schedule": sched, "system": system, "sim": sim,
               "static_sl": static_sl, "events_source": source},
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def execute(
    request,
    cache=None,
    use_cache: bool = True,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    want_schedule: bool = False,
) -> ServiceResponse:
    """Run any service request through the shared pipeline.

    ``cache=None`` uses the process default; ``use_cache=False``
    computes fresh and writes nothing. ``jobs`` is the sweep worker-pool
    width (ignored elsewhere). ``want_schedule`` guarantees
    ``extra["schedule"]`` holds a live :class:`Schedule` (bypassing a
    would-be cache hit) for callers that need the object, e.g. a Gantt
    render. Failures raise the library's exceptions — transports map
    them via :mod:`repro.service.errors`.
    """
    request.validate()
    kind = getattr(request, "TYPE", type(request).__name__)
    with obs.span("service.execute", kind=kind) as sp:
        if isinstance(request, ScheduleRequest):
            resp = _execute_schedule(request, cache, use_cache, want_schedule)
        elif isinstance(request, ConvertRequest):
            resp = _execute_convert(request)
        elif isinstance(request, SweepRequest):
            resp = _execute_sweep(request, cache, use_cache, jobs, progress)
        elif isinstance(request, SimulateRequest):
            resp = _execute_simulate(request)
        elif isinstance(request, ParetoRequest):
            resp = _execute_pareto(request, cache, use_cache, jobs, progress)
        else:
            raise ConfigurationError(
                f"not a service request: {type(request).__name__}"
            )
    # wall clock is transport telemetry, never part of the artifact —
    # it rides in extra (in-process) and headers (HTTP), never the body
    resp.extra["wall_s"] = sp.elapsed_s
    resp.extra["wall_ms"] = round(sp.elapsed_s * 1000.0, 3)
    return resp
