"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
* ``schedule``   — schedule one workload (generated, or an external
  graph file via ``--graph``) and print results;
* ``simulate``   — event-driven rescheduling: schedule a workload, then
  drive it through arrivals / processor failures / link failures (a
  seeded ``--scenario`` token or an ``--events`` trace JSON), printing
  repair-vs-replan quality per event;
* ``replay``     — audit a schedule bundle written by ``--export-bundle``
  (re-validate and summarize it);
* ``example``    — run the paper's worked example with a Gantt chart;
* ``run``        — execute an experiment sweep through the parallel
  engine (``--jobs N``) with progress and a summary report;
* ``pareto``     — multi-objective sweep: every algorithm on one
  workload, scored on makespan / energy / reliability / throughput,
  emitting the deterministic non-dominated front as JSON;
* ``experiment`` — regenerate a figure (fig3..fig7, runtime);
* ``convert``    — translate a task-graph file between the interchange
  formats (stg / dot / trace / json / dax / wfcommons), or normalize a
  topology file (``--topology``);
* ``corpus``     — scan / list / benchmark a whole directory of graph
  files (``scan``, ``ls``, ``bench``, ``report``) with cache-key-visible
  overlays (CCR / granularity / heterogeneity);
* ``ablation``   — compare BSA option variants on one workload;
* ``report``     — regenerate the full reproduction report;
* ``serve``      — run the scheduling service over HTTP (with
  ``GET /metrics`` and optional ``--log-file`` NDJSON request logs);
* ``profile``    — run one scheduling cell with the observability layer
  enabled and print the engine counter / span tables;
* ``trace``      — export a schedule bundle (or live span records) as
  Chrome ``chrome://tracing`` JSON;
* ``info``       — library / scale / cache information.

Flag choices (``--algorithm``, ``--topology``, ``--format``,
``--workload``) are derived from the live registries —
``ALGORITHM_NAMES`` / ``TOPOLOGY_NAMES`` in
:mod:`repro.experiments.config`, :data:`repro.graph.interchange.FORMATS`
and ``WORKLOAD_NAMES`` in :mod:`repro.workloads.suites` — and a docs
test pins the README to them.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from repro import __version__
from repro.errors import ReproError


def _schedule_request_from_args(args):
    """The one CLI-flags -> :class:`ScheduleRequest` mapping (shared by
    ``schedule`` and, via the simulate variant, ``simulate``)."""
    from repro.service.requests import ScheduleRequest

    return ScheduleRequest(
        graph_path=args.graph, format=getattr(args, "format", None),
        bridge=args.bridge, workload=args.workload, size=args.size,
        granularity=args.granularity, topology=args.topology,
        topology_file=getattr(args, "topology_file", None),
        n_procs=args.procs, seed=args.seed, duplex=args.duplex,
        bandwidth_skew=args.bandwidth_skew, algorithm=args.algorithm,
    )


def _cmd_schedule(args) -> int:
    from repro.service.pipeline import execute

    if args.graph:
        ignored = [
            flag for flag, default in
            (("--workload", "random"), ("--size", 100), ("--granularity", 1.0))
            if getattr(args, flag.lstrip("-")) != default
        ]
        if ignored:
            print(f"note: generator flags ({', '.join(ignored)}) are ignored "
                  f"with --graph — the file's structure and costs are used "
                  f"verbatim", file=sys.stderr)
    resp = execute(_schedule_request_from_args(args),
                   want_schedule=bool(args.gantt))
    s = resp.summary
    print(f"workload : {s['graph']} ({s['n_tasks']} tasks, "
          f"{s['n_edges']} edges)")
    print(f"platform : {s['topology']}")
    print(f"algorithm: {s['algorithm']}")
    print(f"SL       : {s['schedule_length']:.1f}")
    print(f"comm     : {s['total_comm_cost']:.1f} over {s['n_hops']} hops")
    print(f"speedup  : {s['speedup']:.2f}  (efficiency {s['efficiency']:.2%})")
    if args.gantt:
        from repro.schedule.gantt import render_gantt

        print()
        print(render_gantt(resp.extra["schedule"], height=args.gantt_height))
    if args.export_bundle:
        # the response carries the canonical bundle bytes — the same
        # string the HTTP service returns for this request
        with open(args.export_bundle, "w") as fh:
            fh.write(resp.bundle_text)
        print(f"bundle written to {args.export_bundle} (audit with "
              f"`repro replay {args.export_bundle}`)", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    from repro.service.pipeline import execute
    from repro.service.requests import SimulateRequest

    req = SimulateRequest(
        graph_path=args.graph, bridge=args.bridge, workload=args.workload,
        size=args.size, granularity=args.granularity,
        topology=args.topology, n_procs=args.procs, seed=args.seed,
        duplex=args.duplex, bandwidth_skew=args.bandwidth_skew,
        algorithm=args.algorithm, scenario=args.scenario,
        events_path=args.events, compare_replan=not args.no_replan,
    )
    resp = execute(req)
    s = resp.summary
    sim = resp.extra["sim"]
    print(f"workload : {s['graph']} ({s['n_tasks']} tasks, "
          f"{s['n_edges']} edges)")
    print(f"platform : {s['topology']}; algorithm {s['algorithm']}")
    source = args.events if args.events else f"scenario {args.scenario}"
    print(f"static SL: {s['static_sl']:.1f}; {s['n_events']} event(s) "
          f"from {source}")
    for r in sim.records:
        line = (f"  [{r.index}] t={r.time:<9.1f} {r.etype:<12} -> "
                f"{r.strategy:<6} moved={r.tasks_moved:<3} "
                f"rerouted={r.edges_rerouted:<3} SL={r.sl_after:.1f}")
        if r.sl_replan is not None:
            line += (f"  (replan SL {r.sl_replan:.1f}, "
                     f"ratio {r.sl_after / r.sl_replan:.3f})")
        print(line)
    print(f"final SL : {sim.schedule.schedule_length():.1f} "
          f"(validator-clean, committed prefix intact)")
    # wall-clock is machine telemetry, not part of the deterministic output
    if sim.timings:
        note = f"repair wall {sim.repair_wall_s * 1e3:.1f} ms"
        if sim.replan_wall_s is not None:
            note += f", replan oracle wall {sim.replan_wall_s * 1e3:.1f} ms"
        print(note, file=sys.stderr)
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(sim.log_json())
        print(f"event log written to {args.log}", file=sys.stderr)
    if args.export_bundle:
        from repro.schedule.io import write_bundle

        write_bundle(sim.schedule, args.export_bundle)
        print(f"bundle written to {args.export_bundle} (audit with "
              f"`repro replay {args.export_bundle}`)", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    from repro.errors import InvalidScheduleError
    from repro.schedule.io import read_bundle
    from repro.schedule.metrics import compute_metrics
    from repro.schedule.validator import schedule_violations

    sched = read_bundle(args.bundle)
    violations = schedule_violations(sched)
    if violations:
        # exits 1 through the error table (the audit verdict), with the
        # individual findings in the payload/detail
        raise InvalidScheduleError(violations)
    system = sched.system
    metrics = compute_metrics(sched)
    print(f"replay OK: {args.bundle}")
    print(f"workload : {system.graph.name} ({system.graph.n_tasks} tasks, "
          f"{system.graph.n_edges} edges)")
    print(f"platform : {system.topology.name}")
    print(f"algorithm: {sched.algorithm}")
    print(f"SL       : {metrics.schedule_length:.1f}")
    print(f"comm     : {metrics.total_comm_cost:.1f} over {metrics.n_hops} hops")
    if args.gantt:
        from repro.schedule.gantt import render_gantt

        print()
        print(render_gantt(sched, height=args.gantt_height))
    return 0


def _cmd_example(args) -> int:
    from repro.experiments.paper_example import run_paper_example

    result = run_paper_example()
    sel = result["selection"]
    print("Paper worked example (Figure 1 graph, Table 1 costs, 4-proc ring)")
    print(f"CP lengths per processor : {[round(x) for x in sel.cp_lengths]}")
    print(f"first pivot              : P{sel.pivot + 1} (index {sel.pivot})")
    print(f"serial order             : {', '.join(sel.serial_order)}")
    print(f"serialized SL on pivot   : {result['serial_schedule_length']:.0f}")
    print(f"BSA schedule length      : {result['metrics'].schedule_length:.0f}")
    print(f"total communication      : {result['metrics'].total_comm_cost:.0f}")
    print(f"migrations               : {result['stats'].n_migrations} "
          f"(of which VIP-follow: {result['stats'].n_vip_migrations})")
    print()
    print(result["gantt"])
    return 0


def _cmd_run(args) -> int:
    """Execute a sweep through the parallel engine and report."""
    from repro.experiments.config import SCALES, current_scale
    from repro.experiments.figures import figure_cells
    from repro.experiments.runner import run_cells

    scale = SCALES[args.scale] if args.scale else current_scale()
    # runtime first: its cells overlap fig4/fig6's, and computing them in
    # a later parallel sweep would cache contention-inflated runtimes
    names = (
        ["runtime", "fig3", "fig4", "fig5", "fig6", "fig7"]
        if args.sweep == "all" else [args.sweep]
    )
    failed = False
    for name in names:
        cells = figure_cells(name, scale=scale)
        # runtime cells are timing measurements: computing them under
        # pool contention would cache inflated runtimes, so they always
        # run serially regardless of --jobs
        jobs = 1 if name == "runtime" else args.jobs
        note = " (serial: timing sweep)" if (name == "runtime" and args.jobs > 1) else ""
        print(f"sweep {name} @ scale {scale.name}: "
              f"{len(cells)} cells, jobs={jobs}{note}")
        _, report = run_cells(
            cells,
            jobs=jobs,
            use_cache=not args.no_cache,
            progress=lambda msg: print(f"  {msg}"),
            raise_on_error=False,  # failures are rendered in the summary
        )
        print(report.summary())
        failed = failed or bool(report.failures)
    return 1 if failed else 0


def _cmd_pareto(args) -> int:
    from repro.service.pipeline import execute
    from repro.service.requests import ParetoRequest

    req = ParetoRequest(
        workload=args.workload, size=args.size,
        granularity=args.granularity, topology=args.topology,
        n_procs=args.procs, seed=args.seed, duplex=args.duplex,
        bandwidth_skew=args.bandwidth_skew,
        algorithms=tuple(args.algorithms or ()),
        objectives=tuple(args.objectives or ()),
    )
    say = lambda msg: print(f"  {msg}", file=sys.stderr)  # noqa: E731
    resp = execute(req, jobs=args.jobs,
                   use_cache=not args.no_cache, progress=say)
    front = ", ".join(resp.summary["front"])
    print(f"front: {front} "
          f"({len(resp.summary['front'])}/{len(resp.summary['points'])} "
          f"non-dominated)", file=sys.stderr)
    # stdout carries only the canonical artifact — the same bytes
    # `POST /pareto` returns for this request
    print(resp.bundle_text, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(resp.bundle_text)
        print(f"pareto artifact written to {args.out}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import figures as F
    from repro.experiments.reporting import (
        render_figure,
        render_improvement_summary,
        render_panels,
    )
    from repro.experiments.config import SCALES

    scale = SCALES[args.scale] if args.scale else None
    name = args.figure
    if name in ("fig3", "fig4", "fig5", "fig6"):
        fn = {"fig3": F.figure3, "fig4": F.figure4,
              "fig5": F.figure5, "fig6": F.figure6}[name]
        panels = fn(scale=scale, jobs=args.jobs)
        print(render_panels(panels))
        print()
        print(render_improvement_summary(panels))
    elif name == "fig7":
        print(render_figure(F.figure7(scale=scale, jobs=args.jobs)))
    elif name == "runtime":
        print(render_figure(F.runtime_study(scale=scale, jobs=args.jobs), ndigits=3))
    else:
        print(f"unknown figure {name!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments.config import Cell
    from repro.experiments.runner import _SCHEDULERS, build_cell_system
    from repro.schedule.validator import validate_schedule
    from repro.util.tables import format_table

    cell = Cell(
        suite="random", app="random", size=args.size,
        granularity=args.granularity, topology=args.topology,
        algorithm="bsa", graph_seed=args.seed, system_seed=args.seed,
        duplex=args.duplex, bandwidth_skew=args.bandwidth_skew,
    )
    system = build_cell_system(cell)
    rows = []
    base_sl = None
    for name, scheduler in _SCHEDULERS.items():
        sched = scheduler(system)
        validate_schedule(sched)
        sl = sched.schedule_length()
        if name == "bsa":
            base_sl = sl
        rows.append([name, sl, None])
    rows = [[name, sl, sl / base_sl] for name, sl, _ in rows]
    print(format_table(
        ["variant", "SL", "vs bsa"],
        rows,
        title=(f"ablation — random n={args.size}, {args.topology}16, "
               f"g={args.granularity:g}, seed={args.seed}"),
        ndigits=3,
    ))
    return 0


def _cmd_convert(args) -> int:
    from repro.service.pipeline import execute
    from repro.service.requests import ConvertRequest

    req = ConvertRequest(
        src=args.src, dst=args.dst,
        from_fmt=args.from_fmt, to_fmt=args.to_fmt,
        validate_graph=not args.no_validate,
        require_connected=not args.allow_disconnected,
        bridge=args.bridge,
        default_comm=args.default_comm, default_cost=args.default_cost,
        topology=args.topology,
    )
    resp = execute(req)
    s = resp.summary
    if s["mode"] == "topology":
        print(f"{args.src} -> {args.dst}: topology {s['topology']} — "
              f"{s['n_procs']} processors, {s['n_links']} links")
        return 0
    vectors = (
        f", {s['n_procs']}-processor cost vectors" if s["n_procs"] else ""
    )
    if s["to"] != "trace" and s["n_procs"]:
        print(f"note: {s['to']!r} cannot carry per-processor cost vectors; "
              f"only the nominal graph was written", file=sys.stderr)
    print(f"{args.src} ({s['from']}) -> {args.dst} ({s['to']}): "
          f"{s['graph']} — {s['n_tasks']} tasks, {s['n_edges']} edges{vectors}")
    return 0


def _corpus_overlays(args):
    from repro.corpus.overlays import overlay_grid

    return overlay_grid(
        ccrs=args.ccr or (),
        granularities=args.granularity or (),
        het_ranges=[tuple(h) for h in (args.het or [])],
        het_seed=args.het_seed,
    )


def _cmd_corpus_scan(args) -> int:
    from repro.corpus.manifest import scan_corpus

    manifest = scan_corpus(args.dir)
    if args.out:
        manifest.save(args.out)
        print(f"manifest of {len(manifest)} file(s) written to {args.out}")
    else:
        print(manifest.to_json())
    return 0


def _cmd_corpus_ls(args) -> int:
    from repro.corpus.manifest import scan_corpus
    from repro.util.tables import format_table

    manifest = scan_corpus(args.dir)
    rows = [
        [
            e.path, e.fmt, e.n_tasks, e.n_edges, e.components,
            e.ccr, e.n_procs if e.n_procs is not None else "-",
            e.content_hash[:12],
        ]
        for e in manifest.entries
    ]
    print(format_table(
        ["file", "format", "tasks", "edges", "components", "ccr", "procs",
         "content"],
        rows,
        title=f"corpus {manifest.directory} — {len(manifest)} graph file(s)",
        ndigits=3,
    ))
    return 0


def _run_corpus_bench(args, telemetry: bool) -> int:
    from repro import obs
    from repro.corpus.bench import corpus_bench
    from repro.util.intervals import hotpath_mode

    say = (lambda msg: obs.telemetry(f"  {msg}")) if telemetry else None
    report_text, sweep = corpus_bench(
        args.dir,
        overlays=_corpus_overlays(args),
        topologies=tuple(args.topologies),
        algorithms=tuple(args.algorithms),
        n_procs=args.procs,
        system_seed=args.seed,
        jobs=args.jobs,
        use_cache=not getattr(args, "no_cache", False),
        progress=say,
        objectives=",".join(args.objectives or ()),
    )
    if telemetry:
        # execution telemetry (timings, cache hits) goes to stderr: the
        # stdout/--out report is the deterministic artifact
        obs.telemetry(sweep.summary())
    # cache provenance is telemetry too — stderr keeps the report
    # byte-identical across library versions, engine modes, and job
    # counts
    obs.telemetry(
        f"provenance: repro {__version__}, engine {hotpath_mode()}, "
        f"jobs {max(1, args.jobs)}, {sweep.stale} stale cache entr"
        f"{'y' if sweep.stale == 1 else 'ies'} recomputed"
    )
    print(report_text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_text + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return 1 if sweep.failures else 0


def _cmd_corpus_bench(args) -> int:
    return _run_corpus_bench(args, telemetry=True)


def _cmd_corpus_report(args) -> int:
    return _run_corpus_bench(args, telemetry=False)


def _cmd_report(args) -> int:
    from repro.experiments.config import SCALES
    from repro.experiments.report import generate_report

    scale = SCALES[args.scale] if args.scale else None
    text = generate_report(scale=scale, include_example=not args.no_example)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    import os

    from repro.service.http import serve

    api_key = args.api_key or os.environ.get("REPRO_API_KEY") or None
    return serve(
        host=args.host, port=args.port, api_key=api_key, jobs=args.jobs,
        async_threshold=args.async_threshold,
        use_cache=not args.no_cache,
        log_file=args.log_file, obs_counters=args.obs,
    )


def _cmd_trace(args) -> int:
    from repro.errors import SchedulingError
    from repro.obs.chrometrace import schedule_trace, trace_to_json
    from repro.util.checked import loads

    with open(args.bundle, "rb") as fh:
        data = fh.read()
    doc = schedule_trace(loads(data, SchedulingError, f"bundle {args.bundle}"))
    text = trace_to_json(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        n = len(doc["traceEvents"])
        print(f"chrome trace ({n} events) written to {args.out} — open "
              f"via chrome://tracing or https://ui.perfetto.dev",
              file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_profile(args) -> int:
    from repro import obs
    from repro.service.pipeline import execute
    from repro.util.tables import format_table

    obs.enable()
    obs.reset()
    obs.reset_spans()
    resp = execute(_schedule_request_from_args(args), use_cache=False)
    s = resp.summary
    print(f"profile  : {s['graph']} ({s['n_tasks']} tasks) on "
          f"{s['topology']}, algorithm {s['algorithm']}")
    print(f"SL       : {s['schedule_length']:.1f}  "
          f"(wall {resp.extra['wall_ms']:.1f} ms)")
    print()
    snap = obs.snapshot()
    print(format_table(
        ["counter", "value"],
        [[name, value] for name, value in snap.items() if value],
        title="engine counters (deterministic; zero-valued omitted)",
    ))
    spans: dict = {}
    order: list = []
    for rec in obs.span_records():
        name = rec["name"]
        if name not in spans:
            spans[name] = [0, 0.0]
            order.append(name)
        spans[name][0] += 1
        spans[name][1] += rec["dur_s"]
    print()
    print(format_table(
        ["span", "count", "total ms", "mean ms"],
        [
            [name, n, total * 1e3, total * 1e3 / n]
            for name, (n, total) in ((k, spans[k]) for k in order)
        ],
        title="spans (wall-clock; machine telemetry)",
        ndigits=3,
    ))
    if args.trace:
        from repro.obs.chrometrace import spans_to_trace, trace_to_json

        doc = spans_to_trace(obs.span_records(), counters=snap)
        with open(args.trace, "w") as fh:
            fh.write(trace_to_json(doc))
        print(f"span trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_info(args) -> int:
    import os

    from repro.experiments.cache import default_cache
    from repro.experiments.config import current_scale

    scale = current_scale()
    cache = default_cache()
    from repro.graph.interchange import format_names

    print(f"repro {__version__} — BSA/DLS reproduction (Kwok & Ahmad, ICPP 1999)")
    print(f"scale     : {scale.name} (REPRO_SCALE={os.environ.get('REPRO_SCALE', '<unset>')})")
    print(f"  sizes        : {list(scale.sizes)}")
    print(f"  granularities: {list(scale.granularities)}")
    print(f"  topologies   : {list(scale.topologies)}")
    print(f"  algorithms   : {list(scale.algorithms)}")
    print(f"cache     : {cache.path} ({len(cache)} cells)")
    print(f"formats   : {', '.join(format_names())} "
          f"(repro convert / repro schedule --graph)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # flag choices come from the live registries so the CLI can never
    # drift from what the library actually accepts (docs-tested)
    from repro.experiments.config import ALGORITHM_NAMES, TOPOLOGY_NAMES
    from repro.graph.interchange import format_names
    from repro.objectives.registry import OBJECTIVE_NAMES
    from repro.workloads.suites import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BSA link-contention scheduling reproduction (Kwok & Ahmad, ICPP 1999)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument("--json", dest="json_errors", action="store_true",
                        help="on failure, print the structured error "
                             "payload {error, kind, detail, violations?} "
                             "as JSON on stdout instead of prose on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="schedule one workload")
    p.add_argument("--algorithm", "-a", default="bsa",
                   choices=list(ALGORITHM_NAMES))
    p.add_argument("--workload", "-w", default="random",
                   choices=list(WORKLOAD_NAMES))
    p.add_argument("--graph", metavar="FILE", default=None,
                   help="schedule this task-graph file instead of a "
                        "generated workload (stg/dot/trace/json; format "
                        "sniffed unless --format is given). Trace files "
                        "with per-processor cost vectors bind their own "
                        "heterogeneity and pin the processor count")
    p.add_argument("--format", default=None, choices=list(format_names()),
                   help="interchange format of --graph (default: sniff)")
    p.add_argument("--bridge", default="none",
                   choices=["none", "epsilon", "components"],
                   help="repair a disconnected --graph import: 'epsilon' "
                        "inserts minimal-cost connector edges, 'components' "
                        "co-schedules the weak components as independent "
                        "programs (default: reject it)")
    p.add_argument("--size", "-n", type=int, default=100)
    p.add_argument("--granularity", "-g", type=float, default=1.0)
    p.add_argument("--topology", "-t", default="hypercube",
                   choices=list(TOPOLOGY_NAMES))
    p.add_argument("--topology-file", metavar="FILE", default=None,
                   help="schedule on the platform in this repro-topology "
                        "JSON file (see `repro convert --topology`) instead "
                        "of a built-in --topology family; the file pins the "
                        "processor count and link specs")
    p.add_argument("--procs", "-p", type=int, default=None,
                   help="processor count (default: 16, or the vector "
                        "length of a --graph trace file)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duplex", default="half", choices=["half", "full"],
                   help="link duplex mode: 'half' shares one timeline per "
                        "link (paper default), 'full' gives each direction "
                        "its own timeline")
    p.add_argument("--bandwidth-skew", type=float, default=1.0,
                   help="sample per-link bandwidth from U[1, SKEW] "
                        "(default 1.0 = the paper's uniform links); hop "
                        "duration is comm cost / bandwidth")
    p.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p.add_argument("--gantt-height", type=int, default=40)
    p.add_argument("--export-bundle", metavar="FILE", default=None,
                   help="write the validated schedule as a self-contained "
                        "JSON bundle (audit it with `repro replay`)")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser(
        "simulate",
        help="event-driven rescheduling: arrivals and failures against a "
             "static schedule, with prefix-preserving repair",
    )
    p.add_argument("--algorithm", "-a", default="bsa",
                   choices=list(ALGORITHM_NAMES))
    p.add_argument("--workload", "-w", default="random",
                   choices=list(WORKLOAD_NAMES))
    p.add_argument("--graph", metavar="FILE", default=None,
                   help="simulate on this task-graph file instead of a "
                        "generated workload")
    p.add_argument("--bridge", default="none",
                   choices=["none", "epsilon", "components"],
                   help="repair a disconnected --graph import")
    p.add_argument("--size", "-n", type=int, default=100)
    p.add_argument("--granularity", "-g", type=float, default=1.0)
    p.add_argument("--topology", "-t", default="hypercube",
                   choices=list(TOPOLOGY_NAMES))
    p.add_argument("--procs", "-p", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duplex", default="half", choices=["half", "full"])
    p.add_argument("--bandwidth-skew", type=float, default=1.0)
    p.add_argument("--scenario", default="f1a1s0",
                   help="seeded injection token "
                        "f<proc-failures>l<link-failures>a<arrivals>s<seed> "
                        "(default: f1a1s0); ignored with --events")
    p.add_argument("--events", metavar="FILE", default=None,
                   help="read events from this repro-event-trace JSON file "
                        "instead of injecting --scenario")
    p.add_argument("--no-replan", action="store_true",
                   help="skip the full-tail replan oracle (faster; no "
                        "repair-vs-replan quality columns)")
    p.add_argument("--log", metavar="FILE", default=None,
                   help="write the deterministic event log JSON to FILE")
    p.add_argument("--export-bundle", metavar="FILE", default=None,
                   help="write the final schedule as a JSON bundle "
                        "(audit it with `repro replay`)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "replay",
        help="re-validate and summarize a schedule bundle "
             "(from `--export-bundle`)",
    )
    p.add_argument("bundle", help="schedule bundle JSON file")
    p.add_argument("--gantt", action="store_true",
                   help="print an ASCII Gantt chart")
    p.add_argument("--gantt-height", type=int, default=40)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("example", help="run the paper's worked example")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("run", help="execute an experiment sweep (parallel)")
    p.add_argument("sweep", nargs="?", default="all",
                   choices=["fig3", "fig4", "fig5", "fig6", "fig7",
                            "runtime", "all"])
    p.add_argument("--scale", choices=["smoke", "default", "full"], default=None)
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes (default: 1, serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every cell, ignore and skip the cache")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "pareto",
        help="multi-objective sweep: every algorithm on one workload, "
             "scored on makespan/energy/reliability/throughput, with "
             "the deterministic non-dominated front",
    )
    p.add_argument("--workload", "-w", default="random",
                   choices=list(WORKLOAD_NAMES))
    p.add_argument("--size", "-n", type=int, default=100)
    p.add_argument("--granularity", "-g", type=float, default=1.0)
    p.add_argument("--topology", "-t", default="hypercube",
                   choices=list(TOPOLOGY_NAMES))
    p.add_argument("--procs", "-p", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duplex", default="half", choices=["half", "full"])
    p.add_argument("--bandwidth-skew", type=float, default=1.0)
    p.add_argument("--algorithms", "-a", nargs="+", default=None,
                   choices=list(ALGORITHM_NAMES),
                   help="schedulers to compare (default: all)")
    p.add_argument("--objectives", "-O", nargs="+", default=None,
                   choices=list(OBJECTIVE_NAMES),
                   help="objectives to score (default: all; at least two)")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes (default: 1, serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every point, ignore and skip the cache")
    p.add_argument("--out", "-o", default=None,
                   help="also write the artifact JSON to this file")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("experiment", help="regenerate a figure")
    p.add_argument("figure", choices=["fig3", "fig4", "fig5", "fig6", "fig7", "runtime"])
    p.add_argument("--scale", choices=["smoke", "default", "full"], default=None)
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes for the cell sweep")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "convert", help="translate a task-graph file between formats"
    )
    p.add_argument("src", help="input graph file")
    p.add_argument("dst", help="output graph file")
    p.add_argument("--from", dest="from_fmt", default=None,
                   choices=list(format_names()),
                   help="input format (default: sniff content/extension)")
    p.add_argument("--to", dest="to_fmt", default=None,
                   choices=list(format_names()),
                   help="output format (default: from the dst extension)")
    p.add_argument("--default-comm", type=float, default=None,
                   help="communication cost for edges the input format "
                        "does not annotate (stg/dot; default 1.0 for stg)")
    p.add_argument("--default-cost", type=float, default=None,
                   help="execution cost for DOT nodes without a cost "
                        "attribute or numeric label")
    p.add_argument("--no-validate", action="store_true",
                   help="skip the structural (DAG/connectivity) check")
    p.add_argument("--allow-disconnected", action="store_true",
                   help="accept graphs that are not weakly connected")
    p.add_argument("--bridge", default="none",
                   choices=["none", "epsilon", "components"],
                   help="repair a disconnected import before validation: "
                        "'epsilon' inserts minimal-cost connector edges, "
                        "'components' marks the weak components as "
                        "independent co-scheduled programs")
    p.add_argument("--topology", action="store_true",
                   help="treat SRC/DST as repro-topology JSON platform "
                        "files (validate + normalize) instead of task graphs")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "corpus",
        help="scan and benchmark a directory of graph files",
    )
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    def _add_corpus_dir(sp):
        sp.add_argument("dir", nargs="?", default=None,
                        help="corpus directory (default: examples/corpus)")

    ps = corpus_sub.add_parser(
        "scan", help="scan a corpus into a content-hashed JSON manifest"
    )
    _add_corpus_dir(ps)
    ps.add_argument("--out", "-o", default=None,
                    help="write the manifest JSON to this file")
    ps.set_defaults(func=_cmd_corpus_scan)

    ps = corpus_sub.add_parser(
        "ls", help="list a corpus (format, sizes, CCR, components, hash)"
    )
    _add_corpus_dir(ps)
    ps.set_defaults(func=_cmd_corpus_ls)

    def _add_corpus_sweep_flags(sp):
        _add_corpus_dir(sp)
        sp.add_argument("--topologies", "-t", nargs="+",
                        default=["ring", "hypercube"],
                        choices=list(TOPOLOGY_NAMES),
                        help="topology families to sweep (default: ring "
                             "hypercube)")
        sp.add_argument("--algorithms", "-a", nargs="+",
                        default=list(ALGORITHM_NAMES),
                        choices=list(ALGORITHM_NAMES),
                        help="schedulers to compare (default: all)")
        sp.add_argument("--procs", "-p", type=int, default=8,
                        help="processor count for scalar files (trace-like "
                             "files pin their own; default: 8)")
        sp.add_argument("--seed", type=int, default=0,
                        help="system seed for sampled heterogeneity")
        sp.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (default: 1, serial)")
        sp.add_argument("--ccr", type=float, nargs="*", default=None,
                        help="overlay axis: rescale each file's comm costs "
                             "to these CCR targets")
        sp.add_argument("--granularity", "-g", type=float, nargs="*",
                        default=None,
                        help="overlay axis: multiply comm costs by these "
                             "factors")
        sp.add_argument("--het", type=float, nargs=2, action="append",
                        metavar=("LO", "HI"), default=None,
                        help="overlay axis: re-sample exec vectors from "
                             "U[LO, HI] (vector files; scalar files route "
                             "through the cell het axes); repeatable")
        sp.add_argument("--het-seed", type=int, default=0,
                        help="seed of the heterogeneity overlay re-sample")
        sp.add_argument("--objectives", "-O", nargs="+", default=None,
                        choices=list(OBJECTIVE_NAMES),
                        help="also score these objectives per cell and "
                             "append the per-criterion mean table")
        sp.add_argument("--out", "-o", default=None,
                        help="also write the aggregate report to this file")

    ps = corpus_sub.add_parser(
        "bench",
        help="run the corpus sweep (with progress/telemetry on stderr) "
             "and print the deterministic aggregate ordering report",
    )
    _add_corpus_sweep_flags(ps)
    ps.add_argument("--no-cache", action="store_true",
                    help="recompute every cell, ignore and skip the cache")
    ps.set_defaults(func=_cmd_corpus_bench)

    ps = corpus_sub.add_parser(
        "report",
        help="render the aggregate ordering report (serving cached cells, "
             "computing only what is missing; no telemetry)",
    )
    _add_corpus_sweep_flags(ps)
    ps.set_defaults(func=_cmd_corpus_report)

    p = sub.add_parser("ablation", help="compare BSA option variants on one workload")
    p.add_argument("--size", "-n", type=int, default=60)
    p.add_argument("--granularity", "-g", type=float, default=1.0)
    p.add_argument("--topology", "-t", default="hypercube",
                   choices=list(TOPOLOGY_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duplex", default="half", choices=["half", "full"],
                   help="link duplex mode (see 'schedule --duplex')")
    p.add_argument("--bandwidth-skew", type=float, default=1.0,
                   help="per-link bandwidth drawn from U[1, SKEW]")
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("report", help="regenerate the full reproduction report")
    p.add_argument("--scale", choices=["smoke", "default", "full"], default=None)
    p.add_argument("--out", "-o", default=None,
                   help="write markdown to this file (default: stdout)")
    p.add_argument("--no-example", action="store_true",
                   help="skip the worked example section")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the scheduling service over HTTP (stdlib-only): "
             "/health /version /schedule /convert /sweep /pareto "
             "/jobs/<id>",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (default: 8321; 0 picks a free port)")
    p.add_argument("--api-key", default=None,
                   help="require this X-API-Key header on every request "
                        "except /health (default: the REPRO_API_KEY env "
                        "var, or no gating)")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes for /sweep grids (default: 1)")
    p.add_argument("--async-threshold", type=int, default=8,
                   help="sweeps larger than this many cells return 202 + "
                        "a job id to poll at /jobs/<id> (default: 8)")
    p.add_argument("--no-cache", action="store_true",
                   help="compute every request fresh; never read or "
                        "write the result cache")
    p.add_argument("--log-file", metavar="FILE", default=None,
                   help="append one NDJSON record per request (method, "
                        "path, status, wall_ms, cache disposition) to "
                        "FILE")
    p.add_argument("--obs", action="store_true",
                   help="enable the deterministic engine counters so "
                        "GET /metrics reports live scheduler totals "
                        "(small overhead; responses stay byte-identical)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="export a schedule bundle as Chrome chrome://tracing JSON "
             "(processors as threads, message hops as flow arrows)",
    )
    p.add_argument("bundle", help="schedule bundle JSON file "
                                  "(from `--export-bundle`)")
    p.add_argument("--out", "-o", default=None,
                   help="write the trace JSON to this file "
                        "(default: stdout)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run one scheduling cell with observability enabled and "
             "print the engine counter / span tables",
    )
    p.add_argument("--algorithm", "-a", default="bsa",
                   choices=list(ALGORITHM_NAMES))
    p.add_argument("--workload", "-w", default="random",
                   choices=list(WORKLOAD_NAMES))
    p.add_argument("--graph", metavar="FILE", default=None,
                   help="profile this task-graph file instead of a "
                        "generated workload")
    p.add_argument("--size", "-n", type=int, default=100)
    p.add_argument("--granularity", "-g", type=float, default=1.0)
    p.add_argument("--topology", "-t", default="hypercube",
                   choices=list(TOPOLOGY_NAMES))
    p.add_argument("--procs", "-p", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="also write the recorded spans as Chrome trace "
                        "JSON to FILE")
    p.set_defaults(func=_cmd_profile,
                   duplex="half", bandwidth_skew=1.0, bridge="none",
                   format=None, topology_file=None)

    p = sub.add_parser("info", help="library and scale information")
    p.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # every library failure exits through the service error table:
        # one documented exit code per error class, and an optional
        # machine-readable payload (repro --json ...); anything else is
        # a bug, reported with its traceback and exit 70, kind "internal"
        from repro.service.errors import error_payload, exit_code_for

        if not isinstance(exc, (ReproError, OSError)):
            traceback.print_exc()
        payload = error_payload(exc)
        if getattr(args, "json_errors", False):
            import json

            print(json.dumps(payload, indent=2))
        else:
            print(f"repro {args.command}: {payload['detail']}",
                  file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
