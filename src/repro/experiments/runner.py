"""Cell execution: build the (graph, platform), run the algorithm, validate.

Every cell result is validated with the strict schedule validator before it
is trusted or cached — a reproduction whose schedules silently violate the
contention model would be meaningless.

:func:`run_cell` runs one cell; :func:`run_cells` is the sweep engine: it
deduplicates cells, serves cache hits, and fans the misses out over a
``concurrent.futures`` process pool in deterministic chunks. Workers never
touch the on-disk cache — results flow back to the parent, which writes
each one to the cache as it arrives — so a sweep's outcome is
bit-for-bit independent of ``jobs`` (each cell is a pure function of
its own seeds; see ``tests/test_parallel_determinism.py``).
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.experiments.cache import (
    ResultCache,
    default_cache,
    is_stale,
    stamp_provenance,
)
from repro.experiments.config import Cell
from repro.network.system import HeterogeneousSystem
from repro.network.topology import (
    Topology,
    apply_link_model,
    clique,
    fat_tree,
    hypercube,
    random_topology,
    ring,
    torus2d,
)
from repro.baselines.cpop import schedule_cpop
from repro.baselines.dls import DLSOptions, schedule_dls
from repro.baselines.etf import schedule_etf
from repro.baselines.heft import schedule_heft
from repro.baselines.spdecomp import schedule_spdecomp
from repro.core.bsa import BSAOptions, schedule_bsa
from repro.objectives.registry import evaluate_objectives
from repro.schedule.metrics import compute_metrics
from repro.schedule.validator import validate_schedule
from repro.workloads.external import EXTERNAL_SUITE, resolve_external
from repro.workloads.suites import random_graph, regular_graph


@dataclass(frozen=True)
class CellResult:
    """Everything recorded about one cell run."""

    schedule_length: float
    total_comm_cost: float
    speedup: float
    normalized_sl: float
    runtime_s: float
    n_tasks: int
    n_edges: int
    #: events survived by a scenario cell (0 for static cells; absent
    #: from pre-existing cache entries, which deserialize to 0)
    n_events: int = 0
    #: extra objective values ({} for makespan-only cells; absent from
    #: pre-existing cache entries, which deserialize to {}). Keys are
    #: canonical objective names — see repro.objectives.
    objectives: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CellResult":
        # ``__``-prefixed keys are cache metadata (provenance stamps),
        # not result fields
        return cls(**{k: v for k, v in d.items() if not k.startswith("__")})


def build_topology(name: str, n_procs: int, seed: int = 0) -> Topology:
    if name == "ring":
        return ring(n_procs)
    if name == "hypercube":
        return hypercube(n_procs)
    if name == "clique":
        return clique(n_procs)
    if name == "random":
        return random_topology(n_procs, 2, 8, seed=seed)
    if name == "torus":
        rows, cols = _near_square(n_procs)
        if rows < 2 or (rows == 2 and cols == 2):
            # a 1 x m "torus" is structurally a ring, and 2 x 2 is a
            # 4-cycle isomorphic to ring(4) — comparing either to
            # topology="ring" would silently compare identical networks
            raise ConfigurationError(
                f"torus needs a composite processor count >= 6, got {n_procs}"
            )
        return torus2d(rows, cols)
    if name == "fattree":
        return fat_tree(n_procs)
    raise ConfigurationError(f"unknown topology {name!r}")


def _near_square(m: int) -> Tuple[int, int]:
    """Most-square ``rows x cols`` factorization of ``m`` (rows <= cols)."""
    r = int(m ** 0.5)
    while r > 1 and m % r:
        r -= 1
    return r, m // r


def build_cell_system(cell: Cell) -> HeterogeneousSystem:
    """Materialize the graph and bound platform for a cell.

    ``suite="external"`` cells resolve their graph (and, for trace
    files, the exact per-processor cost table) from the file named by
    the cell's app token — see :mod:`repro.workloads.external`. Every
    other suite samples heterogeneity from the cell's seeds.
    """
    if cell.suite == "regular":
        graph = regular_graph(
            cell.app, cell.size, cell.granularity, seed=cell.graph_seed
        )
    elif cell.suite == "random":
        graph = random_graph(cell.size, cell.granularity, seed=cell.graph_seed)
    elif cell.suite == EXTERNAL_SUITE:
        graph = None  # the workload binds itself below
    else:
        raise ConfigurationError(f"unknown suite {cell.suite!r}")
    topology = build_topology(cell.topology, cell.n_procs, seed=cell.system_seed)
    # overlay the cell's link model; with the defaults this is a no-op
    # that returns the very same topology object (byte-identical runs)
    topology = apply_link_model(
        topology,
        duplex=cell.duplex,
        bandwidth_skew=cell.bandwidth_skew,
        seed=cell.system_seed,
    )
    link_range = (cell.het_lo, cell.het_hi) if cell.link_het else None
    if cell.suite == EXTERNAL_SUITE:
        workload = resolve_external(cell.app)
        return workload.bind(
            topology,
            het_range=(cell.het_lo, cell.het_hi),
            link_het_range=link_range,
            seed=cell.system_seed,
        )
    return HeterogeneousSystem.sample(
        graph,
        topology,
        het_range=(cell.het_lo, cell.het_hi),
        link_het_range=link_range,
        seed=cell.system_seed,
    )


#: algorithm registry. Plain names are the paper's comparison (BSA with
#: reproduction defaults vs Sih & Lee's DLS); suffixed names are ablation
#: variants referenced by the ablation benches and EXPERIMENTS.md.
_SCHEDULERS: Dict[str, Callable] = {
    "bsa": lambda system: schedule_bsa(system, BSAOptions()),
    "dls": lambda system: schedule_dls(system, DLSOptions()),
    "heft": schedule_heft,
    "cpop": schedule_cpop,
    "etf": schedule_etf,
    "spdecomp": schedule_spdecomp,
    # --- ablations -----------------------------------------------------
    "bsa-literal": lambda system: schedule_bsa(
        system,
        BSAOptions(
            migration_trigger="st_gt_drt",
            migration_scope="neighbors",
            route_mode="incremental",
            n_sweeps=1,
        ),
    ),
    "bsa-neighbors": lambda system: schedule_bsa(
        system, BSAOptions(migration_scope="neighbors")
    ),
    "bsa-incremental": lambda system: schedule_bsa(
        system,
        BSAOptions(migration_scope="neighbors", route_mode="incremental"),
    ),
    "bsa-1sweep": lambda system: schedule_bsa(system, BSAOptions(n_sweeps=1)),
    "bsa-novip": lambda system: schedule_bsa(system, BSAOptions(vip_follow=False)),
    "bsa-append": lambda system: schedule_bsa(system, BSAOptions(insertion=False)),
    "dls-insertion": lambda system: schedule_dls(
        system, DLSOptions(link_insertion=True)
    ),
    # cost-aware static routes: Dijkstra over per-hop time 1/bandwidth —
    # identical hop metric to "bfs" on uniform links, prefers fat links
    # on skewed/fat-tree topologies
    "dls-weighted": lambda system: schedule_dls(
        system, DLSOptions(routing_strategy="weighted")
    ),
}


def run_cell(
    cell: Cell,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    validate: bool = True,
) -> CellResult:
    """Run (or fetch) one cell. Schedules are validated before caching."""
    if cache is None:
        cache = default_cache()
    if use_cache:
        hit = cache.get(cell.key())
        if hit is not None and not is_stale(hit, cell.key()):
            return CellResult.from_dict(hit)

    system = build_cell_system(cell)
    try:
        scheduler = _SCHEDULERS[cell.algorithm]
    except KeyError:
        raise ConfigurationError(f"unknown algorithm {cell.algorithm!r}") from None

    with obs.span("cell.schedule", algorithm=cell.algorithm,
                  n=cell.size) as sp:
        schedule = scheduler(system)
    runtime = sp.elapsed_s
    if validate:
        validate_schedule(schedule)
    n_events = 0
    if cell.scenario:
        from repro.dynamic import simulate_scenario

        with obs.span("cell.simulate", scenario=cell.scenario) as sim_sp:
            sim = simulate_scenario(system, schedule, cell.scenario,
                                    compare_replan=False)
        runtime += sim_sp.elapsed_s
        n_events = len(sim.records)
        schedule = sim.schedule
    metrics = compute_metrics(schedule)
    # extra objectives score the same committed schedule the metrics
    # describe (for scenario cells: the final, post-repair schedule)
    objective_values = (
        evaluate_objectives(schedule, cell.objectives)
        if cell.objectives else {}
    )
    result = CellResult(
        schedule_length=metrics.schedule_length,
        total_comm_cost=metrics.total_comm_cost,
        speedup=metrics.speedup,
        normalized_sl=metrics.normalized_sl,
        runtime_s=runtime,
        n_tasks=system.graph.n_tasks,
        n_edges=system.graph.n_edges,
        n_events=n_events,
        objectives=objective_values,
    )
    if use_cache:
        cache.put(cell.key(), stamp_provenance(result.to_dict(), cell.key()))
    return result


# ----------------------------------------------------------------------
# parallel sweep engine
# ----------------------------------------------------------------------

@dataclass
class SweepReport:
    """What happened during one :func:`run_cells` sweep."""

    total: int = 0
    unique: int = 0
    cache_hits: int = 0
    #: cached entries whose provenance stamp contradicted the request
    #: (library version or request key mismatch) — recomputed, not served
    stale: int = 0
    computed: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)
    wall_s: float = 0.0
    jobs: int = 1
    n_chunks: int = 0

    def summary(self) -> str:
        rate = self.computed / self.wall_s if self.wall_s > 0 else 0.0
        stale = f"{self.stale} stale, " if self.stale else ""
        lines = [
            f"sweep: {self.total} cells ({self.unique} unique), "
            f"{self.cache_hits} cache hits, {stale}{self.computed} computed "
            f"in {self.wall_s:.1f}s ({rate:.1f} cells/s, jobs={self.jobs}, "
            f"chunks={self.n_chunks})",
        ]
        for key, err in self.failures:
            lines.append(f"  FAILED {key}: {err}")
        return "\n".join(lines)


def _run_chunk(
    cells: Sequence[Cell],
    validate: bool,
    hotpath: str,
) -> Tuple[List[Tuple[str, dict]], Dict[str, int]]:
    """Worker entry: run a chunk of cells cache-free and return raw dicts
    plus the chunk's deterministic-counter delta.

    The hot-path mode is pinned explicitly so workers behave identically
    under any multiprocessing start method (workers inherit ``REPRO_OBS``
    through the environment, so the obs state is pinned the same way). A
    failing cell is reported as an ``{"__error__": ...}`` payload instead
    of poisoning the chunk. The counter delta is a before/after snapshot
    difference — worker processes are reused across chunks, so absolute
    values would double-count; per-chunk deltas summed in the parent are
    exactly the in-process totals, which keeps counters independent of
    ``jobs`` and chunking.
    """
    from repro.obs import counters as _obs
    from repro.util.intervals import set_hotpath_mode

    set_hotpath_mode(hotpath)
    before = _obs.snapshot() if _obs.ACTIVE else None
    out: List[Tuple[str, dict]] = []
    for cell in cells:
        try:
            result = run_cell(cell, use_cache=False, validate=validate)
            out.append((cell.key(), result.to_dict()))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            out.append((cell.key(), {"__error__": f"{type(exc).__name__}: {exc}"}))
    delta: Dict[str, int] = {}
    if before is not None:
        after = _obs.snapshot()
        delta = {
            name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)
        }
    return out, delta


def _chunked(items: List[Cell], size: int) -> List[List[Cell]]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def run_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    validate: bool = True,
    chunk_size: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    raise_on_error: bool = True,
) -> Tuple[Dict[str, CellResult], SweepReport]:
    """Run a batch of cells, fanned out over ``jobs`` worker processes.

    Returns ``(results keyed by cell key, report)``. With ``jobs <= 1``
    everything runs in-process (no pool). Results — and, with the obs
    layer on, the deterministic counters — are independent of ``jobs``
    and of chunking: every cell is rebuilt from its own seeds in
    whichever process runs it, workers return per-chunk counter deltas
    the parent sums, and the parent alone writes the cache.
    """
    with obs.span("sweep.run_cells", jobs=max(1, jobs)) as sp:
        results, report = _run_cells_impl(
            cells, jobs=jobs, cache=cache, use_cache=use_cache,
            validate=validate, chunk_size=chunk_size, progress=progress,
        )
    report.wall_s = sp.elapsed_s
    if report.failures and raise_on_error:
        raise ConfigurationError(
            f"{len(report.failures)} cell(s) failed: "
            + "; ".join(f"{k}: {e}" for k, e in report.failures[:3])
        )
    return results, report


def _run_cells_impl(
    cells: Iterable[Cell],
    jobs: int,
    cache: Optional[ResultCache],
    use_cache: bool,
    validate: bool,
    chunk_size: Optional[int],
    progress: Optional[Callable[[str], None]],
) -> Tuple[Dict[str, CellResult], SweepReport]:
    from repro.util.intervals import hotpath_mode

    if cache is None:
        cache = default_cache()
    cells = list(cells)
    report = SweepReport(total=len(cells), jobs=max(1, jobs))
    say = progress or (lambda msg: None)

    unique: Dict[str, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.key(), cell)
    report.unique = len(unique)

    results: Dict[str, CellResult] = {}
    misses: List[Cell] = []
    for key, cell in unique.items():
        hit = cache.get(key) if use_cache else None
        if hit is not None and is_stale(hit, key):
            report.stale += 1
            hit = None
        if hit is not None:
            results[key] = CellResult.from_dict(hit)
        else:
            misses.append(cell)
    report.cache_hits = len(results)
    if results:
        say(f"cache: {len(results)}/{len(unique)} cells already present")

    def _absorb(pairs: List[Tuple[str, dict]]) -> None:
        for key, payload in pairs:
            if "__error__" in payload:
                report.failures.append((key, payload["__error__"]))
                continue
            results[key] = CellResult.from_dict(payload)
            report.computed += 1
            if use_cache:
                cache.put(key, stamp_provenance(payload, key))

    if misses:
        if jobs <= 1:
            done = 0
            for cell in misses:
                # in-process: counters incremented directly, delta unused
                pairs, _ = _run_chunk([cell], validate, hotpath_mode())
                _absorb(pairs)
                done += 1
                if done % 10 == 0 or done == len(misses):
                    say(f"computed {done}/{len(misses)} cells")
            report.n_chunks = len(misses)
        else:
            if chunk_size is None:
                chunk_size = max(1, -(-len(misses) // (jobs * 4)))
            chunks = _chunked(misses, chunk_size)
            report.n_chunks = len(chunks)
            mode = hotpath_mode()
            done_cells = 0
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                pending = {
                    pool.submit(_run_chunk, chunk, validate, mode): len(chunk)
                    for chunk in chunks
                }
                while pending:
                    finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        n = pending.pop(fut)
                        pairs, delta = fut.result()
                        if delta:
                            obs.merge(delta)
                        _absorb(pairs)
                        done_cells += n
                        say(
                            f"computed {done_cells}/{len(misses)} cells "
                            f"({len(pending)} chunks in flight)"
                        )

    return results, report
