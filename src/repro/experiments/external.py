"""The external-workload experiment suite (EXPERIMENTS.md §7).

Schedules every graph file in a corpus directory — by default the
bundled mini-corpus under ``examples/graphs/`` — across the full
scheduler registry on a couple of topologies, through the same
``run_cells`` engine (and cache) as the paper sweeps.

The bundled corpus is deliberately small and diverse:

* ``forkjoin.stg``        — Standard Task Graph format, contention-heavy
  fork-join structure;
* ``series_parallel.dot`` — Graphviz DOT, series-parallel decomposition;
* ``ge_trace.json``       — JSON workflow trace of Gaussian elimination
  with 8-processor execution-cost vectors (heterogeneity read from the
  file, never re-sampled).

Reproduce the section table with::

    PYTHONPATH=src python examples/external_workloads.py

or cell-by-cell with ``repro schedule --graph examples/graphs/<file>``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.corpus.manifest import (  # noqa: F401 - corpus_paths is re-exported
    CORPUS_N_PROCS,
    CORPUS_TOPOLOGIES,
    corpus_paths,
    manifest_cells,
    scan_corpus,
)
from repro.experiments.config import ALGORITHM_NAMES, Cell
from repro.experiments.runner import run_cells
from repro.graph.interchange import ExternalWorkload
from repro.workloads.external import split_token

#: default corpus location, relative to the repository root (the corpus
#: ships with the examples, not inside the installed package)
DEFAULT_CORPUS_DIR = os.path.join("examples", "graphs")


def corpus_cells(
    directory: Optional[str] = None,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    topologies: Sequence[str] = CORPUS_TOPOLOGIES,
    n_procs: int = CORPUS_N_PROCS,
    system_seed: int = 0,
) -> List[Cell]:
    """The full §7 grid: every corpus file x topology x algorithm, the
    corpus manifest's expansion (a disconnected file is bridged)."""
    workloads: Dict[str, ExternalWorkload] = {}
    manifest = scan_corpus(directory or DEFAULT_CORPUS_DIR, workloads)
    return manifest_cells(manifest, topologies=topologies,
                          algorithms=algorithms, n_procs=n_procs,
                          system_seed=system_seed, workloads=workloads)


def corpus_table(
    directory: Optional[str] = None,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    topologies: Sequence[str] = CORPUS_TOPOLOGIES,
    jobs: int = 1,
    use_cache: bool = True,
) -> str:
    """Run the §7 grid and render one schedule-length table per topology
    (rows: corpus files, columns: algorithms, plus the BSA/DLS ratio)."""
    from repro.util.tables import format_table

    cells = corpus_cells(directory, algorithms=algorithms, topologies=topologies)
    results, _ = run_cells(cells, jobs=jobs, use_cache=use_cache)
    by_axes = {
        (split_token(c.app)[0], c.topology, c.algorithm): c for c in cells
    }
    paths = list(dict.fromkeys(path for path, _, _ in by_axes))
    sections: List[str] = []
    for topology in topologies:
        rows = []
        for path in paths:
            row: List[object] = [os.path.basename(path)]
            sl = {}
            for algorithm in algorithms:
                cell = by_axes[(path, topology, algorithm)]
                sl[algorithm] = results[cell.key()].schedule_length
                row.append(sl[algorithm])
            if "bsa" in sl and "dls" in sl:
                row.append(sl["bsa"] / sl["dls"])
            rows.append(row)
        headers = ["graph"] + list(algorithms)
        if "bsa" in algorithms and "dls" in algorithms:
            headers.append("bsa/dls")
        sections.append(
            format_table(
                headers,
                rows,
                title=f"external corpus — {topology}{CORPUS_N_PROCS}, SL per scheduler",
                ndigits=1,
            )
        )
    return "\n\n".join(sections)
