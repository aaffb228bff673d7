"""Corpus manifests: a directory of graph files as one experiment input.

:func:`scan_corpus` walks a directory, reads every file with a
registered interchange extension, and records per-file metadata — the
format it sniffed to, task/edge counts, the native CCR, the number of
weakly-connected components (>1 means the file needs the epsilon
bridge), the per-processor vector length for trace-like files, and the
full content hash. The resulting :class:`Manifest` serializes to JSON
(``repro corpus scan --out``) so a scan can be inspected, diffed and
re-expanded without re-reading the corpus.

:func:`manifest_cells` is the expansion step: manifest x overlay-grid x
topology x scheduler into :class:`~repro.experiments.config.Cell` lists
for the parallel ``run_cells`` engine. Two corpus-specific rules:

* files with more than one component get ``bridge="epsilon"`` added to
  their overlay automatically (the cell would otherwise fail to load);
* an overlay heterogeneity re-sample on a *scalar* file is routed
  through the cell's ``het_lo``/``het_hi``/``system_seed`` axes instead
  (equally cache-key-visible) — vectors are re-sampled in the overlay,
  scalars at bind time, and either way the sweep axis works.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.overlays import Overlay
from repro.errors import ConfigurationError
from repro.experiments.config import ALGORITHM_NAMES, Cell
from repro.graph.interchange import FORMATS, ExternalWorkload, load_workload
from repro.graph.validation import weak_components
from repro.util.checked import is_int, is_number, loads, read_text, want
from repro.workloads.external import external_cell

__all__ = [
    "DEFAULT_CORPUS_DIR",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "ManifestEntry",
    "Manifest",
    "corpus_paths",
    "scan_corpus",
    "manifest_cells",
    "CORPUS_TOPOLOGIES",
    "CORPUS_N_PROCS",
]

#: the bundled mini-corpus (DAX + WfCommons + dummy-bridged STG + trace)
DEFAULT_CORPUS_DIR = os.path.join("examples", "corpus")

MANIFEST_FORMAT = "repro-corpus-manifest"
MANIFEST_VERSION = 1

#: topologies a corpus bench and the §7 grid sweep by default
CORPUS_TOPOLOGIES: Tuple[str, ...] = ("ring", "hypercube")

#: default processor count for scalar corpus files (vector files pin
#: their own); matches the EXPERIMENTS.md §7/§8 setting
CORPUS_N_PROCS = 8


@dataclass(frozen=True)
class ManifestEntry:
    """Per-file metadata recorded by :func:`scan_corpus`."""

    path: str
    fmt: str                    # registry name the content sniffed to
    name: str                   # the graph's own name
    n_tasks: int
    n_edges: int
    components: int             # weakly-connected components (1 = sound)
    ccr: float                  # total comm cost / total exec cost
    n_procs: Optional[int]      # exec-vector length (None = scalar costs)
    content_hash: str           # full sha256 of the raw file text

    @property
    def needs_bridge(self) -> bool:
        """True when scheduling this file requires the epsilon bridge."""
        return self.components > 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict,
                  where: str = "manifest entry") -> "ManifestEntry":
        want(d, dict, where, ConfigurationError)
        values = {}
        for f in dataclasses.fields(cls):
            field = f"{where}.{f.name}"
            if f.name not in d:
                raise ConfigurationError(f"{field} is missing")
            value = values[f.name] = d[f.name]
            if not (f.name == "n_procs" and value is None):
                want(value, _ENTRY_KINDS[f.name], field, ConfigurationError)
        return cls(**values)


#: the kind of each :class:`ManifestEntry` field (``n_procs`` may also
#: be null), as :func:`~repro.util.checked.want` checks it
_ENTRY_KINDS = {
    "path": str, "fmt": str, "name": str, "n_tasks": is_int,
    "n_edges": is_int, "components": is_int, "ccr": is_number,
    "n_procs": is_int, "content_hash": str,
}


@dataclass(frozen=True)
class Manifest:
    """A scanned corpus: directory + one :class:`ManifestEntry` per file."""

    directory: str
    entries: Tuple[ManifestEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def paths(self) -> List[str]:
        return [e.path for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "directory": self.directory,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "Manifest":
        if not isinstance(d, dict) or d.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError(
                f"not a {MANIFEST_FORMAT} document "
                f"(format={d.get('format')!r})" if isinstance(d, dict)
                else f"not a {MANIFEST_FORMAT} document"
            )
        if d.get("version") != MANIFEST_VERSION:
            raise ConfigurationError(
                f"unsupported manifest version {d.get('version')!r}"
            )
        entries = want(d.get("entries", []), list, "manifest field 'entries'",
                       ConfigurationError)
        return cls(
            directory=want(d.get("directory", ""), str,
                           "manifest field 'directory'", ConfigurationError),
            entries=tuple(ManifestEntry.from_dict(e, f"manifest entries[{i}]")
                          for i, e in enumerate(entries)),
        )

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        return cls.from_dict(loads(text, ConfigurationError, "manifest"))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Manifest":
        return cls.from_json(
            read_text(path, ConfigurationError, f"manifest {path}"))


def corpus_paths(directory: str) -> List[str]:
    """Every graph file in ``directory`` with a registered extension,
    sorted by name. Raises when the directory has no graph files (an
    empty corpus almost always means a wrong path)."""
    extensions = tuple(ext for f in FORMATS.values() for ext in f.extensions)
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ConfigurationError(f"cannot list corpus {directory!r}: {exc}") from None
    paths = [
        os.path.join(directory, n)
        for n in names
        if n.lower().endswith(extensions)
    ]
    if not paths:
        raise ConfigurationError(
            f"corpus directory {directory!r} contains no graph files "
            f"(known extensions: {sorted(set(extensions))})"
        )
    return paths


def scan_corpus(
    directory: Optional[str] = None,
    workloads: Optional[Dict[str, ExternalWorkload]] = None,
) -> Manifest:
    """Scan ``directory`` (default: the bundled ``examples/corpus/``)
    into a :class:`Manifest`.

    Every file with a registered interchange extension is read with the
    connectivity requirement relaxed (a dummy-bridged STG must still be
    scannable — its ``components`` count is exactly what the scan is
    for); structural errors in any file abort the scan, because a
    corpus with an unreadable member would silently shrink every sweep
    built on it. Pass a dict as ``workloads`` to receive the loaded
    :class:`ExternalWorkload` per path — :func:`manifest_cells` accepts
    it back, so a scan-then-expand pipeline parses each file once.
    """
    directory = directory or DEFAULT_CORPUS_DIR
    entries: List[ManifestEntry] = []
    for path in corpus_paths(directory):
        workload = load_workload(path, require_connected=False)
        if workloads is not None:
            workloads[path] = workload
        graph = workload.graph
        total_exec = graph.total_exec_cost()
        entries.append(
            ManifestEntry(
                path=path,
                fmt=workload.fmt,
                name=graph.name,
                n_tasks=graph.n_tasks,
                n_edges=graph.n_edges,
                components=len(weak_components(graph)),
                ccr=(graph.total_comm_cost() / total_exec) if total_exec else 0.0,
                n_procs=workload.n_procs,
                content_hash=workload.content_hash,
            )
        )
    return Manifest(directory=directory, entries=tuple(entries))


def manifest_cells(
    manifest: Manifest,
    overlays: Sequence[Overlay] = (Overlay(),),
    topologies: Sequence[str] = CORPUS_TOPOLOGIES,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
    n_procs: int = CORPUS_N_PROCS,
    het_lo: float = 1.0,
    het_hi: float = 50.0,
    system_seed: int = 0,
    workloads: Optional[Dict[str, ExternalWorkload]] = None,
    objectives: str = "",
) -> List[Cell]:
    """Expand manifest x overlays x topologies x algorithms into cells.

    ``n_procs`` applies to scalar files only — files with exec-cost
    vectors pin their own processor count. ``workloads`` (as filled by
    :func:`scan_corpus`) skips re-reading files the scan just parsed.
    ``objectives`` (an objectives token, e.g. ``"energy,reliability"``)
    makes every cell score those criteria too — canonicalized once so
    all cells share one cache-key spelling. See the module docstring
    for the auto-bridge and scalar-heterogeneity routing rules.
    """
    if objectives:
        from repro.objectives.registry import objectives_token

        objectives = objectives_token(objectives)
    cells: List[Cell] = []
    for entry in manifest.entries:
        # one read per file; the workload object carries the hash and
        # metadata every (overlay, topology, algorithm) cell needs
        workload = (workloads or {}).get(entry.path)
        if workload is None:
            workload = load_workload(entry.path, require_connected=False)
        for overlay in overlays:
            ovl = overlay
            if entry.needs_bridge and ovl.bridge == "none":
                ovl = dataclasses.replace(ovl, bridge="epsilon")
            lo, hi, seed = het_lo, het_hi, system_seed
            if ovl.het_range is not None and entry.n_procs is None:
                # scalar files sample heterogeneity at bind time — route
                # the overlay's range/seed through the cell axes, which
                # are just as cache-key-visible
                lo, hi = ovl.het_range
                seed = ovl.het_seed
                ovl = dataclasses.replace(ovl, het_range=None, het_seed=0)
            for topology in topologies:
                for algorithm in algorithms:
                    cell = external_cell(
                        entry.path,
                        algorithm=algorithm,
                        topology=topology,
                        n_procs=None if entry.n_procs else n_procs,
                        het_lo=lo,
                        het_hi=hi,
                        system_seed=seed,
                        workload=workload,
                        overlay=ovl,
                    )
                    if objectives:
                        cell = dataclasses.replace(
                            cell, objectives=objectives
                        )
                    cells.append(cell)
    return cells
