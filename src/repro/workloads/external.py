"""External task-graph files as first-class workload families.

A graph file imported through :mod:`repro.graph.interchange` becomes a
regular citizen of the experiment harness: :func:`external_cell` wraps
it in a :class:`~repro.experiments.config.Cell` with ``suite
="external"``, so it flows through ``run_cell`` / ``run_cells`` (and
the :class:`~repro.experiments.cache.ResultCache`) exactly like
the generated suites.

Cache correctness hinges on the *app token*:
``<path>#<sha256[:12]>[!<overlay>]``. The content hash is baked into
the cell — and therefore into the cache key — so editing the file
changes the key instead of silently serving stale results, and
:func:`resolve_external` refuses to build a system when the file on
disk no longer matches the token. Tokens carry the path because pool
workers rebuild every cell from scratch in their own process: the file
system is the only channel they share with the parent. The optional
``!overlay`` suffix is a :class:`repro.corpus.overlays.Overlay` token
(bridge / CCR / granularity / heterogeneity transforms), applied by
:func:`resolve_external` after loading — because it sits inside the
app token, every overlay parameter is cache-key-visible too.

Examples
--------
>>> import tempfile, os
>>> from repro.graph.interchange import write_stg
>>> from repro.workloads.suites import random_graph
>>> d = tempfile.mkdtemp()
>>> path = os.path.join(d, "g.stg")
>>> with open(path, "w") as fh:
...     _ = fh.write(write_stg(random_graph(20, seed=1)))
>>> cell = external_cell(path, algorithm="heft", topology="ring", n_procs=4)
>>> cell.suite, cell.algorithm, cell.size
('external', 'heft', 20)
>>> resolve_external(cell.app).graph.n_tasks
20
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.graph.interchange import ExternalWorkload, load_workload
from repro.corpus.overlays import Overlay, apply_overlay, parse_overlay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard; see external_cell
    from repro.experiments.config import Cell

__all__ = [
    "EXTERNAL_SUITE",
    "app_token",
    "split_token",
    "parse_token",
    "resolve_external",
    "external_cell",
]

#: the Cell.suite value that routes to this provider
EXTERNAL_SUITE = "external"

#: hex digits of the content hash embedded in app tokens / cache keys
_HASH_LEN = 12

#: per-process memo: app token -> loaded workload (files are immutable
#: per token by construction — a content change makes a new token)
_loaded: Dict[str, ExternalWorkload] = {}


def app_token(
    path: str,
    workload: Optional[ExternalWorkload] = None,
    overlay: Optional[Overlay] = None,
) -> str:
    """The cache-key identity of a graph file:
    ``path#sha256[:12][!overlay]``.

    >>> token = 'examples/graphs/x.stg#0123456789ab'
    >>> split_token(token)
    ('examples/graphs/x.stg', '0123456789ab')
    """
    if workload is None:
        workload = load_workload(
            path, bridge=overlay.bridge if overlay is not None else "none"
        )
    token = f"{path}#{workload.content_hash[:_HASH_LEN]}"
    suffix = overlay.token() if overlay is not None else ""
    return f"{token}!{suffix}" if suffix else token


def parse_token(token: str) -> Tuple[str, Optional[str], Overlay]:
    """Split an app token into ``(path, hash-or-None, overlay)``.

    >>> path, digest, ovl = parse_token('x.stg#0123456789ab!bridge,ccr1')
    >>> path, digest, ovl.bridge, ovl.ccr
    ('x.stg', '0123456789ab', 'epsilon', 1.0)
    """
    path, digest, overlay_text = token, None, ""
    if "#" in token:
        path, rest = token.rsplit("#", 1)
        if "!" in rest:
            digest, overlay_text = rest.split("!", 1)
        else:
            digest = rest
        digest = digest or None
    return path, digest, parse_overlay(overlay_text)


def split_token(token: str) -> Tuple[str, Optional[str]]:
    """Split an app token into ``(path, hash-or-None)``."""
    path, digest, _ = parse_token(token)
    return path, digest


def resolve_external(token: str) -> ExternalWorkload:
    """Load (and memoize) the workload an app token points at, with the
    token's overlay (if any) applied.

    Raises :class:`~repro.errors.ConfigurationError` when the file's
    content hash no longer matches the token — the guard that keeps a
    content-addressed cache entry from being recomputed against a
    different graph than the one that named it. (The hash pins the raw
    file text; overlays transform the loaded graph, never the hash.)
    """
    hit = _loaded.get(token)
    if hit is not None:
        return hit
    path, digest, overlay = parse_token(token)
    workload = load_workload(path, bridge=overlay.bridge)
    if digest is not None and workload.content_hash[:_HASH_LEN] != digest:
        raise ConfigurationError(
            f"external workload {path!r} changed on disk: token pins "
            f"content {digest}, file now hashes to "
            f"{workload.content_hash[:_HASH_LEN]} — rebuild the cell "
            f"(external_cell) to schedule the new content"
        )
    workload = apply_overlay(workload, overlay)
    _loaded[token] = workload
    return workload


def external_cell(
    path: str,
    algorithm: str,
    topology: str,
    n_procs: Optional[int] = None,
    het_lo: float = 1.0,
    het_hi: float = 50.0,
    system_seed: int = 0,
    duplex: str = "half",
    bandwidth_skew: float = 1.0,
    workload: Optional[ExternalWorkload] = None,
    overlay: Optional[Overlay] = None,
) -> "Cell":
    """Build the experiment cell that schedules a graph file.

    The file is read once to compute the token and fix the cell's
    informational ``size``. Workloads with per-processor cost vectors
    pin ``n_procs`` to the vector length (an explicit mismatching
    ``n_procs`` is an error, and the sampled-heterogeneity axes are
    ignored at bind time); scalar workloads default to 16 processors
    like the generated suites. External cells always carry
    ``granularity=1.0`` — the file's communication costs are taken
    verbatim unless an ``overlay`` transforms them, and every overlay
    parameter rides inside the app token (so inside the cache key).
    """
    # imported here, not at module level: experiments.runner imports
    # this module, so a top-level config import would be circular
    from repro.experiments.config import Cell

    if workload is None:
        workload = load_workload(
            path, bridge=overlay.bridge if overlay is not None else "none"
        )
    if (
        overlay is not None
        and overlay.het_range is not None
        and workload.n_procs is None
    ):
        raise ConfigurationError(
            f"{path!r} carries scalar costs; the overlay heterogeneity "
            f"re-sample only applies to per-processor cost vectors — "
            f"sweep scalar files through het_lo/het_hi instead"
        )
    if workload.n_procs is not None:
        if n_procs is not None and n_procs != workload.n_procs:
            raise ConfigurationError(
                f"{path!r} carries {workload.n_procs}-processor cost "
                f"vectors; n_procs={n_procs} cannot apply"
            )
        n_procs = workload.n_procs
    elif n_procs is None:
        n_procs = 16
    return Cell(
        suite=EXTERNAL_SUITE,
        app=app_token(path, workload, overlay),
        size=workload.graph.n_tasks,
        granularity=1.0,
        topology=topology,
        algorithm=algorithm,
        het_lo=het_lo,
        het_hi=het_hi,
        n_procs=n_procs,
        graph_seed=0,
        system_seed=system_seed,
        duplex=duplex,
        bandwidth_skew=bandwidth_skew,
    )
