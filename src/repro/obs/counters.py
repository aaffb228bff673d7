"""Deterministic engine counters — the observability registry.

One process-local ``{name: int}`` map behind a module-level ``ACTIVE``
flag. The flag is the whole overhead story: every instrumentation site
in the engine reads ``_obs.ACTIVE`` (one module-attribute load and a
bool test) before touching the registry, so with observability off —
the default — the hot paths pay nothing measurable
(``benchmarks/bench_hotpath.py --obs-guard`` enforces it).

Counters are **deterministic by contract**: they count algorithmic
events (candidates evaluated, cone pops, rollbacks, cache
dispositions), never wall-clock or allocation artifacts. For a fixed
request and engine mode they are identical rep-to-rep and independent
of ``--jobs`` — worker processes return per-chunk deltas that the
parent merges, and integer addition commutes (see
``repro.experiments.runner``). That makes a pinned counter snapshot a
regression test for *how* a schedule was found, which makespan pins
cannot see.

Wall times are not counters; they live in :mod:`repro.obs.spans`.
"""

from __future__ import annotations

import os
from typing import Dict

__all__ = [
    "ACTIVE",
    "COUNTERS",
    "enabled",
    "enable",
    "disable",
    "inc",
    "snapshot",
    "reset",
    "merge",
]

_TRUE = ("1", "true", "yes", "on")

#: master switch. Read directly (``_obs.ACTIVE``) from hot code;
#: flipped by :func:`enable`/:func:`disable` (which also set the
#: ``REPRO_OBS`` env var so sweep worker processes inherit the state).
ACTIVE: bool = os.environ.get("REPRO_OBS", "").strip().lower() in _TRUE

#: the registry of every deterministic counter the engine increments,
#: with operator-facing help text. ``/metrics`` and ``repro profile``
#: render exactly this set (zero-valued counters included), and a docs
#: test pins the README table to it.
COUNTERS: Dict[str, str] = {
    "bsa.tasks_examined":
        "pivot tasks examined for migration across all BSA sweeps",
    "bsa.candidates_evaluated":
        "exact candidate (task, processor) evaluations",
    "bsa.candidates_pruned":
        "candidates skipped by the finish-time lower-bound screen",
    "bsa.migrations":
        "committed task migrations",
    "bsa.vip_migrations":
        "migrations that followed the VIP heuristic",
    "bsa.rejected_migrations":
        "chosen migrations rolled back because their order constraints formed a cycle",
    "bsa.sweeps":
        "BSA pivot sweeps run",
    "bsa.walks_skipped":
        "examined tasks whose candidates the one-hop bound all pruned before any route-trie walk",
    "settle.incremental_runs":
        "change-driven cone settles run to their fixpoint (one whose orders "
        "hold a cycle raises before writing and is not counted)",
    "settle.cone_pops":
        "worklist pops across incremental settles (total cone size)",
    "settle.full_passes":
        "full Kahn settle passes: settle() calls, and the incremental "
        "engine's settles on graphs with a zero-cost edge, the only ones it "
        "runs whole",
    "txn.rollbacks":
        "schedule transactions rolled back via the undo log",
    "timeline.rebuilds":
        "processor/link timelines built from their order on a cache miss",
    "timeline.patches":
        "cached timeline entries inserted, deleted or rewritten in place",
    "list.candidates_evaluated":
        "exact (task, processor) plans in the list schedulers' argmins "
        "(HEFT/CPOP/spdecomp earliest finish, DLS/ETF ready pairs)",
    "list.candidates_pruned":
        "list-scheduler candidates never planned: skipped by a lower bound "
        "or left in the DLS/ETF ready-pair queue",
    "list.walks_skipped":
        "HEFT/CPOP/spdecomp placements whose one-hop bound pruned every "
        "processor but the incumbent before any route-trie walk",
    "route.trie_hits":
        "candidate-screen route-trie cache hits",
    "route.trie_misses":
        "candidate-screen route-trie builds (cache misses)",
    "cache.hits":
        "ResultCache gets served from memory or from an entry file that "
        "passed its provenance and shape checks",
    "cache.misses":
        "ResultCache lookups that found no entry",
    "cache.stale":
        "ResultCache entry files refused for their provenance or their "
        "shape, and recomputed",
}

_values: Dict[str, int] = {name: 0 for name in COUNTERS}


def enabled() -> bool:
    """Is the observability layer collecting?"""
    return ACTIVE


def enable() -> None:
    """Turn collection on, for this process *and* (via ``REPRO_OBS``)
    any worker process forked or spawned after this call."""
    global ACTIVE
    ACTIVE = True
    os.environ["REPRO_OBS"] = "1"


def disable() -> None:
    """Turn collection off again (counters keep their values; call
    :func:`reset` to zero them)."""
    global ACTIVE
    ACTIVE = False
    os.environ.pop("REPRO_OBS", None)


def inc(name: str, delta: int = 1) -> None:
    """Add ``delta`` to a counter. Callers guard with ``ACTIVE`` first;
    unknown names register on the fly (handy for tests/extensions)."""
    _values[name] = _values.get(name, 0) + delta


def snapshot() -> Dict[str, int]:
    """Name-sorted copy of every counter (zeros included)."""
    return {name: _values.get(name, 0)
            for name in sorted(set(COUNTERS) | set(_values))}


def reset() -> None:
    """Zero every counter (registered and dynamic)."""
    for name in list(_values):
        _values[name] = 0


def merge(delta: Dict[str, int]) -> None:
    """Fold a worker chunk's counter delta into this process's registry.

    Sums commute, so the merged totals are independent of chunk
    completion order — the property the ``--jobs`` identity tests pin.
    """
    for name, value in delta.items():
        _values[name] = _values.get(name, 0) + int(value)
