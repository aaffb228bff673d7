"""The objective registry: names, senses, tokens, and Pareto dominance.

Makespan is the library's historical (and default) objective; this
module makes it one of several. Every objective is a pure, deterministic
float reduction over a *committed* :class:`~repro.schedule.schedule.
Schedule` — evaluators never mutate the schedule and never consult
wall-clock state, so both ``REPRO_HOTPATH`` engine modes (whose
schedules are byte-identical by contract) produce byte-identical
objective values.

Tokens. A cell's ``objectives`` axis is a comma-separated token
(``"energy,reliability"``). :func:`parse_objectives` accepts the names
in any order, rejects unknown names and duplicates, and
:func:`objectives_token` renders the **canonical** spelling (registry
order) — so reordering a token can never change a
:class:`~repro.experiments.cache.ResultCache` key, exactly like the
overlay grammar in :mod:`repro.corpus.overlays`.

Senses. ``makespan``, ``energy`` and ``throughput`` (the steady-state
initiation *period* of pipelined instances) are minimized;
``reliability`` (schedule success probability) is maximized.
:func:`dominates` and :func:`pareto_front` encode that, and front
membership is insertion-order independent by construction (dominance is
a property of the point set, not of any iteration order).

Examples
--------
>>> parse_objectives("reliability,energy")
('energy', 'reliability')
>>> objectives_token("reliability,energy")
'energy,reliability'
>>> parse_objectives("energy,energy")
Traceback (most recent call last):
    ...
repro.errors.ConfigurationError: duplicate objective 'energy'
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "OBJECTIVE_NAMES",
    "OBJECTIVE_SENSES",
    "parse_objectives",
    "objectives_token",
    "evaluate_objectives",
    "dominates",
    "pareto_front",
]

#: every objective the library ships, in canonical (token) order.
#: ``makespan`` stays the default and stays bit-exact — it is read
#: straight off the schedule, untouched by the other evaluators.
OBJECTIVE_NAMES: Tuple[str, ...] = (
    "makespan", "energy", "reliability", "throughput",
)

#: optimization direction per objective ("min" | "max")
OBJECTIVE_SENSES: Dict[str, str] = {
    "makespan": "min",      # schedule length
    "energy": "min",        # busy + idle + link transfer energy
    "reliability": "max",   # schedule success probability in (0, 1]
    "throughput": "min",    # steady-state period of pipelined instances
}

_RANK = {name: i for i, name in enumerate(OBJECTIVE_NAMES)}


def parse_objectives(
    objectives: Union[str, Sequence[str]],
) -> Tuple[str, ...]:
    """Parse an objectives token (or name sequence) into the canonical
    tuple. Any input order is accepted; unknown names and duplicates are
    rejected (a duplicate would let two spellings of one computation
    alias different cache keys — same rule as overlay parts)."""
    if isinstance(objectives, str):
        parts = [p.strip() for p in objectives.split(",") if p.strip()]
    else:
        parts = list(objectives)
    seen: List[str] = []
    for name in parts:
        if name not in _RANK:
            raise ConfigurationError(
                f"unknown objective {name!r}; known: {list(OBJECTIVE_NAMES)}"
            )
        if name in seen:
            raise ConfigurationError(f"duplicate objective {name!r}")
        seen.append(name)
    return tuple(sorted(seen, key=_RANK.__getitem__))


def objectives_token(objectives: Union[str, Sequence[str]]) -> str:
    """Canonical comma-separated token (empty for no objectives)."""
    return ",".join(parse_objectives(objectives))


def evaluate_objectives(
    schedule,
    objectives: Union[str, Sequence[str]] = OBJECTIVE_NAMES,
) -> Dict[str, float]:
    """Evaluate the requested objectives on a committed schedule.

    Returns ``{name: value}`` with keys in canonical order. Every
    evaluator is a deterministic reduction over the schedule's own
    containers, so for byte-identical schedules the values are
    byte-identical too (the engine-mode contract extends through this
    function; pinned by ``tests/test_hotpath_equivalence.py``).
    """
    values: Dict[str, float] = {}
    for name in parse_objectives(objectives):
        if name == "makespan":
            values[name] = schedule.schedule_length()
        elif name == "energy":
            from repro.objectives.energy import schedule_energy

            values[name] = schedule_energy(schedule)
        elif name == "reliability":
            from repro.objectives.reliability import schedule_reliability

            values[name] = schedule_reliability(schedule)
        else:  # throughput
            from repro.objectives.throughput import schedule_throughput

            values[name] = schedule_throughput(schedule)
    return values


# ----------------------------------------------------------------------
# Pareto dominance
# ----------------------------------------------------------------------

def _check_vector(values: Dict[str, float], names: Tuple[str, ...]) -> None:
    missing = [n for n in names if n not in values]
    if missing:
        raise ConfigurationError(
            f"objective vector lacks {missing}; has {sorted(values)}"
        )


def dominates(
    a: Dict[str, float],
    b: Dict[str, float],
    objectives: Union[str, Sequence[str]] = OBJECTIVE_NAMES,
) -> bool:
    """True when vector ``a`` Pareto-dominates ``b``: at least as good
    in every objective (per its sense) and strictly better in one."""
    names = parse_objectives(objectives)
    _check_vector(a, names)
    _check_vector(b, names)
    strictly = False
    for name in names:
        if OBJECTIVE_SENSES[name] == "max":
            if a[name] < b[name]:
                return False
            strictly = strictly or a[name] > b[name]
        else:
            if a[name] > b[name]:
                return False
            strictly = strictly or a[name] < b[name]
    return strictly


def pareto_front(
    points: Iterable[Tuple[str, Dict[str, float]]],
    objectives: Union[str, Sequence[str]] = OBJECTIVE_NAMES,
) -> List[str]:
    """Labels of the non-dominated points, in input order.

    Membership is insertion-order independent: a point is on the front
    iff no *other* point dominates it, which is a property of the set.
    Ties (two identical vectors) dominate neither way, so both stay on
    the front.
    """
    names = parse_objectives(objectives)
    items = list(points)
    front: List[str] = []
    for i, (label, values) in enumerate(items):
        if not any(
            dominates(other, values, names)
            for j, (_, other) in enumerate(items) if j != i
        ):
            front.append(label)
    return front
