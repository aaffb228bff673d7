"""Shared low-level utilities: seeded RNG helpers, interval math, tables."""

from repro.util.rng import RngStream, stable_uniform, stable_seed
from repro.util.intervals import (
    Interval,
    earliest_gap,
    intervals_overlap,
)
from repro.util.tables import format_table, format_series

__all__ = [
    "RngStream",
    "stable_uniform",
    "stable_seed",
    "Interval",
    "earliest_gap",
    "intervals_overlap",
    "format_table",
    "format_series",
]
