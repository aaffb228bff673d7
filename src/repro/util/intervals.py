"""Interval arithmetic for processor and link timelines.

A timeline is a list of non-overlapping, time-sorted :class:`Interval`
objects. The central operation is :func:`earliest_gap`: find the earliest
start ``>= ready`` at which an item of a given duration fits without
overlapping existing reservations — the "insertion" slot policy used by
BSA (and by the link substrate shared with the baselines).

Two implementations coexist:

* the original object-walking :func:`earliest_gap` over any sequence with
  ``start``/``finish`` attributes (the *legacy* hot path, kept verbatim so
  the indexed engine can be benchmarked and equivalence-tested against it);
* :class:`Timeline` — an indexed view holding parallel ``starts`` /
  ``finishes`` float lists, answering the same query with a ``bisect``
  jump over every reservation that finishes before ``ready`` instead of a
  scan from time zero. On the long link timelines BSA builds this is the
  difference between O(n) and O(log n + k) per candidate evaluation.

Which one the schedulers use is controlled by the process-wide hot-path
mode (:func:`hotpath_mode` / :func:`set_hotpath_mode`, initialized from
``REPRO_HOTPATH``). Two modes exist: ``incremental`` (the default and
only production engine: indexed timelines, lower-bound candidate
screening, the change-driven settle engine and
the undo-log rollback in :mod:`repro.schedule.settle` /
:mod:`repro.schedule.schedule`) and ``legacy`` (the original
linear-rescan reference code, kept as the oracle that tests and benches
switch to). Engine modules branch on :func:`reference_mode`; the
routing and comm-cost memos are shared by both. Both modes produce
bit-identical schedules — enforced by
``benchmarks/bench_hotpath.py`` and ``tests/test_hotpath_equivalence.py``.

All comparisons use an absolute slack ``EPS`` to absorb floating-point
noise: two reservations are considered non-overlapping when they overlap
by less than ``EPS``. The constant lives in :mod:`repro.util.tolerance`
(one source of truth shared with the validator) and is re-exported here
for the many engine-side callers.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.util.tolerance import EPS

#: hot-path modes: "incremental" (the production engine, default) and
#: "legacy" (the original linear-rescan reference oracle)
HOTPATH_MODES = ("incremental", "legacy")


_hotpath_mode = os.environ.get("REPRO_HOTPATH", "incremental").strip().lower()
if _hotpath_mode not in HOTPATH_MODES:
    # a typo here would silently run the wrong engine under a leg that
    # claims to test the other one, so refuse to import at all
    from repro.errors import ConfigurationError

    raise ConfigurationError(
        f"REPRO_HOTPATH must be one of {HOTPATH_MODES}, got {_hotpath_mode!r}"
    )


def hotpath_mode() -> str:
    """Current hot-path mode: ``"incremental"`` (default) or ``"legacy"``."""
    return _hotpath_mode


def reference_mode() -> bool:
    """True when the legacy reference oracle is active (mode ``legacy``);
    every engine module branches on this one check."""
    return _hotpath_mode == "legacy"


def set_hotpath_mode(mode: str) -> str:
    """Switch the hot-path mode; returns the previous mode.

    Used by the equivalence bench/tests to time both implementations in
    one process. Not thread-safe — flip it only around whole runs.
    """
    global _hotpath_mode
    if mode not in HOTPATH_MODES:
        raise ValueError(f"hotpath mode must be one of {HOTPATH_MODES}, got {mode!r}")
    previous = _hotpath_mode
    _hotpath_mode = mode
    return previous


@dataclass(frozen=True)
class Interval:
    """A half-open reservation ``[start, finish)`` tagged with a payload."""

    start: float
    finish: float
    payload: object = None

    def __post_init__(self):
        if self.finish < self.start - EPS:
            raise ValueError(f"interval finishes before it starts: [{self.start}, {self.finish})")

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def overlaps(self, other: "Interval") -> bool:
        return intervals_overlap(self.start, self.finish, other.start, other.finish)


def intervals_overlap(s1: float, f1: float, s2: float, f2: float) -> bool:
    """True when ``[s1, f1)`` and ``[s2, f2)`` overlap by more than EPS."""
    return (min(f1, f2) - max(s1, s2)) > EPS


def earliest_gap(
    busy: Sequence,
    ready: float,
    duration: float,
) -> float:
    """Earliest start ``>= ready`` fitting ``duration`` among ``busy`` slots.

    ``busy`` is any sequence of objects with ``start``/``finish`` attributes
    (:class:`Interval`, task slots, message hops), sorted by start time and
    non-overlapping. Zero-duration items are placed at ``ready`` (they never
    conflict).
    """
    if duration < -EPS:
        raise ValueError(f"negative duration {duration}")
    if duration <= EPS:
        return max(ready, 0.0)
    t = max(ready, 0.0)
    for iv in busy:
        if iv.start - t >= duration - EPS:
            return t  # fits in the gap before this reservation
        if iv.finish > t:
            t = iv.finish
    return t


class Timeline:
    """Indexed busy-timeline: parallel start/finish arrays + bisect queries.

    The arrays mirror a start-sorted, non-overlapping reservation list
    (task slots on a processor, message hops on a link). Tentative
    planners layer "what-if" reservations over a committed Timeline via
    :meth:`earliest_gap_merged` — a two-pointer walk over (this
    timeline, a small extras list) — instead of re-sorting merged object
    lists on every query.

    ``_maxf`` is the running maximum of ``finishes`` — non-decreasing by
    construction even when zero-duration reservations make the raw finish
    times locally non-monotonic — so :meth:`earliest_gap` can bisect past
    every reservation already finished by ``ready`` and scan only the
    tail. Skipped reservations finish at or before the scan time ``t``,
    so (for positive-duration queries) they can neither host the item nor
    advance ``t``: results are bit-identical to the legacy full scan.

    A schedule keeps one Timeline per resource live: :meth:`insert` and
    :meth:`delete` edit one entry in place, :meth:`rewrite` a batch of
    entries followed by one :meth:`refresh_maxf`, and each leaves all
    three lists exactly as :meth:`from_items` would build them over the
    edited reservations.
    """

    __slots__ = ("starts", "finishes", "_maxf")

    def __init__(self, starts: Optional[List[float]] = None,
                 finishes: Optional[List[float]] = None):
        self.starts = starts if starts is not None else []
        self.finishes = finishes if finishes is not None else []
        # running maximum at C speed — this constructor builds a
        # resource's index the first time it is queried
        self._maxf: List[float] = list(accumulate(self.finishes, max))

    @classmethod
    def from_items(cls, items: Sequence) -> "Timeline":
        """Build from start-sorted objects with ``start``/``finish``."""
        return cls([iv.start for iv in items], [iv.finish for iv in items])

    def __len__(self) -> int:
        return len(self.starts)

    # -- in-place edits ----------------------------------------------------
    def insert(self, i: int, start: float, finish: float) -> None:
        """Insert the reservation ``[start, finish)`` at index ``i``."""
        self.starts.insert(i, start)
        self.finishes.insert(i, finish)
        maxf = self._maxf
        if 0 < i == len(maxf):
            # an append takes refresh_maxf's one step past the last entry
            m = maxf[-1]
            maxf.append(finish if finish > m else m)
        else:
            maxf.insert(i, finish)
            self.refresh_maxf(i, i)

    def delete(self, i: int) -> None:
        """Remove the reservation at index ``i``."""
        del self.starts[i]
        del self.finishes[i]
        del self._maxf[i]
        self.refresh_maxf(i, i - 1)

    def rewrite(self, i: int, start: float, finish: float) -> None:
        """Give the reservation at index ``i`` new times, leaving the
        running maximum to :meth:`refresh_maxf`: a settle rewrites a
        batch of entries and refreshes each timeline once."""
        self.starts[i] = start
        self.finishes[i] = finish

    def refresh_maxf(self, lo: int, hi: int) -> None:
        """Bring ``_maxf`` up to date after edits at indices ``lo..hi``.

        Entries ``lo..hi`` are recomputed unconditionally (an insert
        passes ``hi == lo``: its slot holds a placeholder; a delete
        passes ``hi == lo - 1``). Past ``hi`` each stored entry is an
        old running maximum that takes the same step as the new one, so
        the walk stops at the first entry whose value does not change.
        ``f > m`` mirrors ``max(m, f)``, the step
        :func:`itertools.accumulate` takes in :meth:`__init__`.
        """
        finishes, maxf = self.finishes, self._maxf
        n = len(finishes)
        if lo >= n:
            return
        if lo == 0:
            m = finishes[0]
            maxf[0] = m
            lo = 1
        else:
            m = maxf[lo - 1]
        for k in range(lo, n):
            f = finishes[k]
            if f > m:
                m = f
            if k > hi and maxf[k] == m:
                return
            maxf[k] = m

    def last_finish(self) -> float:
        """Finish of the last reservation in start order (0 when empty)."""
        return self.finishes[-1] if self.finishes else 0.0

    def earliest_gap(self, ready: float, duration: float) -> float:
        """Earliest start ``>= ready`` fitting ``duration`` (see
        :func:`earliest_gap` — same contract, indexed implementation)."""
        if duration < -EPS:
            raise ValueError(f"negative duration {duration}")
        t = ready if ready > 0.0 else 0.0
        if duration <= EPS:
            return t
        starts, finishes = self.starts, self.finishes
        n = len(starts)
        i = bisect_right(self._maxf, t)
        while i < n:
            if starts[i] - t >= duration - EPS:
                return t
            f = finishes[i]
            if f > t:
                t = f
            i += 1
        return t

    def earliest_gap_merged(
        self,
        ready: float,
        duration: float,
        extra_starts: List[float],
        extra_finishes: List[float],
    ) -> float:
        """Earliest gap over the union of this timeline and a (small,
        start-sorted) tentative reservation list, without materializing
        the merge. Equivalent to the legacy ``sorted(busy + extra)`` scan:
        the two-pointer walk visits the union in start order with base
        reservations before tentative ones at equal starts — the same
        order a stable sort of ``committed + planned`` produces.
        """
        if duration < -EPS:
            raise ValueError(f"negative duration {duration}")
        t = ready if ready > 0.0 else 0.0
        if duration <= EPS:
            return t
        bs, bf = self.starts, self.finishes
        n = len(bs)
        i = bisect_right(self._maxf, t)
        j, m = 0, len(extra_starts)
        while i < n or j < m:
            if i < n and (j >= m or bs[i] <= extra_starts[j]):
                s, f = bs[i], bf[i]
                i += 1
            else:
                s, f = extra_starts[j], extra_finishes[j]
                j += 1
            if s - t >= duration - EPS:
                return t
            if f > t:
                t = f
        return t
