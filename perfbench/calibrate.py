"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a shared host whose speed drifts: the same
operation can run 1.5x slower for seconds to minutes at a time, on every
core the benchmark gets. A run therefore times, between its operations,
a fixed pure-Python reference task (a small list scheduler over a fixed
DAG, written here so that no change to the program moves it) and scales
every operation's time by how fast the host ran the reference task
around it::

    reported = measured * REFERENCE_S / (reference task time nearby)

A reported time is thus what the operation would have taken on a host
that runs the reference task in ``REFERENCE_S`` seconds. ``REFERENCE_S``
is a constant, so a change to the program moves reported times exactly
as it moves measured ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import List, Tuple

#: seconds the reference task took on a quiet 2-vCPU x86-64 host;
#: reported times are scaled to this speed
REFERENCE_S = 0.0028
#: reference-task samples, nearest in time to an operation, whose
#: median scales it
WINDOW = 15
#: list-scheduling passes in one reference task
PASSES = 6


def _make_dag(n: int = 48, seed: int = 7):
    rng = random.Random(seed)
    succ: List[List[int]] = [[] for _ in range(n)]
    cost = [rng.uniform(1.0, 10.0) for _ in range(n)]
    comm = {}
    for v in range(1, n):
        for u in rng.sample(range(v), min(v, rng.randint(1, 3))):
            succ[u].append(v)
            comm[u, v] = rng.uniform(0.5, 5.0)
    pred: List[List[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in succ[u]:
            pred[v].append(u)
    return succ, pred, cost, comm


_DAG = _make_dag()


def _list_schedule(n_procs: int) -> float:
    """Upward ranks, then earliest-finish placement with insertion on
    ``n_procs`` processors; returns the schedule length."""
    succ, pred, cost, comm = _DAG
    n = len(cost)
    rank = [0.0] * n
    for u in range(n - 1, -1, -1):
        rank[u] = cost[u] + max((comm[u, v] + rank[v] for v in succ[u]),
                                default=0.0)
    busy: List[List[Tuple[float, float]]] = [[] for _ in range(n_procs)]
    where, finish = {}, {}
    for v in sorted(range(n), key=lambda x: -rank[x]):
        best = None
        for p in range(n_procs):
            start = max((finish[u] + (0.0 if where[u] == p else comm[u, v])
                         for u in pred[v]), default=0.0)
            for s, e in busy[p]:
                if start + cost[v] <= s:
                    break
                start = max(start, e)
            if best is None or start + cost[v] < best[0]:
                best = (start + cost[v], p, start)
        end, p, start = best
        bisect.insort(busy[p], (start, end))
        where[v], finish[v] = p, end
    return max(finish.values())


def reference_task() -> float:
    return sum(_list_schedule(n_procs) for n_procs in range(2, 2 + PASSES))


class Clock:
    """Reference-task samples taken through a run, in time order."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Record ``count`` samples, each the faster of two back-to-back
        runs of the reference task with the garbage collector paused, so
        that neither a collection of the program's garbage nor caches
        the program left cold are charged to the host."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                best = float("inf")
                for _ in range(2):
                    t0 = time.perf_counter()
                    reference_task()
                    t1 = time.perf_counter()
                    best = min(best, t1 - t0)
                self.times.append(t1 - best / 2)
                self.seconds.append(best)
        finally:
            if was_enabled:
                gc.enable()

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median of the ``WINDOW`` samples nearest
        in time to ``at``."""
        if not self.seconds:
            raise RuntimeError("no calibration samples")
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + WINDOW])

    def scaled(self, seconds: float, at: float) -> float:
        return seconds * self.factor(at)
