"""Binding of a task graph to a heterogeneous platform.

The paper models heterogeneity with per-(task, processor) factors
``h_ix`` (actual execution cost ``h_ix * tau_i``) and per-(message, link)
factors ``h'_ij,xy`` (actual communication cost ``h'_ij,xy * c_ij``).

:class:`HeterogeneousSystem` stores the *actual* execution cost of every
task on every processor (either sampled from U[1, H] factors as in the
experiments, or given explicitly as in Table 1) plus a link-heterogeneity
model. Link factors in the ``per_message_link`` mode are materialized
lazily via stable hashing so no ``e x links`` matrix is ever stored, and
the value drawn for a (message, link) pair does not depend on evaluation
order.
"""

from __future__ import annotations

import enum
import sys
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.graph.model import TaskGraph, TaskId
from repro.network.topology import Link, Proc, Topology, link_id
from repro.util.rng import RngStream, stable_uniform

_MAX = sys.float_info.max


class LinkHeterogeneity(enum.Enum):
    """How link factors ``h'_ij,xy`` are generated."""

    HOMOGENEOUS = "homogeneous"          # h' = 1 for every message and link
    PER_LINK = "per_link"                # one factor per link, shared by messages
    PER_MESSAGE_LINK = "per_message_link"  # independent factor per (message, link)


class HeterogeneousSystem:
    """A task graph bound to a processor network with heterogeneity factors.

    Use :meth:`sample` for the paper's randomized experiments or
    :meth:`from_exec_table` for explicit cost tables (Table 1).
    """

    def __init__(
        self,
        graph: TaskGraph,
        topology: Topology,
        exec_costs: Mapping[TaskId, Sequence[float]],
        link_mode: LinkHeterogeneity = LinkHeterogeneity.HOMOGENEOUS,
        link_factor_range: Tuple[float, float] = (1.0, 1.0),
        link_seed: int = 0,
        per_link_factors: Optional[Mapping[Link, float]] = None,
    ):
        self.graph = graph
        self.topology = topology
        self.link_mode = link_mode
        self.link_factor_range = link_factor_range
        self.link_seed = link_seed
        self._exec: Dict[TaskId, Tuple[float, ...]] = {}
        for t in graph.tasks():
            if t not in exec_costs:
                raise ConfigurationError(f"no execution costs for task {t!r}")
            row = tuple(float(c) for c in exec_costs[t])
            if len(row) != topology.n_procs:
                raise ConfigurationError(
                    f"task {t!r}: expected {topology.n_procs} costs, got {len(row)}"
                )
            if not all(0 < c <= _MAX for c in row):
                raise ConfigurationError(
                    f"task {t!r}: execution costs must be positive and finite")
            self._exec[t] = row
        self._per_link: Dict[Link, float] = dict(per_link_factors or {})
        if link_mode is LinkHeterogeneity.PER_LINK and not self._per_link:
            raise ConfigurationError("PER_LINK mode requires per_link_factors")
        # negative or NaN factors would give hops negative or NaN
        # durations, which never overlap anything
        for link, factor in self._per_link.items():
            if not 0 < factor <= _MAX:
                raise ConfigurationError(
                    f"link {link}: factor {factor!r} must be positive and finite")
        lo, hi = link_factor_range
        if not 0 < lo <= hi <= _MAX:
            raise ConfigurationError(
                f"link factor range [{lo}, {hi}] must satisfy 0 < lo <= hi, "
                "both finite")
        # optional multi-criteria models (repro.objectives): a
        # PowerModel / ReliabilityModel bound to this platform. None
        # means "use the deterministic defaults" — evaluators fall back
        # to PowerModel.uniform / ReliabilityModel.uniform, so every
        # system has well-defined energy and reliability. Kept as plain
        # attributes (not constructor args) so the network layer stays
        # free of an objectives import.
        self.power_model = None       # Optional[PowerModel]
        self.failure_model = None     # Optional[ReliabilityModel]
        # comm_cost memo, shared by both engine modes: every factor source
        # is a pure function of (edge, link) for a fixed system, so it is
        # exact.
        self._comm_cache: Dict[Tuple[Tuple[TaskId, TaskId], Link], float] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        graph: TaskGraph,
        topology: Topology,
        het_range: Tuple[float, float] = (1.0, 50.0),
        link_het_range: Optional[Tuple[float, float]] = None,
        seed: int = 0,
        link_mode: LinkHeterogeneity = LinkHeterogeneity.PER_MESSAGE_LINK,
    ) -> "HeterogeneousSystem":
        """Sample factors like the paper's experiments.

        Execution factors ``h_ix ~ U[het_range]`` per (task, processor);
        each task's *fastest* processor is normalized to factor exactly
        ``lo`` so nominal costs mean "cost on the fastest processor" as the
        paper states. ``link_het_range=None`` gives homogeneous links
        (``h' = 1``), which the paper uses in its worked example; pass a
        range (e.g. ``(1, 50)``) to sample link factors too.
        """
        lo, hi = het_range
        if not (0 < lo <= hi):
            raise ConfigurationError(f"bad heterogeneity range [{lo}, {hi}]")
        rng = RngStream(seed).fork("exec-factors", graph.name, topology.n_procs)
        exec_costs: Dict[TaskId, Tuple[float, ...]] = {}
        for t in graph.tasks():
            factors = [rng.uniform(lo, hi) for _ in range(topology.n_procs)]
            # normalize: fastest processor runs the task at factor `lo`
            fastest = min(range(topology.n_procs), key=lambda p: factors[p])
            factors[fastest] = lo
            exec_costs[t] = tuple(f * graph.cost(t) for f in factors)
        if link_het_range is None:
            return cls(graph, topology, exec_costs,
                       link_mode=LinkHeterogeneity.HOMOGENEOUS)
        llo, lhi = link_het_range
        if not (0 < llo <= lhi):
            raise ConfigurationError(f"bad link heterogeneity range [{llo}, {lhi}]")
        return cls(
            graph,
            topology,
            exec_costs,
            link_mode=link_mode,
            link_factor_range=(llo, lhi),
            link_seed=RngStream(seed).fork("link-factors").seed,
        )

    @classmethod
    def from_exec_table(
        cls,
        graph: TaskGraph,
        topology: Topology,
        table: Mapping[TaskId, Sequence[float]],
        link_mode: LinkHeterogeneity = LinkHeterogeneity.HOMOGENEOUS,
        per_link_factors: Optional[Mapping[Link, float]] = None,
        link_factor_range: Tuple[float, float] = (1.0, 1.0),
        link_seed: int = 0,
    ) -> "HeterogeneousSystem":
        """Build from an explicit actual-execution-cost table (paper Table 1)."""
        return cls(
            graph,
            topology,
            table,
            link_mode=link_mode,
            per_link_factors=per_link_factors,
            link_factor_range=link_factor_range,
            link_seed=link_seed,
        )

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def exec_cost(self, task: TaskId, proc: Proc) -> float:
        """Actual execution cost of ``task`` on ``proc`` (``h_ix * tau_i``)."""
        try:
            return self._exec[task][proc]
        except KeyError:
            raise ConfigurationError(f"unknown task {task!r}") from None
        except IndexError:
            raise ConfigurationError(
                f"processor {proc} out of range 0..{self.topology.n_procs - 1}"
            ) from None

    def exec_cost_row(self, task: TaskId) -> Tuple[float, ...]:
        """Actual cost of ``task`` on every processor."""
        return self._exec[task]

    def add_task_costs(self, task: TaskId, costs: Sequence[float]) -> None:
        """Register the cost row of a task added to the graph *after*
        construction (dynamic arrivals).  The task must already exist in
        the graph and must not have a row yet; validation matches the
        constructor's.
        """
        if not self.graph.has_task(task):
            raise ConfigurationError(
                f"cannot add costs for {task!r}: not in graph {self.graph.name!r}"
            )
        if task in self._exec:
            raise ConfigurationError(f"task {task!r} already has execution costs")
        row = tuple(float(c) for c in costs)
        if len(row) != self.topology.n_procs:
            raise ConfigurationError(
                f"task {task!r}: expected {self.topology.n_procs} costs, got {len(row)}"
            )
        if not all(0 < c <= _MAX for c in row):
            raise ConfigurationError(
                f"task {task!r}: execution costs must be positive and finite")
        self._exec[task] = row

    def exec_cost_fn(self, proc: Proc):
        """Cost accessor for a fixed processor (feeds level analysis)."""
        return lambda task: self.exec_cost(task, proc)

    def fastest_proc(self, task: TaskId) -> Proc:
        row = self._exec[task]
        return min(range(len(row)), key=lambda p: row[p])

    def median_exec_cost(self, task: TaskId) -> float:
        """Median over processors — DLS's machine-independent cost ``E*``."""
        row = sorted(self._exec[task])
        k = len(row)
        mid = k // 2
        if k % 2:
            return row[mid]
        return 0.5 * (row[mid - 1] + row[mid])

    def mean_exec_cost(self, task: TaskId) -> float:
        row = self._exec[task]
        return sum(row) / len(row)

    def link_factor(self, edge: Tuple[TaskId, TaskId], link: Link) -> float:
        """Heterogeneity factor ``h'_ij,xy`` for message ``edge`` on ``link``."""
        lid = link_id(*link)
        if not self.topology.has_link(*lid):
            raise TopologyError(f"no link {lid} in topology {self.topology.name!r}")
        if self.link_mode is LinkHeterogeneity.HOMOGENEOUS:
            return 1.0
        if self.link_mode is LinkHeterogeneity.PER_LINK:
            try:
                return self._per_link[lid]
            except KeyError:
                raise ConfigurationError(f"no factor for link {lid}") from None
        lo, hi = self.link_factor_range
        return stable_uniform(self.link_seed, ("link-het", edge, lid), lo, hi)

    def comm_cost(self, edge: Tuple[TaskId, TaskId], link: Link) -> float:
        """Actual hop duration of message ``edge`` on ``link``
        (``h' * c_ij / bandwidth``).

        Bandwidth comes from the link's :class:`~repro.network.topology.
        LinkSpec`; the default 1.0 divides out bit-exactly, so uniform
        topologies reproduce the paper's ``h' * c_ij`` unchanged.
        """
        hit = self._comm_cache.get((edge, link))
        if hit is not None:
            return hit
        src, dst = edge
        cost = (
            self.link_factor(edge, link)
            * self.graph.comm_cost(src, dst)
            / self.topology.bandwidth(*link)
        )
        self._comm_cache[(edge, link)] = cost
        return cost

    # ------------------------------------------------------------------
    @property
    def n_procs(self) -> int:
        return self.topology.n_procs

    @property
    def per_link_factors(self) -> Dict[Link, float]:
        """Copy of the explicit per-link factor table (PER_LINK mode;
        empty otherwise) — exported by schedule bundles so a replayed
        system reproduces the exact link heterogeneity."""
        return dict(self._per_link)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeterogeneousSystem(graph={self.graph.name!r}, "
            f"topology={self.topology.name!r}, links={self.link_mode.value})"
        )
