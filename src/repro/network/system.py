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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
            self._exec[t] = self._cost_row(t, exec_costs[t])
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
        # comm_cost memo, filled only under PER_MESSAGE_LINK, whose
        # factors are hashed per (message, link); shared by both engine
        # modes, and exact since the factor source is a pure function of
        # (edge, link) for a fixed system.
        self._comm_cache: Dict[Tuple[Tuple[TaskId, TaskId], Link], float] = {}
        #: the planners' hop prices: ``(factor, bandwidth)`` per canonical
        #: link, so a hop of message ``c`` lasts ``factor * c /
        #: bandwidth``, :meth:`comm_cost`'s float. None where the factor
        #: depends on the message (PER_MESSAGE_LINK), or a PER_LINK
        #: factor is missing (:meth:`comm_cost` raises when a hop uses
        #: that link); planners then call :meth:`comm_cost`.
        self.hop_prices: Optional[Dict[Link, Tuple[float, float]]] = None
        if link_mode is LinkHeterogeneity.PER_LINK:
            factors = self._per_link
        else:
            factors = dict.fromkeys(topology.links, 1.0)
        if (link_mode is not LinkHeterogeneity.PER_MESSAGE_LINK
                and all(lid in factors for lid in topology.links)):
            self.hop_prices = {
                lid: (factors[lid], topology.spec(*lid).bandwidth)
                for lid in topology.links}

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
        exec_costs: Dict[TaskId, List[float]] = {}
        n_procs = topology.n_procs
        for t in graph.tasks():
            factors = rng.uniforms(lo, hi, n_procs)
            # normalize: fastest processor runs the task at factor `lo`
            factors[min(range(n_procs), key=factors.__getitem__)] = lo
            cost = graph.cost(t)
            exec_costs[t] = [f * cost for f in factors]
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
        self._exec[task] = self._cost_row(task, costs)

    def _cost_row(self, task: TaskId, costs: Sequence[float]) -> Tuple[float, ...]:
        """``costs`` as a row of floats, one per processor, each positive
        and finite: ``0 < c <= float max`` entry by entry, in C, so a NaN
        anywhere in the row fails it."""
        row = tuple(map(float, costs))
        if len(row) != self.topology.n_procs:
            raise ConfigurationError(
                f"task {task!r}: expected {self.topology.n_procs} costs, got {len(row)}"
            )
        if not (all(map((0.0).__lt__, row)) and all(map(_MAX.__ge__, row))):
            raise ConfigurationError(
                f"task {task!r}: execution costs must be positive and finite")
        return row

    def exec_cost_fn(self, proc: Proc):
        """Cost accessor for a fixed processor (feeds level analysis)."""
        return lambda task: self.exec_cost(task, proc)

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
        return self._factor(edge, lid)

    def _factor(self, edge: Tuple[TaskId, TaskId], lid: Link) -> float:
        """:meth:`link_factor` of an existing canonical link."""
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
        topologies reproduce the paper's ``h' * c_ij`` unchanged. Only
        PER_MESSAGE_LINK memoizes. The planners price from
        :attr:`hop_prices` instead, and this method never reads that
        table, so the validator, which prices every hop here, checks
        the planners' prices independently.
        """
        memo = self.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK
        if memo:
            hit = self._comm_cache.get((edge, link))
            if hit is not None:
                return hit
        lid = link_id(*link)
        spec = self.topology.spec(*lid)
        src, dst = edge
        cost = (self._factor(edge, lid) * self.graph.comm_cost(src, dst)
                / spec.bandwidth)
        if memo:
            self._comm_cache[(edge, link)] = cost
        return cost

    def hop_cost(self, edge: Tuple[TaskId, TaskId], link: Link) -> float:
        """A planner's price of one hop of ``edge`` on canonical ``link``:
        from :attr:`hop_prices` when the system has the table, else
        :meth:`comm_cost`. The same float either way."""
        prices = self.hop_prices
        if prices is None:
            return self.comm_cost(edge, link)
        factor, bandwidth = prices[link]
        return factor * self.graph.comm_cost(*edge) / bandwidth

    @property
    def uniform_hops(self) -> bool:
        """True when every hop of a message costs exactly its nominal
        ``c_ij`` (``1.0 * c_ij / 1.0``): homogeneous link factors and every
        link at bandwidth 1.0. See :mod:`repro.schedule.linkplan` for what
        the planners and bound kernels read under it."""
        return (self.link_mode is LinkHeterogeneity.HOMOGENEOUS
                and self.topology.uniform_bandwidth)

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
