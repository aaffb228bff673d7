"""Typed service requests with strict validation and idempotency keys.

Every way of asking the library for work — the CLI, the HTTP server, a
script importing :func:`repro.service.pipeline.execute` — builds one of
these request objects. They are deliberately *transport-agnostic*: plain
frozen dataclasses with JSON (de)serialization, so the same request can
arrive as CLI flags, an HTTP body, or a test literal and mean exactly
the same computation.

Validation is strict and fails early with
:class:`~repro.errors.ConfigurationError`: unknown fields are rejected
(a typo'd ``"algoritm"`` must not silently run the default), enum
fields are checked against the *live* registries
(:data:`~repro.experiments.config.ALGORITHM_NAMES`,
:data:`~repro.experiments.config.TOPOLOGY_NAMES`,
:func:`~repro.graph.interchange.format_names`), and numeric fields are
type- and range-checked (``bool`` is not an ``int`` here).

Idempotency keys reuse the token grammars the cache already trusts:
graph files/content hash to ``#sha256[:12]`` exactly like
:func:`repro.workloads.external.app_token`, overlays render their
canonical :meth:`~repro.corpus.overlays.Overlay.token`, scenarios their
``f..l..a..s..`` token, and generated workloads the
:meth:`~repro.experiments.config.Cell.key` spelling. Two requests with
the same key are the same computation — the pipeline serves the second
from the :class:`~repro.experiments.cache.ResultCache`.

Examples
--------
>>> req = ScheduleRequest(workload="gauss", size=30, topology="ring",
...                       n_procs=4, algorithm="heft")
>>> req.idempotency_key()
'schedule/gauss/n30/g1/ring4/dxhalf/bw1/heft/s0'
>>> ScheduleRequest.from_dict(req.to_dict()) == req
True
>>> ScheduleRequest.from_dict({"algoritm": "bsa"})
Traceback (most recent call last):
    ...
repro.errors.ConfigurationError: unknown ScheduleRequest field(s): ['algoritm']
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError, GraphError, WorkloadError
from repro.util.checked import is_int, is_number, loads, read_text, want

__all__ = [
    "ScheduleRequest",
    "ConvertRequest",
    "SweepRequest",
    "SimulateRequest",
    "ParetoRequest",
    "request_from_dict",
    "REQUEST_TYPES",
]

_BRIDGES = ("none", "epsilon", "components")
_DUPLEXES = ("half", "full")


# ----------------------------------------------------------------------
# field validation helpers
# ----------------------------------------------------------------------

def _positive(kind: str, name: str, value) -> float:
    want(value, is_number, f"{kind}.{name}", ConfigurationError)
    # JSON documents carry NaN and Infinity; neither passes
    if not 0 < value <= sys.float_info.max:
        raise ConfigurationError(
            f"{kind}.{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _choice(kind: str, name: str, value, choices) -> str:
    want(value, str, f"{kind}.{name}", ConfigurationError)
    if value not in choices:
        raise ConfigurationError(
            f"{kind}.{name} must be one of {list(choices)}, got {value!r}"
        )
    return value


def _check_grid(kind: str, suite: str, apps, topologies, n_procs: int,
                het_lo: float, het_hi: float, seed: int) -> None:
    """Refuse a sweep or Pareto grid that no cell of it could run,
    before any cell runs: a processor count below 1, an inverted
    heterogeneity range, an app its suite does not generate, or a
    topology that cannot take ``n_procs`` (built once each, raising
    the builder's own error)."""
    from repro.experiments.runner import build_topology
    from repro.workloads.suites import WORKLOAD_NAMES

    if n_procs < 1:
        raise ConfigurationError(f"{kind}.n_procs must be >= 1, got {n_procs}")
    if het_lo > het_hi:
        raise ConfigurationError(
            f"{kind}: het_lo {het_lo!r} exceeds het_hi {het_hi!r}")
    known = WORKLOAD_NAMES[:1] if suite == "random" else WORKLOAD_NAMES[1:]
    for app in apps:
        if app not in known:
            raise WorkloadError(
                f"{kind}: the {suite} suite generates {list(known)}, "
                f"not {app!r}")
    for name in topologies:
        build_topology(name, n_procs, seed=seed)


def _from_dict(cls, data) -> Any:
    """Strict dataclass hydration: unknown keys are an error."""
    want(data, dict, f"a {cls.__name__}", ConfigurationError)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names - {"type"})
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.__name__} field(s): {unknown}"
        )
    kwargs = {k: v for k, v in data.items() if k in names}
    for name in ("apps", "sizes", "granularities", "topologies",
                 "algorithms", "graph_seeds", "system_seeds", "scenarios",
                 "objectives"):
        if name in kwargs and isinstance(kwargs[name], list):
            kwargs[name] = tuple(kwargs[name])
    req = cls(**kwargs)
    req.validate()
    return req


def _sha12(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _overlay_token(overlay: str, bridge: str) -> str:
    """Canonicalize the request's overlay token with the bridge policy
    folded in (the grammar :mod:`repro.corpus.overlays` defines)."""
    from repro.corpus.overlays import parse_overlay

    ovl = parse_overlay(overlay)
    if bridge != "none":
        if ovl.bridge not in ("none", bridge):
            raise ConfigurationError(
                f"bridge={bridge!r} contradicts the overlay token's "
                f"bridge={ovl.bridge!r}"
            )
        ovl = dataclasses.replace(ovl, bridge=bridge)
    return ovl.token()


class _RequestBase:
    """Shared (de)serialization for all request dataclasses."""

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["type"] = self.TYPE
        return d

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict):
        return _from_dict(cls, data)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(loads(text, ConfigurationError, "request"))


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleRequest(_RequestBase):
    """Schedule one workload on one platform with one algorithm.

    The workload is *either* an interchange document (``graph`` = inline
    text in any registered format, or ``graph_path`` = a file on the
    server's disk) *or* a generated family (``workload``/``size``/
    ``granularity`` — the CLI's default). The platform is a topology
    family name, or an inline repro-topology JSON dict
    (``topology_spec``), or a platform file (``topology_file``).
    """

    TYPE = "schedule"

    # --- workload ------------------------------------------------------
    graph: Optional[str] = None          # inline interchange text
    graph_path: Optional[str] = None     # file on disk (CLI --graph)
    format: Optional[str] = None         # interchange format (None = sniff)
    bridge: str = "none"                 # disconnected-import repair policy
    overlay: str = ""                    # corpus overlay token (ccr/gran/het)
    workload: str = "random"             # generated family when no graph
    size: int = 100
    granularity: float = 1.0
    # --- platform ------------------------------------------------------
    topology: str = "hypercube"
    topology_spec: Optional[dict] = None  # inline repro-topology JSON
    topology_file: Optional[str] = None   # platform file (CLI)
    n_procs: Optional[int] = None
    duplex: str = "half"
    bandwidth_skew: float = 1.0
    # --- algorithm -----------------------------------------------------
    algorithm: str = "bsa"
    seed: int = 0

    def validate(self) -> None:
        from repro.experiments.config import ALGORITHM_NAMES, TOPOLOGY_NAMES
        from repro.graph.interchange import format_names

        kind = type(self).__name__
        if self.graph is not None and self.graph_path is not None:
            raise ConfigurationError(
                f"{kind}: give either graph (inline text) or graph_path "
                f"(a file), not both"
            )
        if self.graph is not None:
            want(self.graph, str, f"{kind}.graph", ConfigurationError)
        if self.graph_path is not None:
            want(self.graph_path, str, f"{kind}.graph_path", ConfigurationError)
        if self.format is not None:
            _choice(kind, "format", self.format, format_names())
        _choice(kind, "bridge", self.bridge, _BRIDGES)
        want(self.overlay, str, f"{kind}.overlay", ConfigurationError)
        want(self.workload, str, f"{kind}.workload", ConfigurationError)
        want(self.size, is_int, f"{kind}.size", ConfigurationError)
        if self.size < 1:
            raise ConfigurationError(f"{kind}.size must be >= 1, got {self.size}")
        _positive(kind, "granularity", self.granularity)
        if self.topology_spec is not None and self.topology_file is not None:
            raise ConfigurationError(
                f"{kind}: give either topology_spec (inline) or "
                f"topology_file (a file), not both"
            )
        if self.topology_spec is not None:
            want(self.topology_spec, dict, f"{kind}.topology_spec", ConfigurationError)
        elif self.topology_file is not None:
            want(self.topology_file, str, f"{kind}.topology_file", ConfigurationError)
        else:
            _choice(kind, "topology", self.topology, TOPOLOGY_NAMES)
        if self.n_procs is not None:
            want(self.n_procs, is_int, f"{kind}.n_procs", ConfigurationError)
        _choice(kind, "duplex", self.duplex, _DUPLEXES)
        _positive(kind, "bandwidth_skew", self.bandwidth_skew)
        _choice(kind, "algorithm", self.algorithm, ALGORITHM_NAMES)
        want(self.seed, is_int, f"{kind}.seed", ConfigurationError)
        # a malformed overlay token should fail at validation time, not
        # halfway through a pipeline run
        _overlay_token(self.overlay, self.bridge)

    # -- idempotency ---------------------------------------------------
    def graph_token(self) -> str:
        """``#sha256[:12][!overlay]`` for file/inline graphs (the
        :func:`~repro.workloads.external.app_token` grammar minus the
        path — content addresses the graph, so the same bytes POSTed
        inline or read from any path are the same request), or the
        generated family's ``Cell``-style token."""
        ovl = _overlay_token(self.overlay, self.bridge)
        if self.graph is not None or self.graph_path is not None:
            text = self.graph
            if text is None:
                text = read_text(self.graph_path, GraphError,
                                 f"graph file {self.graph_path}")
            token = f"#{_sha12(text)}"
            return f"{token}!{ovl}" if ovl else token
        token = f"{self.workload}/n{self.size}/g{self.granularity:g}"
        return f"{token}!{ovl}" if ovl else token

    def platform_token(self) -> str:
        if self.topology_spec is not None or self.topology_file is not None:
            from repro.network.topology import Topology, load_topology

            if self.topology_spec is not None:
                topo = Topology.from_dict(self.topology_spec)
            else:
                topo = load_topology(self.topology_file)
            canon = json.dumps(topo.to_dict(), sort_keys=True)
            name = f"topo#{_sha12(canon)}"
        else:
            procs = self.n_procs if self.n_procs is not None else ""
            name = f"{self.topology}{procs}"
        return f"{name}/dx{self.duplex}/bw{self.bandwidth_skew:g}"

    def idempotency_key(self) -> str:
        return (
            f"schedule/{self.graph_token()}/{self.platform_token()}/"
            f"{self.algorithm}/s{self.seed}"
        )


# ----------------------------------------------------------------------
# convert
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConvertRequest(_RequestBase):
    """Translate one interchange document to another format.

    Content mode (``graph`` inline text, ``to_fmt`` required) is the
    service form; path mode (``src``/``dst`` files) is the CLI form.
    ``topology=True`` switches to platform-file normalization.
    """

    TYPE = "convert"

    graph: Optional[str] = None     # inline input text (service mode)
    src: Optional[str] = None       # input file (CLI mode)
    dst: Optional[str] = None       # output file (CLI mode)
    from_fmt: Optional[str] = None  # None = sniff
    to_fmt: Optional[str] = None    # None = infer from dst extension
    default_comm: Optional[float] = None
    default_cost: Optional[float] = None
    validate_graph: bool = True
    require_connected: bool = True
    bridge: str = "none"
    topology: bool = False          # SRC/DST are platform JSON files

    def validate(self) -> None:
        from repro.graph.interchange import format_names

        kind = type(self).__name__
        for name in ("validate_graph", "require_connected", "topology"):
            want(getattr(self, name), bool, f"{kind}.{name}", ConfigurationError)
        for name in ("graph", "src", "dst"):
            if getattr(self, name) is not None:
                want(getattr(self, name), str, f"{kind}.{name}", ConfigurationError)
        if self.topology:
            if self.src is None or self.dst is None:
                raise ConfigurationError(
                    f"{kind}: topology mode needs src and dst files"
                )
            return
        if (self.graph is None) == (self.src is None):
            raise ConfigurationError(
                f"{kind}: give either graph (inline text) or src (a file)"
            )
        if self.graph is not None and self.to_fmt is None:
            raise ConfigurationError(
                f"{kind}: inline conversion needs to_fmt (there is no "
                f"destination filename to infer it from)"
            )
        for name, value in (("from_fmt", self.from_fmt), ("to_fmt", self.to_fmt)):
            if value is not None:
                _choice(kind, name, value, format_names())
        for name, value in (("default_comm", self.default_comm),
                            ("default_cost", self.default_cost)):
            if value is not None:
                want(value, is_number, f"{kind}.{name}", ConfigurationError)
        _choice(kind, "bridge", self.bridge, _BRIDGES)

    def idempotency_key(self) -> str:
        if self.graph is not None:
            src = f"#{_sha12(self.graph)}"
        else:
            src = self.src or "-"
        opts = (
            f"{self.from_fmt or 'sniff'}>{self.to_fmt or 'ext'}/"
            f"br{self.bridge}/v{int(self.validate_graph)}"
            f"{int(self.require_connected)}"
        )
        return f"convert/{src}/{opts}"


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """A Cell grid for the parallel sweep engine (the ``/sweep``
    endpoint and the remote spelling of ``repro run``-style grids).

    Axes multiply out exactly like
    :func:`repro.corpus.manifest.manifest_cells`: every combination of
    app x size x granularity x topology x algorithm x seeds x scenario
    becomes one :class:`~repro.experiments.config.Cell`.
    """

    TYPE = "sweep"

    suite: str = "random"                 # "random" | "regular"
    apps: Tuple[str, ...] = ("random",)
    sizes: Tuple[int, ...] = (100,)
    granularities: Tuple[float, ...] = (1.0,)
    topologies: Tuple[str, ...] = ("hypercube",)
    algorithms: Tuple[str, ...] = ("bsa",)
    n_procs: int = 16
    het_lo: float = 1.0
    het_hi: float = 50.0
    graph_seeds: Tuple[int, ...] = (0,)
    system_seeds: Tuple[int, ...] = (0,)
    duplex: str = "half"
    bandwidth_skew: float = 1.0
    scenarios: Tuple[str, ...] = ("",)

    def validate(self) -> None:
        from repro.experiments.config import ALGORITHM_NAMES, TOPOLOGY_NAMES

        kind = type(self).__name__
        _choice(kind, "suite", self.suite, ("random", "regular"))
        for name, value, elem in (
            ("apps", self.apps, str),
            ("sizes", self.sizes, is_int),
            ("granularities", self.granularities, is_number),
            ("topologies", self.topologies, str),
            ("algorithms", self.algorithms, str),
            ("graph_seeds", self.graph_seeds, is_int),
            ("system_seeds", self.system_seeds, is_int),
            ("scenarios", self.scenarios, str),
        ):
            if not isinstance(value, tuple) or not value:
                raise ConfigurationError(
                    f"{kind}.{name} must be a non-empty list"
                )
            for v in value:
                want(v, elem, f"{kind}.{name}[]", ConfigurationError)
        for g in self.granularities:
            _positive(kind, "granularities[]", g)
        for t in self.topologies:
            _choice(kind, "topologies[]", t, TOPOLOGY_NAMES)
        for a in self.algorithms:
            _choice(kind, "algorithms[]", a, ALGORITHM_NAMES)
        want(self.n_procs, is_int, f"{kind}.n_procs", ConfigurationError)
        _positive(kind, "het_lo", self.het_lo)
        _positive(kind, "het_hi", self.het_hi)
        _choice(kind, "duplex", self.duplex, _DUPLEXES)
        _positive(kind, "bandwidth_skew", self.bandwidth_skew)
        for s in self.scenarios:
            if s:
                from repro.dynamic import parse_scenario

                parse_scenario(s)  # raises ConfigurationError when bad
        _check_grid(kind, self.suite, self.apps, self.topologies, self.n_procs,
                    self.het_lo, self.het_hi, self.system_seeds[0])

    def expand(self) -> List["Cell"]:  # noqa: F821 - late import below
        from repro.experiments.config import Cell

        cells = []
        for app in self.apps:
            for size in self.sizes:
                for gran in self.granularities:
                    for topology in self.topologies:
                        for algorithm in self.algorithms:
                            for gs in self.graph_seeds:
                                for ss in self.system_seeds:
                                    for scenario in self.scenarios:
                                        cells.append(Cell(
                                            suite=self.suite,
                                            app=app,
                                            size=size,
                                            granularity=float(gran),
                                            topology=topology,
                                            algorithm=algorithm,
                                            het_lo=self.het_lo,
                                            het_hi=self.het_hi,
                                            n_procs=self.n_procs,
                                            graph_seed=gs,
                                            system_seed=ss,
                                            duplex=self.duplex,
                                            bandwidth_skew=self.bandwidth_skew,
                                            scenario=scenario,
                                        ))
        return cells

    def idempotency_key(self) -> str:
        keys = "\n".join(cell.key() for cell in self.expand())
        return f"sweep/#{_sha12(keys)}/{len(keys.splitlines())}cells"


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateRequest(_RequestBase):
    """Event-driven rescheduling: a :class:`ScheduleRequest`-shaped
    workload/platform plus a scenario token or an explicit event list.
    """

    TYPE = "simulate"

    graph: Optional[str] = None
    graph_path: Optional[str] = None
    format: Optional[str] = None
    bridge: str = "none"
    workload: str = "random"
    size: int = 100
    granularity: float = 1.0
    topology: str = "hypercube"
    n_procs: Optional[int] = None
    duplex: str = "half"
    bandwidth_skew: float = 1.0
    algorithm: str = "bsa"
    seed: int = 0
    scenario: str = "f1a1s0"
    events: Optional[str] = None          # inline repro-event-trace JSON
    events_path: Optional[str] = None     # event-trace file (CLI)
    compare_replan: bool = True

    def _as_schedule(self) -> ScheduleRequest:
        return ScheduleRequest(
            graph=self.graph, graph_path=self.graph_path, format=self.format,
            bridge=self.bridge, workload=self.workload, size=self.size,
            granularity=self.granularity, topology=self.topology,
            n_procs=self.n_procs, duplex=self.duplex,
            bandwidth_skew=self.bandwidth_skew, algorithm=self.algorithm,
            seed=self.seed,
        )

    def validate(self) -> None:
        self._as_schedule().validate()
        kind = type(self).__name__
        want(self.scenario, str, f"{kind}.scenario", ConfigurationError)
        want(self.compare_replan, bool, f"{kind}.compare_replan", ConfigurationError)
        for name in ("events", "events_path"):
            if getattr(self, name) is not None:
                want(getattr(self, name), str, f"{kind}.{name}", ConfigurationError)
        if self.events is not None and self.events_path is not None:
            raise ConfigurationError(
                f"{kind}: give either events (inline) or events_path "
                f"(a file), not both"
            )
        if self.events is None and self.events_path is None:
            from repro.dynamic import parse_scenario

            parse_scenario(self.scenario)

    def idempotency_key(self) -> str:
        base = self._as_schedule().idempotency_key()[len("schedule/"):]
        if self.events is not None:
            suffix = f"ev#{_sha12(self.events)}"
        elif self.events_path is not None:
            text = read_text(self.events_path, ConfigurationError,
                             f"event trace {self.events_path}")
            suffix = f"ev#{_sha12(text)}"
        else:
            suffix = f"sc{self.scenario}"
        return f"simulate/{base}/{suffix}"


# ----------------------------------------------------------------------
# pareto
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoRequest(_RequestBase):
    """A multi-objective Pareto sweep: one generated workload, every
    requested algorithm, scored against every requested objective (the
    ``repro pareto`` CLI and the ``/pareto`` endpoint).

    Empty ``algorithms``/``objectives`` mean "all of them" — the
    resolved spelling is what the idempotency key records, so the
    explicit and the defaulted request are the same computation.
    """

    TYPE = "pareto"

    workload: str = "random"             # a WORKLOAD_NAMES entry
    size: int = 100
    granularity: float = 1.0
    topology: str = "hypercube"
    n_procs: int = 16
    het_lo: float = 1.0
    het_hi: float = 50.0
    seed: int = 0
    duplex: str = "half"
    bandwidth_skew: float = 1.0
    algorithms: Tuple[str, ...] = ()     # () = every registered algorithm
    objectives: Tuple[str, ...] = ()     # () = every registered objective

    def resolved_algorithms(self) -> Tuple[str, ...]:
        from repro.experiments.config import ALGORITHM_NAMES

        return self.algorithms or ALGORITHM_NAMES

    def resolved_objectives(self) -> Tuple[str, ...]:
        from repro.objectives.registry import (
            OBJECTIVE_NAMES,
            parse_objectives,
        )

        return parse_objectives(self.objectives or OBJECTIVE_NAMES)

    def validate(self) -> None:
        from repro.experiments.config import ALGORITHM_NAMES, TOPOLOGY_NAMES
        from repro.errors import ConfigurationError as _CE

        kind = type(self).__name__
        want(self.workload, str, f"{kind}.workload", ConfigurationError)
        want(self.size, is_int, f"{kind}.size", ConfigurationError)
        if self.size < 1:
            raise _CE(f"{kind}.size must be >= 1, got {self.size}")
        _positive(kind, "granularity", self.granularity)
        _choice(kind, "topology", self.topology, TOPOLOGY_NAMES)
        want(self.n_procs, is_int, f"{kind}.n_procs", ConfigurationError)
        _positive(kind, "het_lo", self.het_lo)
        _positive(kind, "het_hi", self.het_hi)
        want(self.seed, is_int, f"{kind}.seed", ConfigurationError)
        _choice(kind, "duplex", self.duplex, _DUPLEXES)
        _positive(kind, "bandwidth_skew", self.bandwidth_skew)
        if not isinstance(self.algorithms, tuple):
            raise _CE(f"{kind}.algorithms must be a list")
        seen = set()
        for a in self.algorithms:
            _choice(kind, "algorithms[]", a, ALGORITHM_NAMES)
            if a in seen:
                raise _CE(f"{kind}: duplicate algorithm {a!r}")
            seen.add(a)
        if not isinstance(self.objectives, tuple):
            raise _CE(f"{kind}.objectives must be a list")
        for o in self.objectives:
            want(o, str, f"{kind}.objectives[]", _CE)
        resolved = self.resolved_objectives()  # rejects unknown/duplicates
        if len(resolved) < 2:
            raise _CE(
                f"{kind}: a Pareto sweep needs at least two objectives, "
                f"got {list(resolved)}"
            )
        _check_grid(kind, self.base_cell().suite, (self.workload,),
                    (self.topology,), self.n_procs, self.het_lo, self.het_hi,
                    self.seed)

    def base_cell(self):
        """The algorithm-free cell every point of the sweep shares."""
        from repro.experiments.config import Cell

        suite = "regular" if self.workload != "random" else "random"
        return Cell(
            suite=suite, app=self.workload, size=self.size,
            granularity=self.granularity, topology=self.topology,
            algorithm=self.resolved_algorithms()[0],
            het_lo=self.het_lo, het_hi=self.het_hi,
            n_procs=self.n_procs,
            graph_seed=self.seed, system_seed=self.seed,
            duplex=self.duplex, bandwidth_skew=self.bandwidth_skew,
        )

    def idempotency_key(self) -> str:
        from repro.objectives.registry import objectives_token

        algos = ",".join(self.resolved_algorithms())
        return (
            f"pareto/{self.workload}/n{self.size}/g{self.granularity:g}/"
            f"{self.topology}{self.n_procs}/"
            f"het{self.het_lo:g}-{self.het_hi:g}/"
            f"dx{self.duplex}/bw{self.bandwidth_skew:g}/s{self.seed}/"
            f"a[{algos}]/o[{objectives_token(self.resolved_objectives())}]"
        )


#: request type registry for transport-level dispatch
REQUEST_TYPES: Dict[str, Type[_RequestBase]] = {
    cls.TYPE: cls
    for cls in (ScheduleRequest, ConvertRequest, SweepRequest,
                SimulateRequest, ParetoRequest)
}


def request_from_dict(data: dict):
    """Hydrate any request from a dict carrying a ``"type"`` tag."""
    want(data, dict, "a service request", ConfigurationError)
    tag = data.get("type")
    cls = REQUEST_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ConfigurationError(
            f"unknown request type {tag!r}; known: {sorted(REQUEST_TYPES)}"
        )
    return cls.from_dict(data)
