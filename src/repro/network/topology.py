"""Processor network topologies and the heterogeneous link model.

A :class:`Topology` is an undirected, connected graph over processors
``0..m-1``. Links are identified by the sorted pair
``(min(x, y), max(x, y))`` and each carries a :class:`LinkSpec`:

* ``bandwidth`` — a throughput multiplier; a hop of nominal cost ``c``
  lasts ``c / bandwidth`` on the link (the default 1.0 reproduces the
  paper's uniform links bit-for-bit);
* ``duplex`` — ``"half"`` (paper default: one timeline per link, shared
  by both directions, matching Figure 2's one Gantt column per link
  ``L12..L41``) or ``"full"`` (one independent timeline per direction).

The scheduling substrate reserves time on *channels*: a half-duplex
link exposes one channel (its canonical link id), a full-duplex link two
(the ordered pairs ``(x, y)`` and ``(y, x)``). :meth:`Topology.channel`
maps a traversal direction to its timeline key.

Builders cover the paper's four experimental topologies (16-processor
ring, hypercube, clique, degree-bounded random) plus extras (chain,
star, 2-D mesh, 2-D torus, binary tree, fat tree) used in examples,
tests and the link-model ablations.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.util.checked import is_int, is_number, loads, want
from repro.util.rng import RngStream, stable_uniform

Proc = int
Link = Tuple[int, int]

#: duplex modes a link can operate in
DUPLEX_MODES = ("half", "full")


def link_id(x: Proc, y: Proc) -> Link:
    """Canonical (sorted) identifier of the undirected link between x and y.

    >>> link_id(3, 1)
    (1, 3)
    """
    if x == y:
        raise TopologyError(f"no self-link on processor {x}")
    return (x, y) if x < y else (y, x)


@dataclass(frozen=True)
class LinkSpec:
    """Physical properties of one link.

    ``bandwidth`` scales throughput (hop duration = nominal cost /
    bandwidth); ``duplex`` selects whether the two directions share one
    timeline (``"half"``) or each get their own (``"full"``).
    """

    bandwidth: float = 1.0
    duplex: str = "half"

    def __post_init__(self):
        # a hop lasts cost / bandwidth: an infinite bandwidth gives
        # zero-length hops, and an int a float cannot hold overflows
        if not 0 < self.bandwidth <= sys.float_info.max:
            raise TopologyError(
                f"link bandwidth must be positive and finite, got {self.bandwidth!r}"
            )
        if self.duplex not in DUPLEX_MODES:
            raise TopologyError(
                f"duplex must be one of {DUPLEX_MODES}, got {self.duplex!r}"
            )

    def to_dict(self) -> dict:
        return {"bandwidth": self.bandwidth, "duplex": self.duplex}

    @classmethod
    def from_dict(cls, d: Mapping) -> "LinkSpec":
        """Rebuild a spec exported by :meth:`to_dict`; a malformed field
        raises :class:`TopologyError` naming it."""
        want(d, dict, "link spec", TopologyError)
        return cls(
            bandwidth=want(d.get("bandwidth", 1.0), is_number,
                           "link spec field 'bandwidth'", TopologyError),
            duplex=want(d.get("duplex", "half"), str,
                        "link spec field 'duplex'", TopologyError),
        )


#: the paper's uniform link: unit bandwidth, half duplex
DEFAULT_LINK_SPEC = LinkSpec()


class Topology:
    """An undirected, connected processor network.

    Parameters
    ----------
    n_procs:
        Number of processors, identified ``0..n_procs-1``.
    links:
        Iterable of processor pairs. Duplicates (in either order) are
        rejected.
    name:
        Human-readable name used in reports and cache keys.
    link_specs:
        Optional mapping from (canonical or reversed) link pairs to
        :class:`LinkSpec`; unmapped links use ``default_spec``.
    default_spec:
        The :class:`LinkSpec` applied to links absent from
        ``link_specs`` (default: unit bandwidth, half duplex).
    """

    def __init__(
        self,
        n_procs: int,
        links: Iterable[Tuple[int, int]],
        name: str = "topology",
        link_specs: Optional[Mapping[Link, LinkSpec]] = None,
        default_spec: LinkSpec = DEFAULT_LINK_SPEC,
    ):
        if n_procs <= 0:
            raise TopologyError(f"need at least one processor, got {n_procs}")
        self.name = name
        self.n_procs = n_procs
        self._adj: Dict[Proc, List[Proc]] = {p: [] for p in range(n_procs)}
        self._links: List[Link] = []
        seen = set()
        for x, y in links:
            self._check_proc(x)
            self._check_proc(y)
            lid = link_id(x, y)
            if lid in seen:
                raise TopologyError(f"duplicate link {lid}")
            seen.add(lid)
            self._links.append(lid)
            self._adj[x].append(y)
            self._adj[y].append(x)
        for p in self._adj:
            self._adj[p].sort()
        self._links.sort()
        if n_procs > 1:
            self._check_connected()
        # --- link specs and channel map -------------------------------
        self._specs: Dict[Link, LinkSpec] = {l: default_spec for l in self._links}
        spec_seen = set()
        for pair, spec in (link_specs or {}).items():
            lid = link_id(*pair)
            if lid not in self._specs:
                raise TopologyError(f"spec for missing link {lid}")
            if lid in spec_seen:
                # both orientations of one link would silently overwrite
                # each other (dict order wins) — reject instead
                raise TopologyError(f"duplicate spec for link {lid}")
            spec_seen.add(lid)
            if not isinstance(spec, LinkSpec):
                raise TopologyError(f"link {lid}: spec must be a LinkSpec, got {spec!r}")
            self._specs[lid] = spec
        # directed (src, dst) -> timeline key; half-duplex links share the
        # canonical id in both directions, full-duplex get one key per
        # direction. Precomputed once — channel() is on the hot path.
        self._channel: Dict[Tuple[Proc, Proc], Tuple[Proc, Proc]] = {}
        self._channels: List[Tuple[Proc, Proc]] = []
        for lid in self._links:
            a, b = lid
            if self._specs[lid].duplex == "half":
                self._channel[(a, b)] = lid
                self._channel[(b, a)] = lid
                self._channels.append(lid)
            else:
                self._channel[(a, b)] = (a, b)
                self._channel[(b, a)] = (b, a)
                self._channels.append((a, b))
                self._channels.append((b, a))
        #: True when every link has unit bandwidth — the condition under
        #: which nominal comm costs equal hop durations (pruning bounds
        #: in BSA/DLS rely on this).
        self.uniform_bandwidth: bool = all(
            s.bandwidth == 1.0 for s in self._specs.values()
        )
        #: True when every link is half-duplex (the paper's model).
        self.all_half_duplex: bool = all(
            s.duplex == "half" for s in self._specs.values()
        )

    def _check_proc(self, p: Proc) -> None:
        if not (0 <= p < self.n_procs):
            raise TopologyError(f"processor {p} out of range 0..{self.n_procs - 1}")

    def _check_connected(self) -> None:
        seen = {0}
        stack = [0]
        while stack:
            p = stack.pop()
            for q in self._adj[p]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        if len(seen) != self.n_procs:
            missing = sorted(set(range(self.n_procs)) - seen)
            raise TopologyError(
                f"topology {self.name!r} is disconnected; unreachable processors {missing[:8]}"
            )

    # ------------------------------------------------------------------
    @property
    def processors(self) -> List[Proc]:
        return list(range(self.n_procs))

    @property
    def links(self) -> List[Link]:
        return list(self._links)

    @property
    def n_links(self) -> int:
        return len(self._links)

    def neighbors(self, p: Proc) -> List[Proc]:
        self._check_proc(p)
        return list(self._adj[p])

    def degree(self, p: Proc) -> int:
        self._check_proc(p)
        return len(self._adj[p])

    def has_link(self, x: Proc, y: Proc) -> bool:
        if x == y:
            return False
        return y in self._adj.get(x, ())

    # ------------------------------------------------------------------
    # link specs & channels
    # ------------------------------------------------------------------
    def spec(self, x: Proc, y: Proc) -> LinkSpec:
        """The :class:`LinkSpec` of the link between ``x`` and ``y``."""
        lid = link_id(x, y)
        try:
            return self._specs[lid]
        except KeyError:
            raise TopologyError(f"no link {lid} in topology {self.name!r}") from None

    def bandwidth(self, x: Proc, y: Proc) -> float:
        """Bandwidth multiplier of the link between ``x`` and ``y``."""
        return self.spec(x, y).bandwidth

    def duplex(self, x: Proc, y: Proc) -> str:
        """Duplex mode (``"half"`` | ``"full"``) of the link ``x``—``y``."""
        return self.spec(x, y).duplex

    def channel(self, src: Proc, dst: Proc) -> Tuple[Proc, Proc]:
        """Timeline key for traversing the link from ``src`` to ``dst``.

        Half-duplex links return the canonical (sorted) link id for both
        directions; full-duplex links return the ordered pair, so each
        direction reserves on its own timeline.
        """
        try:
            return self._channel[(src, dst)]
        except KeyError:
            raise TopologyError(
                f"no link between {src} and {dst} in topology {self.name!r}"
            ) from None

    def channels(self) -> List[Tuple[Proc, Proc]]:
        """All timeline keys: one per half-duplex link, two per
        full-duplex link (sorted by link, direction ``(a,b)`` first)."""
        return list(self._channels)

    def with_link_specs(
        self,
        link_specs: Optional[Mapping[Link, LinkSpec]] = None,
        default_spec: LinkSpec = DEFAULT_LINK_SPEC,
        name: Optional[str] = None,
    ) -> "Topology":
        """A copy of this topology with different link specs."""
        return Topology(
            self.n_procs,
            self._links,
            name=name or self.name,
            link_specs=link_specs,
            default_spec=default_spec,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict export (links sorted; specs only when non-default)."""
        specs = {
            f"{a}-{b}": self._specs[(a, b)].to_dict()
            for (a, b) in self._links
            if self._specs[(a, b)] != DEFAULT_LINK_SPEC
        }
        out = {
            "name": self.name,
            "n_procs": self.n_procs,
            "links": [list(l) for l in self._links],
        }
        if specs:
            out["link_specs"] = specs
        return out

    @classmethod
    def from_dict(cls, d: Mapping) -> "Topology":
        """Rebuild a topology exported by :meth:`to_dict`.

        The dict is untrusted input (an inline ``topology_spec``, a
        topology file, a bundle), so every field is checked and a
        malformed one raises :class:`TopologyError` naming it.
        """
        want(d, dict, "topology", TopologyError)
        n_procs = want(d.get("n_procs"), is_int, "topology field 'n_procs'",
                       TopologyError)
        links = want(d.get("links"), list, "topology field 'links'", TopologyError)
        for k, pair in enumerate(links):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and is_int(pair[0]) and is_int(pair[1])):
                raise TopologyError(
                    f"topology field 'links[{k}]' must be a pair of processor "
                    f"ids, got {pair!r}")
        # a connected network of n processors has at least n - 1 links;
        # checked first, so a huge n_procs never sizes per-processor state
        if n_procs > len(links) + 1:
            raise TopologyError(
                f"topology field 'n_procs' is {n_procs}, but {len(links)} "
                f"links connect at most {len(links) + 1} processors")
        name = want(d.get("name", "topology"), str, "topology field 'name'",
                    TopologyError)
        raw_specs = d.get("link_specs")
        if raw_specs is None:
            raw_specs = {}
        want(raw_specs, dict, "topology field 'link_specs'", TopologyError)
        specs: Dict[Link, LinkSpec] = {}
        for key, spec in raw_specs.items():
            a, sep, b = key.partition("-") if isinstance(key, str) else ("", "", "")
            if not (sep and a.isdecimal() and b.isdecimal()):
                raise TopologyError(
                    f"topology field 'link_specs' has key {key!r}; "
                    f"expected 'A-B' with processor ids A and B")
            try:
                specs[(int(a), int(b))] = LinkSpec.from_dict(spec)
            except TopologyError as exc:
                raise TopologyError(
                    f"topology field 'link_specs[{key!r}]': {exc}") from None
        return cls(
            n_procs,
            [tuple(pair) for pair in links],
            name=name,
            link_specs=specs or None,
        )

    def bfs_order(self, start: Proc) -> List[Proc]:
        """Breadth-first processor order from ``start`` (paper's
        ``BuildProcessorList``); neighbor ties resolved by index."""
        self._check_proc(start)
        order = [start]
        seen = {start}
        head = 0
        while head < len(order):
            p = order[head]
            head += 1
            for q in self._adj[p]:
                if q not in seen:
                    seen.add(q)
                    order.append(q)
        return order

    def diameter(self) -> int:
        """Longest shortest-path (in hops) over all processor pairs."""
        best = 0
        for src in range(self.n_procs):
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for p in frontier:
                    for q in self._adj[p]:
                        if q not in dist:
                            dist[q] = dist[p] + 1
                            nxt.append(q)
                frontier = nxt
            best = max(best, max(dist.values()))
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology({self.name!r}, m={self.n_procs}, links={self.n_links})"


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

# ----------------------------------------------------------------------
# file front door (sniffed JSON format, mirroring graph/interchange)
# ----------------------------------------------------------------------

TOPOLOGY_FORMAT = "repro-topology"
TOPOLOGY_FORMAT_VERSION = 1


def topology_to_json(topology: Topology, indent: Optional[int] = 2) -> str:
    """Serialize a topology to the sniffable JSON file format: a
    ``format``/``version`` envelope around :meth:`Topology.to_dict`.

    >>> print(topology_to_json(chain(2), indent=None))
    {"format": "repro-topology", "version": 1, "name": "chain2", "n_procs": 2, "links": [[0, 1]]}
    """
    doc = {
        "format": TOPOLOGY_FORMAT,
        "version": TOPOLOGY_FORMAT_VERSION,
        **topology.to_dict(),
    }
    return json.dumps(doc, indent=indent)


def topology_from_json(text: str) -> Topology:
    """Parse :func:`topology_to_json` output back into a
    :class:`Topology` (the constructor re-validates structure, so a
    hand-edited file with duplicate links or a disconnected network is
    rejected here).

    >>> topology_from_json(topology_to_json(ring(4))).n_procs
    4
    """
    doc = loads(text, TopologyError, "topology file")
    if not isinstance(doc, dict) or doc.get("format") != TOPOLOGY_FORMAT:
        raise TopologyError(
            f"not a {TOPOLOGY_FORMAT} document "
            + (f"(format={doc.get('format')!r})" if isinstance(doc, dict) else "")
        )
    if doc.get("version") != TOPOLOGY_FORMAT_VERSION:
        raise TopologyError(
            f"unsupported topology format version {doc.get('version')!r}"
        )
    if "n_procs" not in doc or "links" not in doc:
        raise TopologyError("topology document needs 'n_procs' and 'links'")
    return Topology.from_dict(doc)


def is_topology_json(text: str) -> bool:
    """Content sniffer: does ``text`` look like a repro-topology file?

    >>> is_topology_json(topology_to_json(ring(4)))
    True
    >>> is_topology_json("digraph g { }")
    False
    """
    if not text.lstrip().startswith("{"):
        return False
    try:
        doc = loads(text, TopologyError, "topology file")
    except TopologyError:
        return False
    return isinstance(doc, dict) and doc.get("format") == TOPOLOGY_FORMAT


def save_topology(topology: Topology, path: str) -> None:
    """Write ``topology`` to ``path`` in the JSON file format."""
    with open(path, "w") as fh:
        fh.write(topology_to_json(topology) + "\n")


def load_topology(path: str) -> Topology:
    """Read a topology file written by :func:`save_topology` (or by
    hand — the format is :meth:`Topology.to_dict` plus an envelope)."""
    with open(path, "rb") as fh:
        return topology_from_json(fh.read())


def ring(m: int, name: Optional[str] = None) -> Topology:
    """Ring of ``m`` processors (paper topology (a)).

    >>> ring(4).links
    [(0, 1), (0, 3), (1, 2), (2, 3)]
    """
    if m < 3:
        raise TopologyError(f"ring needs >= 3 processors, got {m}")
    links = [(i, (i + 1) % m) for i in range(m)]
    return Topology(m, links, name or f"ring{m}")


def chain(m: int, name: Optional[str] = None) -> Topology:
    """Open chain (line) of ``m`` processors.

    >>> chain(3).links
    [(0, 1), (1, 2)]
    """
    if m < 2:
        raise TopologyError(f"chain needs >= 2 processors, got {m}")
    links = [(i, i + 1) for i in range(m - 1)]
    return Topology(m, links, name or f"chain{m}")


def hypercube(m: int, name: Optional[str] = None) -> Topology:
    """Binary hypercube; ``m`` must be a power of two (paper topology (b)).

    >>> hypercube(8).n_links, hypercube(8).diameter()
    (12, 3)
    """
    if m < 2 or (m & (m - 1)) != 0:
        raise TopologyError(f"hypercube size must be a power of two, got {m}")
    dim = m.bit_length() - 1
    links = []
    for p in range(m):
        for d in range(dim):
            q = p ^ (1 << d)
            if p < q:
                links.append((p, q))
    return Topology(m, links, name or f"hypercube{m}")


def clique(m: int, name: Optional[str] = None) -> Topology:
    """Fully connected network (paper topology (c)).

    >>> clique(4).n_links
    6
    """
    if m < 2:
        raise TopologyError(f"clique needs >= 2 processors, got {m}")
    links = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return Topology(m, links, name or f"clique{m}")


#: Alias matching the paper's wording "fully-connected network".
fully_connected = clique


def star(m: int, name: Optional[str] = None) -> Topology:
    """Star: processor 0 is the hub.

    >>> star(5).degree(0)
    4
    """
    if m < 2:
        raise TopologyError(f"star needs >= 2 processors, got {m}")
    return Topology(m, [(0, i) for i in range(1, m)], name or f"star{m}")


def mesh2d(rows: int, cols: int, name: Optional[str] = None) -> Topology:
    """2-D mesh of ``rows x cols`` processors.

    >>> mesh2d(2, 3).n_links
    7
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError(f"mesh needs >= 2 processors, got {rows}x{cols}")
    links = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                links.append((p, p + 1))
            if r + 1 < rows:
                links.append((p, p + cols))
    return Topology(rows * cols, links, name or f"mesh{rows}x{cols}")


def torus2d(rows: int, cols: int, name: Optional[str] = None) -> Topology:
    """2-D torus: a ``rows x cols`` mesh with wrap-around links.

    Wrap links are only added when a dimension exceeds 2 (for dimension 2
    the wrap would duplicate the direct mesh link).

    >>> torus2d(3, 3).n_links    # 9 procs, degree 4 each
    18
    """
    if rows < 1 or cols < 1 or rows * cols < 3:
        raise TopologyError(f"torus needs >= 3 processors, got {rows}x{cols}")
    links = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if cols > 1:
                if c + 1 < cols:
                    links.append((p, p + 1))
                elif cols > 2:
                    links.append((p, r * cols))            # row wrap
            if rows > 1:
                if r + 1 < rows:
                    links.append((p, p + cols))
                elif rows > 2:
                    links.append((p, c))                   # column wrap
    return Topology(rows * cols, links, name or f"torus{rows}x{cols}")


def fat_tree(
    m: int,
    branching: int = 2,
    bandwidth_base: float = 2.0,
    duplex: str = "half",
    name: Optional[str] = None,
) -> Topology:
    """Fat tree over ``m`` processors (complete ``branching``-ary tree
    layout, heap indexing): link bandwidth grows by ``bandwidth_base``
    per level toward the root, the classic remedy for root congestion.

    A link between depth-``d`` and depth-``d+1`` nodes has bandwidth
    ``bandwidth_base ** (max_depth - 1 - d)`` so leaf-level links have
    bandwidth 1 and capacity doubles (by default) every level up.

    >>> t = fat_tree(8)
    >>> t.bandwidth(0, 1), t.bandwidth(3, 7)
    (4.0, 1.0)
    """
    if m < 2:
        raise TopologyError(f"fat tree needs >= 2 processors, got {m}")
    if branching < 2:
        raise TopologyError(f"fat tree branching must be >= 2, got {branching}")
    if bandwidth_base <= 0:
        raise TopologyError(f"bandwidth base must be positive, got {bandwidth_base}")

    def depth(i: int) -> int:
        d = 0
        while i > 0:
            i = (i - 1) // branching
            d += 1
        return d

    links = [((i - 1) // branching, i) for i in range(1, m)]
    max_depth = max(depth(i) for i in range(m))
    specs = {
        link_id(parent, child): LinkSpec(
            bandwidth=float(bandwidth_base ** (max_depth - depth(child))),
            duplex=duplex,
        )
        for parent, child in links
    }
    return Topology(
        m, links, name or f"fattree{m}", link_specs=specs,
        default_spec=LinkSpec(duplex=duplex),
    )


def apply_link_model(
    topology: Topology,
    duplex: str = "half",
    bandwidth_skew: float = 1.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> Topology:
    """Overlay a (duplex, bandwidth) model onto an existing topology.

    ``bandwidth_skew > 1`` samples each link's bandwidth independently
    and deterministically from ``U[1, bandwidth_skew]`` (stable per-link
    hashing: the draw for a link does not depend on evaluation order or
    on the other links). ``bandwidth_skew == 1`` keeps each link's
    *existing* bandwidth (so flipping a fat tree to full duplex preserves
    its fat links). ``duplex`` applies to every link. With both at their
    defaults the input topology is returned unchanged (same object).

    >>> t = apply_link_model(ring(4), duplex="full")
    >>> t.name, len(t.channels())
    ('ring4+full', 8)
    """
    if duplex not in DUPLEX_MODES:
        raise TopologyError(f"duplex must be one of {DUPLEX_MODES}, got {duplex!r}")
    if bandwidth_skew < 1.0:
        raise TopologyError(
            f"bandwidth_skew must be >= 1 (got {bandwidth_skew}); "
            "bandwidths are sampled from U[1, skew]"
        )
    if duplex == "half" and bandwidth_skew == 1.0 and topology.all_half_duplex:
        # true no-op: the requested model is already in effect (a
        # full-duplex base must still be converted, so it falls through)
        return topology
    specs = {}
    for lid in topology.links:
        bw = (
            topology.spec(*lid).bandwidth
            if bandwidth_skew == 1.0
            else stable_uniform(seed, ("link-bw", lid), 1.0, bandwidth_skew)
        )
        specs[lid] = LinkSpec(bandwidth=bw, duplex=duplex)
    suffix = f"+{duplex}" if duplex != "half" else ""
    if bandwidth_skew != 1.0:
        suffix += f"+bw{bandwidth_skew:g}"
    return topology.with_link_specs(
        specs, name=name or (topology.name + suffix)
    )


def binary_tree(m: int, name: Optional[str] = None) -> Topology:
    """Complete binary tree layout over ``m`` processors (heap indexing).

    >>> binary_tree(7).neighbors(0)
    [1, 2]
    """
    if m < 2:
        raise TopologyError(f"tree needs >= 2 processors, got {m}")
    links = [(((i + 1) // 2) - 1, i) for i in range(1, m)]
    return Topology(m, links, name or f"tree{m}")


def random_topology(
    m: int,
    min_degree: int = 2,
    max_degree: int = 8,
    seed: int = 0,
    name: Optional[str] = None,
) -> Topology:
    """Random connected topology with per-processor degree in
    ``[min_degree, max_degree]`` (paper topology (d): degrees 2..8).

    Construction: a random spanning tree guarantees connectivity, then
    random extra links are added while respecting ``max_degree``; finally
    processors under ``min_degree`` get extra links where capacity allows.

    >>> t = random_topology(16, 2, 8, seed=0)
    >>> t.n_procs, min(t.degree(p) for p in t.processors) >= 2
    (16, True)
    """
    if m < 2:
        raise TopologyError(f"random topology needs >= 2 processors, got {m}")
    if not (1 <= min_degree <= max_degree):
        raise TopologyError(f"bad degree bounds [{min_degree}, {max_degree}]")
    if max_degree >= m:
        max_degree = m - 1
        min_degree = min(min_degree, max_degree)
    rng = RngStream(seed).fork("random-topology", m, min_degree, max_degree)

    degree = [0] * m
    links: set = set()

    def connect(x: int, y: int) -> bool:
        lid = link_id(x, y)
        if lid in links or x == y:
            return False
        links.add(lid)
        degree[x] += 1
        degree[y] += 1
        return True

    # random spanning tree (random permutation, attach to a random earlier node
    # that still has degree capacity; the root always has capacity early on)
    perm = list(range(m))
    rng.shuffle(perm)
    for i in range(1, m):
        candidates = [p for p in perm[:i] if degree[p] < max_degree]
        if not candidates:
            candidates = perm[:i]  # exceed max_degree rather than disconnect
        connect(perm[i], rng.choice(candidates))

    # densify toward min_degree and sprinkle extra links
    for p in range(m):
        attempts = 0
        while degree[p] < min_degree and attempts < 4 * m:
            q = rng.randint(0, m - 1)
            attempts += 1
            if q != p and degree[q] < max_degree:
                connect(p, q)
    extra_target = rng.randint(0, m)
    for _ in range(extra_target):
        x, y = rng.randint(0, m - 1), rng.randint(0, m - 1)
        if x != y and degree[x] < max_degree and degree[y] < max_degree:
            connect(x, y)

    return Topology(m, sorted(links), name or f"random{m}(seed={seed})")


def paper_topologies(m: int = 16, seed: int = 0) -> "dict[str, Topology]":
    """The four 16-processor topologies used in the paper's evaluation.

    >>> sorted(paper_topologies())
    ['clique', 'hypercube', 'random', 'ring']
    """
    return {
        "ring": ring(m),
        "hypercube": hypercube(m),
        "clique": clique(m),
        "random": random_topology(m, 2, 8, seed=seed),
    }
