"""Static routing: BFS shortest-path tables and E-cube (hypercube) routes.

The DLS baseline (and any routing-table scheduler) needs a pre-determined
route between every processor pair, exactly as the paper describes:
"the routing table has to be pre-determined, usually using shortest-path
algorithm, for the input target topology". We use BFS (all links count one
hop) with deterministic lexicographic tie-breaking, so tables are stable
across runs.

The paper also names **E-cube routing** as the canonical *static* policy
on hypercubes ("such as a hypercube that uses the E-cube routing
method"); :func:`ecube_path` implements it (dimension-ordered: correct
address bits from least-significant upward), and
``RoutingTable(topology, strategy="ecube")`` builds a table from it.

BSA deliberately needs *no* routing table — routes emerge from migration
over on-demand :func:`shortest_path` routes. The list schedulers route
every message over a table, and the earliest-finish screen of HEFT, CPOP
and spdecomp walks the table's routes merged into one trie per source
(:meth:`RoutingTable.trie`). The validator checks route contiguity and
timing only; it never builds a table.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.network.topology import Link, Proc, Topology, link_id
from repro.obs import counters as _obs

#: ``(parents, channels, links, dst_node)`` — see :func:`shortest_path_trie`
PathTrie = Tuple[List[int], List[Link], List[Link], List[int]]


class RoutingTable:
    """All-pairs next-hop table over a topology.

    ``strategy="bfs"`` (default) uses breadth-first shortest paths on any
    topology; ``strategy="ecube"`` uses dimension-ordered E-cube routing
    and requires a hypercube (every ``p ^ (1 << d)`` neighbor present);
    ``strategy="weighted"`` is cost-aware: Dijkstra over per-hop transfer
    time ``1 / bandwidth(link)``, so routes prefer fat links (ties break
    toward fewer hops, then lexicographically — deterministic tables).
    On a uniform-bandwidth topology "weighted" degrades to the BFS hop
    metric (identical hop counts; equal-length ties may resolve to a
    different route than BFS's discovery order).
    """

    STRATEGIES = ("bfs", "ecube", "weighted")

    def __init__(self, topology: Topology, strategy: str = "bfs"):
        if strategy not in self.STRATEGIES:
            raise RoutingError(f"unknown routing strategy {strategy!r}")
        self.topology = topology
        self.strategy = strategy
        # next_hop[src][dst] -> neighbor of src on the chosen shortest path
        self._next: Dict[Proc, Dict[Proc, Proc]] = {}
        # materialized-path memo (the table is immutable), in both modes
        self._path_cache: Dict[Tuple[Proc, Proc], List[Proc]] = {}
        self._trie_cache: Dict[Proc, PathTrie] = {}
        self._hop_rows: Dict[Proc, List[int]] = {}
        if strategy == "ecube":
            _check_hypercube(topology)
            for src in topology.processors:
                self._next[src] = {}
                for dst in topology.processors:
                    if src != dst:
                        self._next[src][dst] = _ecube_next_hop(src, dst)
        elif strategy == "weighted":
            for dst in topology.processors:
                self._build_to_weighted(dst)
        else:
            for dst in topology.processors:
                self._build_to(dst)

    def _build_to(self, dst: Proc) -> None:
        """BFS from ``dst``; parents give next hops toward ``dst``."""
        dist: Dict[Proc, int] = {dst: 0}
        toward: Dict[Proc, Proc] = {}
        frontier = [dst]
        while frontier:
            nxt: List[Proc] = []
            for p in frontier:
                for q in self.topology.neighbors(p):  # sorted => deterministic
                    if q not in dist:
                        dist[q] = dist[p] + 1
                        toward[q] = p
                        nxt.append(q)
            frontier = nxt
        for src, hop in toward.items():
            self._next.setdefault(src, {})[dst] = hop
        self._next.setdefault(dst, {})

    def _build_to_weighted(self, dst: Proc) -> None:
        """Dijkstra from ``dst`` over per-hop time ``1 / bandwidth``.

        Labels are ``(time, hops, proc)`` tuples, so equal-time routes
        prefer fewer hops and then the lexicographically smallest next
        hop — the table is deterministic for a fixed topology.
        """
        import heapq

        topo = self.topology
        best: Dict[Proc, Tuple[float, int]] = {dst: (0.0, 0)}
        toward: Dict[Proc, Proc] = {}
        heap: List[Tuple[float, int, Proc]] = [(0.0, 0, dst)]
        while heap:
            t, h, p = heapq.heappop(heap)
            if (t, h) != best.get(p):
                continue  # stale entry
            for q in topo.neighbors(p):  # sorted => deterministic
                cand = (t + 1.0 / topo.bandwidth(p, q), h + 1)
                cur = best.get(q)
                if cur is None or cand < cur or (cand == cur and p < toward[q]):
                    best[q] = cand
                    toward[q] = p
                    heapq.heappush(heap, (cand[0], cand[1], q))
        for src, hop in toward.items():
            self._next.setdefault(src, {})[dst] = hop
        self._next.setdefault(dst, {})

    def next_hop(self, src: Proc, dst: Proc) -> Proc:
        if src == dst:
            raise RoutingError(f"no hop needed from {src} to itself")
        try:
            return self._next[src][dst]
        except KeyError:
            raise RoutingError(f"no route from {src} to {dst}") from None

    def path(self, src: Proc, dst: Proc) -> List[Proc]:
        """Processor sequence ``src .. dst`` (length 1 when src == dst).

        The materialized list is memoized in both engine modes: the
        table never changes after construction, so the memo is exact.
        The shared list must not be mutated by callers.
        """
        if src == dst:
            return [src]
        hit = self._path_cache.get((src, dst))
        if hit is not None:
            return hit
        path = [src]
        cur = src
        while cur != dst:
            cur = self.next_hop(cur, dst)
            path.append(cur)
            if len(path) > self.topology.n_procs:
                raise RoutingError(f"routing loop from {src} to {dst}")
        self._path_cache[(src, dst)] = path
        return path

    def hop_distance(self, src: Proc, dst: Proc) -> int:
        return len(self.path(src, dst)) - 1

    def hop_row(self, src: Proc) -> List[int]:
        """Hop count of this table's route from ``src`` to every
        processor (0 at ``src``). Memoized per table, like :meth:`trie`;
        shared, do not mutate."""
        row = self._hop_rows.get(src)
        if row is None:
            row = self._hop_rows[src] = [self.hop_distance(src, dst)
                                         for dst in self.topology.processors]
        return row

    def trie(self, src: Proc) -> PathTrie:
        """This table's routes from ``src``, merged by shared prefix into
        one trie (layout as :func:`shortest_path_trie`). Table routes may
        differ from :func:`shortest_path` (BFS breaks ties from the
        destination), so a screen that bounds table-routed plans must
        walk this trie. Memoized per table; shared, do not mutate."""
        return _memo_trie(self._trie_cache, self.topology, src,
                          lambda _topology, a, b: self.path(a, b))


def shortest_path(topology: Topology, src: Proc, dst: Proc) -> List[Proc]:
    """BFS shortest path (for callers that don't keep a table).

    Paths are memoized per topology *instance* in both engine modes (the
    cache lives on the topology object, so it follows topology identity
    and can never leak across systems). Topologies are immutable after
    construction, which makes the memo exact. A miss runs one BFS from
    ``src`` and memoizes the path to every processor it reaches: the
    discovery order does not depend on the destination, so each path is
    :func:`alive_path`'s. The returned list is shared — callers must not
    mutate it.
    """
    if src == dst:
        return [src]
    cache: Dict[Tuple[Proc, Proc], List[Proc]] = topology.__dict__.setdefault(
        "_sp_cache", {}
    )
    path = cache.get((src, dst))
    if path is None:
        seen = {src}
        queue = deque([src])
        while queue:
            p = queue.popleft()
            base = cache[(src, p)] if p != src else [src]
            for q in topology.neighbors(p):
                if q not in seen:
                    seen.add(q)
                    cache[(src, q)] = base + [q]
                    queue.append(q)
        path = cache.get((src, dst))
        if path is None:
            raise RoutingError(f"no route from {src} to {dst}")
    return path


def shortest_path_trie(topology: Topology, src: Proc) -> PathTrie:
    """The :func:`shortest_path` routes from ``src`` to every other
    processor, merged by shared prefix into one trie.

    Returns ``(parents, channels, links, dst_node)`` parallel lists:
    node ``k`` is one directed hop whose message leaves the finish of
    node ``parents[k]`` (or the producer, for roots ``-1``), reserves on
    channel ``channels[k]`` and costs the message's hop duration on
    canonical link ``links[k]``; ``dst_node[d]`` is the terminal node of
    the route to ``d`` (``-1`` for ``src`` itself). Nodes are keyed by
    (parent node, hop), so identical prefixes yield identical float
    chains and merging them loses nothing — no path-consistency
    assumption is needed. Memoized per topology instance next to the
    path memo (tries depend only on the topology); shared, do not mutate.
    """
    cache: Dict[Proc, PathTrie] = topology.__dict__.setdefault("_trie_cache", {})
    return _memo_trie(cache, topology, src, shortest_path)


def _memo_trie(
    cache: Dict[Proc, PathTrie],
    topology: Topology,
    src: Proc,
    path: Callable[[Topology, Proc, Proc], List[Proc]],
) -> PathTrie:
    """``cache[src]``, built on a miss by merging ``path(topology, src,
    dst)`` for every ``dst`` by shared prefix."""
    trie = cache.get(src)
    if trie is not None:
        if _obs.ACTIVE:
            _obs.inc("route.trie_hits")
        return trie
    if _obs.ACTIVE:
        _obs.inc("route.trie_misses")
    channel_of = topology._channel
    parents: List[int] = []
    channels: List[Link] = []
    links: List[Link] = []
    dst_node = [-1] * topology.n_procs
    index: Dict[Tuple[int, Proc, Proc], int] = {}
    for dst in topology.processors:
        if dst == src:
            continue
        node = -1
        route = path(topology, src, dst)
        for a, b in zip(route, route[1:]):
            key = (node, a, b)
            nxt = index.get(key)
            if nxt is None:
                nxt = index[key] = len(parents)
                parents.append(node)
                channels.append(channel_of[(a, b)])
                links.append((a, b) if a < b else (b, a))
            node = nxt
        dst_node[dst] = node
    trie = cache[src] = (parents, channels, links, dst_node)
    return trie


def alive_path(
    topology: Topology, src: Proc, dst: Proc, dead_procs=(), dead_links=()
) -> Optional[List[Proc]]:
    """Shortest alive path from ``src`` to ``dst``, or ``None``.

    Deterministic BFS: sorted neighbor order, first discovery wins, so
    memoized and unmemoized paths are identical. ``src`` may be dead —
    data already resident on a failed processor is allowed to drain off
    it — but every other node on the path, including ``dst``, must be
    alive, and no hop may use a dead link.
    """
    if dst in dead_procs:
        return None
    if src == dst:
        return [src]
    prev: Dict[Proc, Optional[Proc]] = {src: None}
    queue = deque([src])
    while queue:
        p = queue.popleft()
        for q in topology.neighbors(p):
            if q in prev or q in dead_procs:
                continue
            if dead_links and link_id(p, q) in dead_links:
                continue
            prev[q] = p
            if q == dst:
                path = [q]
                while p is not None:
                    path.append(p)
                    p = prev[p]
                path.reverse()
                return path
            queue.append(q)
    return None


def build_routing_table(topology: Topology, strategy: str = "bfs") -> RoutingTable:
    """Convenience constructor mirroring the paper's wording."""
    return RoutingTable(topology, strategy=strategy)


# ----------------------------------------------------------------------
# E-cube (dimension-ordered) routing for hypercubes
# ----------------------------------------------------------------------

def _check_hypercube(topology: Topology) -> None:
    m = topology.n_procs
    if m < 2 or (m & (m - 1)) != 0:
        raise RoutingError(
            f"E-cube routing needs a power-of-two hypercube, got {m} processors"
        )
    dim = m.bit_length() - 1
    for p in range(m):
        for d in range(dim):
            if not topology.has_link(p, p ^ (1 << d)):
                raise RoutingError(
                    f"topology {topology.name!r} is not a hypercube: "
                    f"missing link ({p}, {p ^ (1 << d)})"
                )


def _ecube_next_hop(src: Proc, dst: Proc) -> Proc:
    """Correct the least-significant differing address bit."""
    diff = src ^ dst
    lowest = diff & -diff
    return src ^ lowest


def ecube_path(topology: Topology, src: Proc, dst: Proc) -> List[Proc]:
    """Dimension-ordered E-cube route on a hypercube.

    Deterministic, deadlock-free, and exactly ``popcount(src ^ dst)`` hops
    — the static policy the paper names for hypercubes.
    """
    _check_hypercube(topology)
    path = [src]
    cur = src
    while cur != dst:
        cur = _ecube_next_hop(cur, dst)
        path.append(cur)
    return path
