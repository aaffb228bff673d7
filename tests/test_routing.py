"""Tests for BFS routing tables."""

import pytest

from repro import RoutingTable, clique, hypercube, ring
from repro.errors import RoutingError
from repro.experiments.runner import build_topology
from repro.network.routing import alive_path, shortest_path, shortest_path_trie
from repro.network.topology import random_topology


class TestRoutingTable:
    def test_ring_paths(self):
        table = RoutingTable(ring(8))
        assert table.path(0, 0) == [0]
        assert table.path(0, 2) == [0, 1, 2]
        assert table.hop_distance(0, 4) == 4
        # the short way around
        assert table.path(0, 6) == [0, 7, 6]

    def test_clique_one_hop(self):
        table = RoutingTable(clique(6))
        for a in range(6):
            for b in range(6):
                if a != b:
                    assert table.path(a, b) == [a, b]

    def test_hypercube_distance_is_popcount(self):
        table = RoutingTable(hypercube(16))
        for a in range(16):
            for b in range(16):
                if a != b:
                    assert table.hop_distance(a, b) == bin(a ^ b).count("1")

    def test_next_hop_self_rejected(self):
        table = RoutingTable(ring(4))
        with pytest.raises(RoutingError):
            table.next_hop(1, 1)

    def test_paths_are_shortest_on_random_topologies(self):
        for seed in range(3):
            topo = random_topology(12, 2, 5, seed=seed)
            table = RoutingTable(topo)
            for a in topo.processors:
                for b in topo.processors:
                    if a == b:
                        continue
                    assert table.hop_distance(a, b) == len(shortest_path(topo, a, b)) - 1

    def test_deterministic(self):
        t1 = RoutingTable(ring(8))
        t2 = RoutingTable(ring(8))
        for a in range(8):
            for b in range(8):
                if a != b:
                    assert t1.path(a, b) == t2.path(a, b)


class TestShortestPath:
    def test_endpoints(self):
        topo = hypercube(8)
        path = shortest_path(topo, 0, 7)
        assert path[0] == 0 and path[-1] == 7
        assert len(path) == 4  # 3 hops
        for a, b in zip(path, path[1:]):
            assert topo.has_link(a, b)

    def test_same_node(self):
        assert shortest_path(ring(4), 2, 2) == [2]

    @pytest.mark.parametrize("name", ["ring", "torus", "hypercube",
                                      "random", "fattree"])
    def test_memo_equals_alive_path(self, name):
        """One BFS per source fills the memo for every destination, and
        every memoized path is the one :func:`alive_path` finds for that
        destination alone."""
        topo = build_topology(name, 16, seed=0)
        for src in topo.processors:
            shortest_path(topo, src, (src + 1) % topo.n_procs)
            for dst in topo.processors:
                if dst != src:
                    assert topo._sp_cache[(src, dst)] == alive_path(
                        topo, src, dst)
        assert len(topo._sp_cache) == topo.n_procs * (topo.n_procs - 1)
        for (src, dst), path in topo._sp_cache.items():
            assert shortest_path(topo, src, dst) is path


def _trie_route(trie, src, dst):
    """The processor sequence a route trie stores for ``src -> dst``,
    rebuilt from its hops; also checks each hop's channel."""
    parents, channels, links, dst_node = trie
    nodes = []
    node = dst_node[dst]
    while node >= 0:
        nodes.append(node)
        node = parents[node]
    route = [src]
    for node in reversed(nodes):
        a, b = links[node]
        assert route[-1] in (a, b)
        route.append(b if route[-1] == a else a)
    return route, [channels[n] for n in reversed(nodes)]


TRIE_CASES = [
    (name, strategy)
    for name in ("ring", "random", "torus", "fattree", "hypercube")
    for strategy in ("bfs", "weighted")
] + [("hypercube", "ecube")]


class TestRouteTrie:
    @pytest.mark.parametrize("name,strategy", TRIE_CASES)
    def test_table_trie_reproduces_table_paths(self, name, strategy):
        """The list schedulers' screen walks ``table.trie(src)`` in place
        of ``table.path(src, dst)``: every route must match hop for hop,
        channels included."""
        topo = build_topology(name, 16, seed=0)
        table = RoutingTable(topo, strategy=strategy)
        for src in topo.processors:
            trie = table.trie(src)
            assert trie is table.trie(src)  # memoized per table
            for dst in topo.processors:
                if dst == src:
                    assert trie[3][dst] == -1
                    continue
                route, channels = _trie_route(trie, src, dst)
                path = table.path(src, dst)
                assert route == path
                assert channels == [topo._channel[(a, b)]
                                    for a, b in zip(path, path[1:])]

    def test_ring16_table_routes_are_not_shortest_path_routes(self):
        """BFS tables break ties from the destination, ``shortest_path``
        from the source: on ring-16 some equal-length routes differ, so
        a trie built from ``shortest_path`` would fail the test above."""
        topo = ring(16)
        table = RoutingTable(topo)
        differ = [(a, b) for a in topo.processors for b in topo.processors
                  if table.path(a, b) != shortest_path(topo, a, b)]
        assert differ
        for a, b in differ:
            route, _ = _trie_route(shortest_path_trie(topo, a), a, b)
            assert route != table.path(a, b)
