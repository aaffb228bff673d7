"""BSA's candidate screen is exact.

The screen prunes first on a one-hop bound, then walks each producer's
route trie only toward the candidates still alive. These properties are
checked at every screen of real BSA runs (schedule states taken
mid-run), over random graphs, topologies and every link model: uniform,
full duplex, bandwidth skew, fat tree, per-link and per-message-link
factors.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bsa import BSAOptions, BSAScheduler
from repro.network.routing import shortest_path, shortest_path_trie
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import (
    apply_link_model,
    fat_tree,
    hypercube,
    link_id,
    random_topology,
    ring,
)
from repro.schedule.linkplan import (
    LinkPlanner,
    committed_arrival_bounds,
    one_hop_arrival_bounds,
)
from repro.util.intervals import hotpath_mode, set_hotpath_mode
from repro.util.tolerance import EPS
from repro.workloads.granularity import apply_granularity
from repro.workloads.random_graphs import random_layered_graph

LINK_MODELS = ("uniform", "full_duplex", "bandwidth_skew", "fat_tree",
               "per_link", "per_message_link")


@pytest.fixture(autouse=True, scope="module")
def incremental_engine():
    """The legacy oracle evaluates every candidate and never screens."""
    before = hotpath_mode()
    set_hotpath_mode("incremental")
    yield
    set_hotpath_mode(before)


def make_system(n: int, seed: int, gran: float, topo: str,
                link_model: str) -> HeterogeneousSystem:
    graph = random_layered_graph(n, seed=seed)
    apply_granularity(graph, gran, seed=seed)
    if link_model == "fat_tree":
        topology = fat_tree(8)
    else:
        topology = {"ring": ring(6), "hypercube": hypercube(8),
                    "random": random_topology(8, 2, 4, seed=seed)}[topo]
    if link_model == "full_duplex":
        topology = apply_link_model(topology, duplex="full")
    elif link_model == "bandwidth_skew":
        topology = apply_link_model(topology, bandwidth_skew=4.0, seed=seed)
    link_het = (1.0, 5.0) if link_model == "per_message_link" else None
    system = HeterogeneousSystem.sample(graph, topology, het_range=(1, 10),
                                        link_het_range=link_het, seed=seed)
    if link_model == "per_link":
        system = HeterogeneousSystem(
            graph, topology,
            {t: system.exec_cost_row(t) for t in graph.tasks()},
            link_mode=LinkHeterogeneity.PER_LINK,
            per_link_factors={lid: 1.0 + 0.5 * (i % 4)
                              for i, lid in enumerate(topology.links)},
        )
    return system


def full_screen(sched, task, neighbors, vip_proc):
    """The screen without its shortcuts: every producer's whole trie,
    max over producers, then the mask."""
    system = sched.system
    topology = system.topology
    lbs = [0.0] * topology.n_procs
    for k in system.graph.predecessors(task):
        trie = shortest_path_trie(topology, sched.slots[k].proc)
        for p, b in enumerate(
                committed_arrival_bounds(sched, (k, task), trie, {})):
            if b > lbs[p]:
                lbs[p] = b
    exec_row = system.exec_cost_row(task)
    current_ft = sched.slots[task].finish
    kept = []
    for nb in neighbors:
        bound = lbs[nb] + exec_row[nb]
        if bound < current_ft or (nb == vip_proc and bound <= current_ft + 2 * EPS):
            kept.append((bound, nb))
    return sorted(kept)


def check_bounds(sched, task, targets):
    """The one-hop bound never exceeds the walk, and the restricted walk
    is the full walk at every target, message by message and in the max."""
    system = sched.system
    topology = system.topology
    n = topology.n_procs
    uniform = system.uniform_hops
    pred_info = []
    walk_max = [0.0] * n
    for k in system.graph.predecessors(task):
        edge = (k, task)
        info = (sched.slots[k].proc, sched.slots[k].finish,
                system.graph.comm_cost(k, task))
        pred_info.append(info)
        trie = shortest_path_trie(topology, info[0])
        walk = committed_arrival_bounds(sched, edge, trie, {})
        part = committed_arrival_bounds(sched, edge, trie, {}, targets)
        one = one_hop_arrival_bounds([info], n, uniform)
        for p in range(n):
            if p in targets:
                assert part[p].hex() == walk[p].hex(), (edge, p)
            assert part[p] <= walk[p], (edge, p)
            assert one[p] <= walk[p], (edge, p)
            walk_max[p] = max(walk_max[p], walk[p])
    one_hop = one_hop_arrival_bounds(pred_info, n, uniform)
    # the O(predecessors + processors) kernel against its definition
    expected = [
        max([0.0] + [f if q == p or not uniform else f + c
                     for q, f, c in pred_info])
        for p in range(n)
    ]
    assert one_hop == expected
    assert all(one_hop[p] <= walk_max[p] for p in range(n))


def check_hop_durations(sched, task):
    """Every hop duration walk_path plans, and every hop set_route wrote,
    is ``comm_cost(edge, link)`` exactly."""
    system = sched.system
    planner = LinkPlanner(sched, insertion=True)
    durations = []
    reserve = planner.reserve
    planner.reserve = lambda ch, ready, d: (durations.append(d),
                                            reserve(ch, ready, d))[1]
    for k in system.graph.predecessors(task):
        src = sched.slots[k].proc
        for dst in system.topology.processors:
            if dst == src:
                continue
            path = shortest_path(system.topology, src, dst)
            del durations[:]
            planner.walk_path((k, task), path, sched.slots[k].finish)
            assert durations == [system.comm_cost((k, task), link_id(a, b))
                                 for a, b in zip(path, path[1:])]
    for edge, route in sched.routes.items():
        for hop in route.hops:
            assert hop.cost == system.comm_cost(edge, hop.link)


class ProbedBSA(BSAScheduler):
    """BSA that checks the screen's properties at every screen it runs."""

    def __init__(self, system, targets_mask):
        super().__init__(system, BSAOptions(n_sweeps=1))
        self.targets_mask = targets_mask
        self.screens = 0

    def _screen_candidates(self, sched, task, neighbors, vip_proc):
        self.screens += 1
        bounds = super()._screen_candidates(sched, task, neighbors, vip_proc)
        assert bounds == full_screen(sched, task, neighbors, vip_proc)
        targets = [p for p in sched.system.topology.processors
                   if self.targets_mask >> p & 1]
        check_bounds(sched, task, targets)
        check_hop_durations(sched, task)
        return bounds


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 24), seed=st.integers(0, 5_000),
       gran=st.sampled_from([0.1, 1.0, 10.0]),
       topo=st.sampled_from(["ring", "hypercube", "random"]),
       link_model=st.sampled_from(LINK_MODELS),
       targets_mask=st.integers(0, 255))
def test_screen_exact_mid_bsa(n, seed, gran, topo, link_model, targets_mask):
    system = make_system(n, seed, gran, topo, link_model)
    scheduler = ProbedBSA(system, targets_mask)
    scheduler.run()
    assert scheduler.screens == scheduler.stats.n_examined > 0
    assert scheduler.stats.n_walks_skipped <= scheduler.stats.n_examined


@pytest.mark.parametrize("link_model", LINK_MODELS)
def test_uniform_hops_exactly_homogeneous_unit_bandwidth(link_model):
    system = make_system(12, 3, 1.0, "ring", link_model)
    topology = system.topology
    expected = (system.link_mode is LinkHeterogeneity.HOMOGENEOUS
                and all(topology.bandwidth(*lid) == 1.0
                        for lid in topology.links))
    assert system.uniform_hops == expected
    assert expected == (link_model in ("uniform", "full_duplex"))


def test_per_link_unit_factors_are_not_uniform_hops():
    """The fact names the link model, not the factor values."""
    system = make_system(12, 3, 1.0, "ring", "uniform")
    topology = system.topology
    unit = HeterogeneousSystem(
        system.graph, topology,
        {t: system.exec_cost_row(t) for t in system.graph.tasks()},
        link_mode=LinkHeterogeneity.PER_LINK,
        per_link_factors={lid: 1.0 for lid in topology.links},
    )
    assert system.uniform_hops and not unit.uniform_hops
