"""The list schedulers' earliest-finish screen and bounds are exact.

``place_earliest_finish`` (HEFT, CPOP, spdecomp) prunes first on a
one-hop bound, plans the best-bounded processor as the incumbent, then
walks each producer's routing-table trie only toward the processors
still alive. Hops are priced from the system's per-link table, and the
DLS/ETF queue's bound (and BSA's append-slot fallback) reads
per-source hop-distance rows. These
properties are checked at every placement of real runs (schedule states
taken mid-run), over random graphs, three topologies and every link
model: uniform, full duplex, bandwidth skew, fat tree, per-link factors
(over skewed bandwidths, so factor and bandwidth both matter) and
per-message-link factors.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.common import ListScheduleBuilder
from repro.baselines.cpop import schedule_cpop
from repro.baselines.dls import schedule_dls
from repro.baselines.etf import schedule_etf
from repro.baselines.heft import schedule_heft
from repro.baselines.spdecomp import schedule_spdecomp
from repro.core.bsa import BSAOptions, BSAScheduler
from repro.errors import ConfigurationError
from repro.network.routing import shortest_path
from repro.network.system import HeterogeneousSystem, LinkHeterogeneity
from repro.network.topology import link_id
from repro.schedule.linkplan import (
    LinkPlanner,
    committed_arrival_bounds,
    one_hop_arrival_bounds,
)
from repro.util.intervals import hotpath_mode, set_hotpath_mode
from tests.test_candidate_screen import LINK_MODELS
from tests.test_candidate_screen import make_system as make_bsa_system

EARLIEST_FINISH = {"heft": schedule_heft, "cpop": schedule_cpop,
                   "spdecomp": schedule_spdecomp}
READY_PAIRS = {"dls": schedule_dls, "etf": schedule_etf}


@pytest.fixture(autouse=True, scope="module")
def incremental_engine():
    """The legacy oracle plans every processor and never screens."""
    before = hotpath_mode()
    set_hotpath_mode("incremental")
    yield
    set_hotpath_mode(before)


def make_system(n: int, seed: int, gran: float, topo: str,
                link_model: str) -> HeterogeneousSystem:
    """The BSA screen test's systems, with the per-link factors laid over
    skewed bandwidths."""
    if link_model != "per_link":
        return make_bsa_system(n, seed, gran, topo, link_model)
    base = make_bsa_system(n, seed, gran, topo, "bandwidth_skew")
    return HeterogeneousSystem(
        base.graph, base.topology,
        {t: base.exec_cost_row(t) for t in base.graph.tasks()},
        link_mode=LinkHeterogeneity.PER_LINK,
        per_link_factors={lid: 1.0 + 0.3 * (i % 5)
                          for i, lid in enumerate(base.topology.links)},
    )


def exhaustive_choice(b: ListScheduleBuilder, task, tail) -> int:
    """The processor the unscreened loop picks: the least exact
    ``(score, proc)``."""
    system = b.system
    exec_row = system.exec_cost_row(task)
    best = None
    for p in system.topology.processors:
        da, _ = b.plan_messages(task, p)
        score = (b.earliest_start(task, p, da) + exec_row[p]
                 + sum(system.exec_cost(m, p) for m in tail))
        if best is None or (score, p) < best:
            best = (score, p)
    return best[1]


def check_bounds(b: ListScheduleBuilder, task, targets) -> None:
    """Message by message: the one-hop bound is at most the restricted
    walk, which is the full walk at every target and at most the planned
    arrival everywhere."""
    system = b.system
    sched = b.sched
    n = system.topology.n_procs
    planned = {p: {plan.edge: plan.arrival
                   for plan in b.plan_messages(task, p)[1]}
               for p in system.topology.processors}
    for k in system.graph.predecessors(task):
        edge = (k, task)
        src = sched.proc_of(k)
        info = (src, sched.slots[k].finish, system.graph.comm_cost(k, task))
        trie = b.routing.trie(src)
        walk = committed_arrival_bounds(sched, edge, trie, {})
        part = committed_arrival_bounds(sched, edge, trie, {}, targets)
        one = one_hop_arrival_bounds([info], n, system.uniform_hops)
        for p in range(n):
            if p in targets:
                assert one[p] <= part[p], (edge, p)
                assert part[p].hex() == walk[p].hex(), (edge, p)
            assert part[p] <= walk[p] <= planned[p][edge], (edge, p)
            assert one[p] <= walk[p], (edge, p)


def check_hop_prices(b: ListScheduleBuilder, task) -> None:
    """Every table price, every hop ``walk_path`` plans and every hop
    ``set_route`` wrote is ``comm_cost(edge, link)`` bit for bit."""
    system = b.system
    topology = system.topology
    prices = system.hop_prices
    assert (prices is None) == (
        system.link_mode is LinkHeterogeneity.PER_MESSAGE_LINK)
    planner = LinkPlanner(b.sched, insertion=True)
    durations = []
    reserve = planner.reserve
    planner.reserve = lambda ch, ready, d: (durations.append(d),
                                            reserve(ch, ready, d))[1]
    for k in system.graph.predecessors(task):
        edge = (k, task)
        c = system.graph.comm_cost(k, task)
        for lid in topology.links:
            exact = system.comm_cost(edge, lid).hex()
            assert system.hop_cost(edge, lid).hex() == exact
            if prices is not None:
                factor, bandwidth = prices[lid]
                assert (factor * c / bandwidth).hex() == exact
        src = b.sched.proc_of(k)
        for dst in topology.processors:
            if dst == src:
                continue
            path = b.routing.path(src, dst)
            del durations[:]
            planner.walk_path(edge, path, 0.0)
            assert [d.hex() for d in durations] == [
                system.comm_cost(edge, link_id(x, y)).hex()
                for x, y in zip(path, path[1:])]
    for edge, route in b.sched.routes.items():
        for hop in route.hops:
            assert hop.cost.hex() == system.comm_cost(edge, hop.link).hex()


def arrival_lower_bound(pred_info, dst, hop_distance=None) -> float:
    """The queue-free bound's definition at one processor: per message
    ``(producer proc, finish, c)``, ``finish + c + ... + c`` over
    ``hop_distance(proc, dst)`` hops (given only under uniform hops),
    else the finish; then the max."""
    lb = 0.0
    for p, f, c in pred_info:
        if hop_distance is not None and p != dst:
            for _ in range(hop_distance(p, dst)):
                f = f + c
        if f > lb:
            lb = f
    return lb


def check_chain_bounds(system, sched, task, lbs, hop_distance) -> None:
    pred_info = [(sched.slots[k].proc, sched.slots[k].finish,
                  system.graph.comm_cost(k, task))
                 for k in system.graph.predecessors(task)]
    if not system.uniform_hops:
        hop_distance = None
    assert [x.hex() for x in lbs] == [
        arrival_lower_bound(pred_info, p, hop_distance).hex()
        for p in system.topology.processors]


class Probe:
    """Wraps the builder's argmins to check the properties above at
    every placement and every ready-pair bound."""

    def __init__(self, targets_mask: int):
        self.targets_mask = targets_mask
        self.placements = 0
        self.bounds = 0

    def place_earliest_finish(self, original):
        def probed(b, task, tail=()):
            self.placements += 1
            expected = exhaustive_choice(b, task, tail)
            targets = [p for p in b.system.topology.processors
                       if self.targets_mask >> p & 1]
            check_bounds(b, task, targets)
            check_hop_prices(b, task)
            proc = original(b, task, tail)
            assert proc == expected
            return proc
        return probed

    def queue_free_arrival_bounds(self, original):
        def probed(b, task):
            self.bounds += 1
            lbs = original(b, task)
            check_chain_bounds(b.system, b.sched, task, lbs,
                               b.routing.hop_distance)
            return lbs
        return probed


def run_probed(schedule, system, targets_mask):
    probe = Probe(targets_mask)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("place_earliest_finish", "queue_free_arrival_bounds"):
            original = getattr(ListScheduleBuilder, name)
            mp.setattr(ListScheduleBuilder, name,
                       getattr(probe, name)(original))
        schedule(system)
    return probe


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 20), seed=st.integers(0, 5_000),
       gran=st.sampled_from([0.1, 1.0, 10.0]),
       topo=st.sampled_from(["ring", "hypercube", "random"]),
       link_model=st.sampled_from(LINK_MODELS),
       algorithm=st.sampled_from(sorted(EARLIEST_FINISH)),
       targets_mask=st.integers(0, 255))
def test_earliest_finish_screen_exact(n, seed, gran, topo, link_model,
                                      algorithm, targets_mask):
    system = make_system(n, seed, gran, topo, link_model)
    probe = run_probed(EARLIEST_FINISH[algorithm], system, targets_mask)
    if algorithm == "heft":  # CPOP places its critical path directly
        assert probe.placements == system.graph.n_tasks
    # only PER_MESSAGE_LINK fills the (edge, link) memo
    if system.link_mode is not LinkHeterogeneity.PER_MESSAGE_LINK:
        assert not system._comm_cache


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 20), seed=st.integers(0, 5_000),
       gran=st.sampled_from([0.1, 1.0, 10.0]),
       topo=st.sampled_from(["ring", "hypercube", "random"]),
       link_model=st.sampled_from(LINK_MODELS),
       algorithm=st.sampled_from(sorted(READY_PAIRS)))
def test_ready_pair_chain_bounds_exact(n, seed, gran, topo, link_model,
                                       algorithm):
    system = make_system(n, seed, gran, topo, link_model)
    probe = run_probed(READY_PAIRS[algorithm], system, 0)
    assert probe.bounds == system.graph.n_tasks


class FallbackProbedBSA(BSAScheduler):
    """BSA whose fallback bound (append slots) is checked at every
    call against the per-processor definition over shortest paths."""

    calls = 0

    def _drt_lower_bounds(self, sched, task):
        self.calls += 1
        lbs = super()._drt_lower_bounds(sched, task)
        topology = self.system.topology
        check_chain_bounds(
            self.system, sched, task, lbs,
            lambda p, q: len(shortest_path(topology, p, q)) - 1)
        return lbs


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 16), seed=st.integers(0, 5_000),
       gran=st.sampled_from([0.1, 1.0, 10.0]),
       topo=st.sampled_from(["ring", "hypercube", "random"]),
       link_model=st.sampled_from(LINK_MODELS))
def test_bsa_fallback_chain_bounds_exact(n, seed, gran, topo, link_model):
    system = make_system(n, seed, gran, topo, link_model)
    scheduler = FallbackProbedBSA(system, BSAOptions(n_sweeps=1,
                                                     insertion=False))
    scheduler.run()
    assert scheduler.calls == scheduler.stats.n_examined


@pytest.mark.parametrize("link_model", LINK_MODELS)
def test_price_table_only_where_factors_ignore_the_message(link_model):
    system = make_system(12, 3, 1.0, "ring", link_model)
    assert (system.hop_prices is None) == (link_model == "per_message_link")


def test_per_link_missing_factor_fails_when_used():
    """Without a factor for every link there is no table, and a hop over
    the missing link raises as ``comm_cost`` always did."""
    system = make_system(12, 3, 1.0, "ring", "per_link")
    factors = {lid: 2.0 for lid in system.topology.links[1:]}
    partial = HeterogeneousSystem(
        system.graph, system.topology,
        {t: system.exec_cost_row(t) for t in system.graph.tasks()},
        link_mode=LinkHeterogeneity.PER_LINK, per_link_factors=factors)
    assert partial.hop_prices is None
    edge = next(iter(system.graph.edges()))
    with pytest.raises(ConfigurationError, match="no factor for link"):
        partial.hop_cost(edge, system.topology.links[0])
