"""Heterogeneous link model: LinkSpec, duplex channels, bandwidth,
new topology builders (torus / fat tree), cost-aware routing, and the
duplex-aware validator.
"""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.network.routing import RoutingTable, shortest_path
from repro.network.system import HeterogeneousSystem
from repro.network.topology import (
    DEFAULT_LINK_SPEC,
    LinkSpec,
    Topology,
    apply_link_model,
    chain,
    fat_tree,
    ring,
    torus2d,
)
from repro.graph.model import TaskGraph
from repro.schedule.schedule import Schedule
from repro.schedule.settle import settle
from repro.schedule.io import schedule_from_dict, schedule_to_dict
from repro.schedule.validator import schedule_violations, validate_schedule
from repro.util.tolerance import EPS, TOL


# ----------------------------------------------------------------------
# LinkSpec & Topology accessors
# ----------------------------------------------------------------------

class TestLinkSpec:
    def test_defaults(self):
        assert DEFAULT_LINK_SPEC == LinkSpec(bandwidth=1.0, duplex="half")

    def test_validation(self):
        with pytest.raises(TopologyError):
            LinkSpec(bandwidth=0.0)
        with pytest.raises(TopologyError):
            LinkSpec(bandwidth=-2.0)
        with pytest.raises(TopologyError):
            LinkSpec(duplex="simplex")

    def test_roundtrip(self):
        spec = LinkSpec(bandwidth=3.5, duplex="full")
        assert LinkSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("doc,field", [
        ([2.0, "half"], "link spec must be an object"),
        ({"bandwidth": "2"}, "'bandwidth'"),
        ({"bandwidth": True}, "'bandwidth'"),
        ({"duplex": 5}, "'duplex'"),
    ])
    def test_from_dict_names_the_field(self, doc, field):
        with pytest.raises(TopologyError, match=field):
            LinkSpec.from_dict(doc)


class TestTopologySpecs:
    def test_default_specs_uniform(self):
        t = ring(4)
        assert t.uniform_bandwidth
        assert t.all_half_duplex
        assert t.spec(0, 1) == DEFAULT_LINK_SPEC
        assert t.bandwidth(1, 0) == 1.0
        assert t.duplex(2, 3) == "half"

    def test_explicit_specs(self):
        t = Topology(3, [(0, 1), (1, 2)], link_specs={
            (1, 0): LinkSpec(bandwidth=4.0, duplex="full"),
        })
        assert t.bandwidth(0, 1) == 4.0          # reversed pair canonicalized
        assert t.duplex(0, 1) == "full"
        assert t.spec(1, 2) == DEFAULT_LINK_SPEC
        assert not t.uniform_bandwidth
        assert not t.all_half_duplex

    def test_spec_for_missing_link_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3, [(0, 1), (1, 2)], link_specs={(0, 2): LinkSpec()})

    def test_both_orientations_of_one_link_rejected(self):
        # (0, 1) and (1, 0) canonicalize to the same link: accepting both
        # would let dict order silently pick one spec
        with pytest.raises(TopologyError):
            Topology(3, [(0, 1), (1, 2)], link_specs={
                (0, 1): LinkSpec(bandwidth=2.0),
                (1, 0): LinkSpec(bandwidth=8.0),
            })

    def test_half_duplex_channels_are_link_ids(self):
        t = ring(4)
        assert t.channels() == t.links
        assert t.channel(0, 1) == (0, 1)
        assert t.channel(1, 0) == (0, 1)

    def test_full_duplex_channels_per_direction(self):
        t = Topology(3, [(0, 1), (1, 2)],
                     default_spec=LinkSpec(duplex="full"))
        assert t.channels() == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert t.channel(0, 1) == (0, 1)
        assert t.channel(1, 0) == (1, 0)

    def test_channel_missing_link(self):
        with pytest.raises(TopologyError):
            ring(4).channel(0, 2)

    def test_serialization_roundtrip(self):
        t = Topology(3, [(0, 1), (1, 2)], name="t3", link_specs={
            (0, 1): LinkSpec(bandwidth=2.0, duplex="full"),
        })
        t2 = Topology.from_dict(t.to_dict())
        assert t2.name == "t3"
        assert t2.links == t.links
        assert t2.spec(0, 1) == t.spec(0, 1)
        assert t2.spec(1, 2) == DEFAULT_LINK_SPEC
        # default specs are omitted from the export
        assert "1-2" not in (t.to_dict().get("link_specs") or {})

    @pytest.mark.parametrize("edit,field", [
        ({"n_procs": 2.0}, "'n_procs'"),
        ({"n_procs": True}, "'n_procs'"),
        ({"n_procs": 10 ** 12}, "'n_procs' is 1000000000000, but 4 links"),
        ({"links": [[0, True]]}, r"'links\[0\]'"),
        ({"links": [[0, 1, 2]]}, r"'links\[0\]'"),
        ({"name": 3}, "'name'"),
        ({"link_specs": []}, "'link_specs'"),
        ({"link_specs": {"0-x": {}}}, "'link_specs'"),
        ({"link_specs": {"0-1": {"duplex": "simplex"}}},
         r"'link_specs\['0-1'\]': duplex must be one of"),
    ])
    def test_from_dict_names_the_field(self, edit, field):
        doc = {**ring(4).to_dict(), **edit}
        with pytest.raises(TopologyError, match=field):
            Topology.from_dict(doc)

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(TopologyError, match="must be an object"):
            Topology.from_dict([4, [[0, 1]]])


# ----------------------------------------------------------------------
# new builders
# ----------------------------------------------------------------------

class TestTorus:
    def test_4x4(self):
        t = torus2d(4, 4)
        assert t.n_procs == 16
        assert t.n_links == 32                   # 2 links per node
        assert all(t.degree(p) == 4 for p in t.processors)
        assert t.has_link(0, 3)                  # row wrap
        assert t.has_link(0, 12)                 # column wrap

    def test_no_duplicate_links_for_dim_2(self):
        # a 2-wide dimension must not wrap (would duplicate the mesh link)
        t = torus2d(2, 4)
        assert t.n_links == 12
        t = torus2d(2, 2)
        assert t.n_links == 4

    def test_diameter_beats_mesh(self):
        from repro.network.topology import mesh2d
        assert torus2d(4, 4).diameter() < mesh2d(4, 4).diameter()

    def test_too_small(self):
        with pytest.raises(TopologyError):
            torus2d(1, 2)


class TestFatTree:
    def test_bandwidth_doubles_toward_root(self):
        t = fat_tree(15)                          # complete binary, 4 levels
        # leaf links (depth 2 -> 3) have bandwidth 1, doubling upward
        assert t.bandwidth(3, 7) == 1.0
        assert t.bandwidth(1, 3) == 2.0
        assert t.bandwidth(0, 1) == 4.0
        assert not t.uniform_bandwidth
        assert t.all_half_duplex

    def test_duplex_option(self):
        t = fat_tree(7, duplex="full")
        assert not t.all_half_duplex
        assert len(t.channels()) == 2 * t.n_links

    def test_validation(self):
        with pytest.raises(TopologyError):
            fat_tree(1)
        with pytest.raises(TopologyError):
            fat_tree(8, branching=1)


class TestApplyLinkModel:
    def test_defaults_are_identity(self):
        t = ring(4)
        assert apply_link_model(t) is t

    def test_full_duplex_overlay(self):
        t = apply_link_model(ring(4), duplex="full")
        assert not t.all_half_duplex
        assert t.uniform_bandwidth
        assert t.name == "ring4+full"

    def test_bandwidth_skew_deterministic_and_bounded(self):
        t1 = apply_link_model(ring(6), bandwidth_skew=8.0, seed=3)
        t2 = apply_link_model(ring(6), bandwidth_skew=8.0, seed=3)
        for l in t1.links:
            assert 1.0 <= t1.bandwidth(*l) <= 8.0
            assert t1.bandwidth(*l) == t2.bandwidth(*l)
        t3 = apply_link_model(ring(6), bandwidth_skew=8.0, seed=4)
        assert any(t1.bandwidth(*l) != t3.bandwidth(*l) for l in t1.links)

    def test_duplex_flip_preserves_fat_bandwidths(self):
        t = apply_link_model(fat_tree(7), duplex="full")
        assert t.bandwidth(0, 1) == fat_tree(7).bandwidth(0, 1)
        assert t.duplex(0, 1) == "full"

    def test_half_overlay_converts_full_duplex_base(self):
        # requesting the default model on a full-duplex base is NOT a
        # no-op: "duplex applies to every link"
        base = fat_tree(8, duplex="full")
        t = apply_link_model(base, duplex="half")
        assert t is not base
        assert t.all_half_duplex
        assert t.bandwidth(0, 1) == base.bandwidth(0, 1)  # fatness kept

    def test_skew_below_one_rejected(self):
        with pytest.raises(TopologyError):
            apply_link_model(ring(4), bandwidth_skew=0.5)


# ----------------------------------------------------------------------
# bandwidth in hop durations
# ----------------------------------------------------------------------

def _two_task_system(topology):
    g = TaskGraph(name="pair")
    g.add_task("a", 10.0)
    g.add_task("b", 10.0)
    g.add_edge("a", "b", 12.0)
    table = {t: [g.cost(t)] * topology.n_procs for t in g.tasks()}
    return HeterogeneousSystem.from_exec_table(g, topology, table)


class TestBandwidthCost:
    def test_comm_cost_divides_by_bandwidth(self):
        topo = Topology(2, [(0, 1)], link_specs={(0, 1): LinkSpec(bandwidth=4.0)})
        system = _two_task_system(topo)
        assert system.comm_cost(("a", "b"), (0, 1)) == 12.0 / 4.0

    def test_unit_bandwidth_is_bit_exact(self):
        fast = _two_task_system(chain(2))
        assert fast.comm_cost(("a", "b"), (0, 1)) == 12.0


# ----------------------------------------------------------------------
# cost-aware routing
# ----------------------------------------------------------------------

class TestWeightedRouting:
    def test_equals_bfs_hop_counts_on_uniform_topology(self):
        # same metric on unit bandwidth: every route has the BFS hop
        # count (equal-length ties may resolve to a different route)
        topo = ring(6)
        bfs = RoutingTable(topo, strategy="bfs")
        weighted = RoutingTable(topo, strategy="weighted")
        for s in topo.processors:
            for d in topo.processors:
                assert bfs.hop_distance(s, d) == weighted.hop_distance(s, d)

    def test_deterministic(self):
        topo = apply_link_model(ring(6), bandwidth_skew=4.0, seed=9)
        t1 = RoutingTable(topo, strategy="weighted")
        t2 = RoutingTable(topo, strategy="weighted")
        for s in topo.processors:
            for d in topo.processors:
                assert t1.path(s, d) == t2.path(s, d)

    def test_prefers_fat_links(self):
        # square 0-1-2-3-0; the 0-1-2 side is 10x fatter than 0-3-2
        topo = Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)], link_specs={
            (0, 1): LinkSpec(bandwidth=10.0),
            (1, 2): LinkSpec(bandwidth=10.0),
        })
        weighted = RoutingTable(topo, strategy="weighted")
        assert weighted.path(0, 2) == [0, 1, 2]    # 0.2 < 2.0 total time
        bfs = RoutingTable(topo, strategy="bfs")
        assert bfs.path(0, 2) == [0, 1, 2]          # tie at 2 hops, lexicographic

    def test_takes_longer_but_faster_route(self):
        # 0-2 direct (thin) vs 0-1-2 (two fat hops)
        topo = Topology(3, [(0, 1), (1, 2), (0, 2)], link_specs={
            (0, 1): LinkSpec(bandwidth=10.0),
            (1, 2): LinkSpec(bandwidth=10.0),
        })
        weighted = RoutingTable(topo, strategy="weighted")
        assert weighted.path(0, 2) == [0, 1, 2]
        assert RoutingTable(topo, strategy="bfs").path(0, 2) == [0, 2]

    def test_dls_weighted_variant(self):
        # the registry variant routes over the weighted table and still
        # produces a strictly valid schedule on a fat tree
        from repro.experiments.config import Cell
        from repro.experiments.runner import _SCHEDULERS, build_cell_system

        cell = Cell("random", "random", 24, 1.0, "fattree", "dls-weighted",
                    n_procs=8, graph_seed=21, system_seed=22)
        system = build_cell_system(cell)
        sched = _SCHEDULERS["dls-weighted"](system)
        validate_schedule(sched)
        assert len(sched.slots) == system.graph.n_tasks


# ----------------------------------------------------------------------
# full-duplex scheduling substrate + duplex-aware validation
# ----------------------------------------------------------------------

def _crossing_system(duplex: str):
    """Two messages crossing one link in opposite directions."""
    g = TaskGraph(name="cross")
    g.add_task("a", 10.0)
    g.add_task("b", 10.0)
    g.add_task("c", 5.0)
    g.add_task("d", 5.0)
    g.add_edge("a", "c", 20.0)
    g.add_edge("b", "d", 20.0)
    topo = Topology(2, [(0, 1)], name=f"pair-{duplex}",
                    default_spec=LinkSpec(duplex=duplex))
    table = {t: [g.cost(t)] * 2 for t in g.tasks()}
    return HeterogeneousSystem.from_exec_table(g, topo, table)


def _crossing_schedule(system) -> Schedule:
    """a on P0 -> c on P1 and b on P1 -> d on P0, messages overlapping."""
    s = Schedule(system, algorithm="handmade")
    s.place_task("a", 0, start=0.0)
    s.place_task("b", 1, start=0.0)
    s.place_task("c", 1, start=30.0)
    s.place_task("d", 0, start=30.0)
    s.set_route(("a", "c"), [0, 1], hop_starts=[10.0])
    s.set_route(("b", "d"), [1, 0], hop_starts=[10.0])
    return s


class TestDuplexValidation:
    def test_crossing_valid_on_full_duplex(self):
        sched = _crossing_schedule(_crossing_system("full"))
        assert schedule_violations(sched) == []

    def test_crossing_flagged_on_half_duplex(self):
        sched = _crossing_schedule(_crossing_system("half"))
        v = schedule_violations(sched)
        assert any("overlap" in x for x in v)

    def test_full_duplex_replay_on_half_duplex_is_caught(self):
        # the satellite case: a schedule valid under full duplex must be
        # rejected when validated against a half-duplex system — the
        # validator reads the duplex mode from the topology, not from
        # how the hops were stored
        full = _crossing_system("full")
        blob = schedule_to_dict(_crossing_schedule(full))
        half = _crossing_system("half")
        replay = schedule_from_dict(blob, half)
        v = schedule_violations(replay)
        assert any("overlap" in x for x in v)

    def test_same_direction_overlap_still_flagged_on_full_duplex(self):
        system = _crossing_system("full")
        s = Schedule(system, algorithm="handmade")
        s.place_task("a", 0, start=0.0)
        s.place_task("b", 0, start=10.0)
        s.place_task("c", 1, start=40.0)
        s.place_task("d", 1, start=45.0)
        s.set_route(("a", "c"), [0, 1], hop_starts=[10.0])
        s.set_route(("b", "d"), [0, 1], hop_starts=[25.0])  # overlaps [10, 30)
        v = schedule_violations(s)
        assert any("overlap" in x and "direction" in x for x in v)

    def test_full_duplex_link_order_channels(self):
        sched = _crossing_schedule(_crossing_system("full"))
        assert set(sched.link_order) == {(0, 1), (1, 0)}
        assert len(sched.link_order[(0, 1)]) == 1
        assert len(sched.link_order[(1, 0)]) == 1

    def test_settle_respects_per_direction_timelines(self):
        sched = _crossing_schedule(_crossing_system("full"))
        settle(sched)
        # both messages depart at t=10 (producers finish at 10): the two
        # directions do not serialize against each other
        assert sched.routes[("a", "c")].hops[0].start == 10.0
        assert sched.routes[("b", "d")].hops[0].start == 10.0
        validate_schedule(sched)

    def test_settle_serializes_half_duplex(self):
        sched = _crossing_schedule(_crossing_system("half"))
        settle(sched)
        starts = sorted(
            r.hops[0].start for r in sched.routes.values() if r.hops
        )
        assert starts == [10.0, 30.0]             # one waits for the other
        validate_schedule(sched)


# ----------------------------------------------------------------------
# tolerance unification (bugfix regression)
# ----------------------------------------------------------------------

class TestToleranceBoundary:
    def test_validator_tol_matches_engine_eps(self):
        assert TOL == EPS == 1e-9

    def test_band_violation_now_caught(self):
        # a hop departing 5e-7 before its producer finishes sits in the
        # old 1e-9..1e-6 blind spot: the engine would never build it,
        # but the validator's old 1e-6 tolerance accepted it
        system = _crossing_system("full")
        s = Schedule(system, algorithm="handmade")
        s.place_task("a", 0, start=0.0)           # finishes at 10.0
        s.place_task("b", 1, start=0.0)
        s.place_task("c", 1, start=40.0)
        s.place_task("d", 1, start=50.0)
        s.mark_local(("b", "d"))
        s.set_route(("a", "c"), [0, 1], hop_starts=[10.0 - 5e-7])
        v = schedule_violations(s)
        assert any("before" in x and "ready" in x for x in v)

    def test_sub_eps_noise_still_tolerated(self):
        system = _crossing_system("full")
        s = Schedule(system, algorithm="handmade")
        s.place_task("a", 0, start=0.0)
        s.place_task("b", 1, start=0.0)
        s.place_task("c", 1, start=40.0)
        s.place_task("d", 1, start=50.0)
        s.mark_local(("b", "d"))
        s.set_route(("a", "c"), [0, 1], hop_starts=[10.0 - 5e-10])
        v = [x for x in schedule_violations(s) if "ready" in x]
        assert v == []
