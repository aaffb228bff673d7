"""Tests for the Schedule container (slots, routes, bookkeeping)."""

import pytest

from repro import Schedule
from repro.errors import SchedulingError
from repro.schedule.events import MessageHop, Route


@pytest.fixture
def sched(homogeneous_system):
    return Schedule(homogeneous_system, algorithm="test")


class TestTaskPlacement:
    def test_place_and_query(self, sched):
        slot = sched.place_task("a", 0, start=5.0)
        assert slot.start == 5.0
        assert slot.finish == 15.0  # cost(a) == 10
        assert sched.proc_of("a") == 0
        assert sched.is_scheduled("a")
        assert sched.schedule_length() == 15.0

    def test_double_placement_rejected(self, sched):
        sched.place_task("a", 0, start=0.0)
        with pytest.raises(SchedulingError):
            sched.place_task("a", 1, start=0.0)

    def test_unscheduled_query_rejected(self, sched):
        with pytest.raises(SchedulingError):
            sched.proc_of("a")

    def test_order_sorted_by_start(self, sched):
        sched.place_task("a", 0, start=50.0)
        sched.place_task("b", 0, start=10.0)
        sched.place_task("c", 0, start=80.0)
        assert sched.proc_order[0] == ["b", "a", "c"]

    def test_explicit_position(self, sched):
        sched.place_task("a", 0, start=0.0)
        sched.place_task("b", 0, start=100.0, position=0)
        assert sched.proc_order[0] == ["b", "a"]

    def test_remove_task(self, sched):
        sched.place_task("a", 0, start=0.0)
        slot = sched.remove_task("a")
        assert slot.task == "a"
        assert not sched.is_scheduled("a")
        assert sched.proc_order[0] == []
        with pytest.raises(SchedulingError):
            sched.remove_task("a")

    def test_empty_schedule_length(self, sched):
        assert sched.schedule_length() == 0.0


class TestRoutes:
    def test_set_route_creates_hops(self, sched):
        sched.place_task("a", 0, start=0.0)
        sched.place_task("b", 1, start=100.0)
        route = sched.set_route(("a", "b"), [0, 1], hop_starts=[10.0])
        assert len(route.hops) == 1
        hop = route.hops[0]
        assert hop.link == (0, 1)
        assert hop.start == 10.0
        assert hop.finish == 10.0 + 5.0  # comm cost a->b is 5
        assert sched.link_order[(0, 1)] == [hop]

    def test_multihop_route(self, sched):
        route = sched.set_route(("a", "c"), [0, 1, 2], hop_starts=[0.0, 20.0])
        assert route.procs == [0, 1, 2]
        assert route.check_contiguous()
        assert len(sched.link_order[(0, 1)]) == 1
        assert len(sched.link_order[(1, 2)]) == 1

    def test_set_route_replaces_old(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        sched.set_route(("a", "b"), [0, 2, 1], hop_starts=[0.0, 10.0])
        # the old direct hop on (0,1) is released; new hops on (0,2), (1,2)
        assert len(sched.link_order[(0, 1)]) == 0
        assert len(sched.link_order[(0, 2)]) == 1
        assert len(sched.link_order[(1, 2)]) == 1
        assert sched.routes[("a", "b")].procs == [0, 2, 1]

    def test_route_over_missing_link_rejected(self, sched):
        # ring(3) has links (0,1),(1,2),(0,2): path [0, 0] invalid anyway
        with pytest.raises(SchedulingError):
            sched.set_route(("a", "b"), [0])

    def test_clear_route_releases_links(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        sched.clear_route(("a", "b"))
        assert sched.link_order[(0, 1)] == []
        assert ("a", "b") not in sched.routes

    @pytest.mark.parametrize("cached", [True, False],
                             ids=["position-map", "scan"])
    def test_clear_route_removes_by_identity(self, sched, cached):
        """A value-equal hop ahead of the route's own on its channel
        stays, whether the index comes from the cached position map or
        from the scan."""
        sched.set_route(("a", "c"), [0, 1], hop_starts=[0.0])
        hop = sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0]).hops[0]
        twin = MessageHop(hop.edge, hop.src, hop.dst, hop.start, hop.finish,
                          cost=hop.cost)
        order = sched.link_order[(0, 1)]
        order.insert(0, twin)
        sched._link_pos.pop((0, 1), None)
        if cached:
            assert sched.link_positions((0, 1))[id(hop)] == 2
        sched.clear_route(("a", "b"))
        assert [id(h) for h in order] == [
            id(twin), id(sched.routes[("a", "c")].hops[0])]
        assert (0, 1) not in sched._link_pos

    def test_mark_local(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        sched.mark_local(("a", "b"))
        assert sched.routes[("a", "b")].is_local
        assert sched.link_order[(0, 1)] == []

    def test_arrival_time_local_vs_routed(self, sched):
        sched.place_task("a", 0, start=0.0)   # finishes at 10
        sched.place_task("b", 0, start=10.0)
        sched.mark_local(("a", "b"))
        assert sched.arrival_time(("a", "b")) == 10.0
        sched.remove_task("b")
        sched.place_task("b", 1, start=100.0)
        sched.set_route(("a", "b"), [0, 1], hop_starts=[12.0])
        assert sched.arrival_time(("a", "b")) == 17.0  # 12 + comm 5


class TestCopyRestore:
    def test_copy_is_deep(self, sched):
        sched.place_task("a", 0, start=0.0)
        sched.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        dup = sched.copy()
        dup.slots["a"].start = 999.0
        dup.routes[("a", "b")].hops[0].start = 999.0
        assert sched.slots["a"].start == 0.0
        assert sched.routes[("a", "b")].hops[0].start == 0.0

    def test_copy_preserves_link_identity(self, sched):
        sched.set_route(("a", "b"), [0, 1], hop_starts=[3.0])
        dup = sched.copy()
        # the hop in dup.link_order must be the same object as in dup.routes
        assert dup.link_order[(0, 1)][0] is dup.routes[("a", "b")].hops[0]

    def test_restore_from(self, sched):
        sched.place_task("a", 0, start=0.0)
        snapshot = sched.copy()
        sched.place_task("b", 1, start=5.0)
        sched.restore_from(snapshot)
        assert not sched.is_scheduled("b")
        assert sched.is_scheduled("a")


class TestRouteObject:
    def test_route_procs_empty_when_local(self):
        assert Route(("a", "b"), []).procs == []
        assert Route(("a", "b"), []).is_local

    def test_contiguity_check(self):
        h1 = MessageHop(("a", "b"), 0, 1)
        h2 = MessageHop(("a", "b"), 1, 2)
        h3 = MessageHop(("a", "b"), 3, 2)
        assert Route(("a", "b"), [h1, h2]).check_contiguous()
        assert not Route(("a", "b"), [h1, h3]).check_contiguous()

    def test_hop_link_canonical(self):
        assert MessageHop(("a", "b"), 3, 1).link == (1, 3)
