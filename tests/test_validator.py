"""Tests for the strict schedule validator."""

import pytest

from repro import Schedule, settle, validate_schedule
from repro.errors import InvalidScheduleError
from repro.schedule.validator import schedule_violations


@pytest.fixture
def valid_schedule(homogeneous_system):
    """a on P0; b, c on P1; d on P0 — all messages properly routed."""
    s = Schedule(homogeneous_system, algorithm="handmade")
    s.place_task("a", 0, start=0.0)
    s.place_task("b", 1, start=0.0)
    s.place_task("c", 1, start=0.0)
    s.place_task("d", 0, start=0.0)
    s.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
    s.set_route(("a", "c"), [0, 1], hop_starts=[1.0])
    s.set_route(("b", "d"), [1, 0], hop_starts=[2.0])
    s.set_route(("c", "d"), [1, 0], hop_starts=[3.0])
    settle(s)
    return s


class TestValidSchedules:
    def test_handmade_valid(self, valid_schedule):
        assert schedule_violations(valid_schedule) == []
        validate_schedule(valid_schedule)

    def test_serial_valid(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        for t in ["a", "b", "c", "d"]:
            s.place_task(t, 2, start=0.0, position=len(s.proc_order[2]))
        for e in homogeneous_system.graph.edges():
            s.mark_local(e)
        settle(s)
        validate_schedule(s)


class TestViolationDetection:
    def test_missing_task(self, valid_schedule):
        valid_schedule.remove_task("d")
        v = schedule_violations(valid_schedule)
        assert any("not scheduled" in x for x in v)

    def test_wrong_duration(self, valid_schedule):
        valid_schedule.slots["a"].finish += 5.0
        v = schedule_violations(valid_schedule)
        assert any("duration" in x for x in v)

    def test_processor_overlap(self, valid_schedule):
        valid_schedule.slots["b"].start = valid_schedule.slots["c"].start
        valid_schedule.slots["b"].finish = valid_schedule.slots["b"].start + 20.0
        v = schedule_violations(valid_schedule)
        assert any("overlap" in x for x in v)

    def test_link_overlap(self, valid_schedule):
        hop_ab = valid_schedule.routes[("a", "b")].hops[0]
        hop_ac = valid_schedule.routes[("a", "c")].hops[0]
        hop_ac.start = hop_ab.start
        hop_ac.finish = hop_ac.start + 15.0
        v = schedule_violations(valid_schedule)
        assert any("hops" in x and "overlap" in x for x in v)

    def test_missing_route(self, valid_schedule):
        valid_schedule.clear_route(("a", "b"))
        v = schedule_violations(valid_schedule)
        assert any("no route" in x for x in v)

    def test_spurious_route_between_colocated(self, valid_schedule):
        # b and c share P1: a route between them is a violation
        valid_schedule.routes[("b", "d")].hops[0].edge = ("b", "d")
        s = valid_schedule
        s.remove_task("d")
        s.place_task("d", 1, start=s.slots["c"].finish + 100)
        v = schedule_violations(s)
        assert any("routed although" in x or "no route" in x for x in v)

    def test_route_wrong_endpoint(self, valid_schedule):
        # reroute a->b so it "arrives" at P2 instead of P1
        valid_schedule.clear_route(("a", "b"))
        valid_schedule.set_route(("a", "b"), [0, 2], hop_starts=[20.0])
        v = schedule_violations(valid_schedule)
        assert any("arrives at" in x for x in v)

    def test_start_before_message(self, valid_schedule):
        valid_schedule.slots["b"].start = 0.0
        valid_schedule.slots["b"].finish = 20.0
        v = schedule_violations(valid_schedule)
        assert any("before message" in x or "starts" in x for x in v)

    def test_same_proc_precedence(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        s.place_task("a", 0, start=5.0)
        s.place_task("b", 0, start=0.0)  # starts before its producer
        s.place_task("c", 1, start=0.0)
        s.place_task("d", 1, start=100.0)
        s.mark_local(("a", "b"))
        s.set_route(("a", "c"), [0, 1], hop_starts=[15.0])
        s.set_route(("b", "d"), [0, 1], hop_starts=[40.0])
        s.mark_local(("c", "d"))
        v = schedule_violations(s)
        assert any("precedence violated" in x for x in v)

    def test_negative_start(self, valid_schedule):
        valid_schedule.slots["a"].start = -1.0
        valid_schedule.slots["a"].finish = 9.0
        v = schedule_violations(valid_schedule)
        assert any("before time 0" in x for x in v)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["start", "finish"])
    def test_non_finite_task_time(self, valid_schedule, field, value):
        """Every comparison with NaN is false, so each check must be
        written to fail on it; an infinite time breaks the duration."""
        setattr(valid_schedule.slots["b"], field, value)
        v = schedule_violations(valid_schedule)
        assert any("task 'b'" in x for x in v), v

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["start", "finish"])
    def test_non_finite_hop_time(self, valid_schedule, field, value):
        setattr(valid_schedule.routes[("a", "b")].hops[0], field, value)
        v = schedule_violations(valid_schedule)
        assert any("message ('a', 'b') hop 0" in x for x in v), v

    def test_raises_with_all_violations(self, valid_schedule):
        valid_schedule.slots["a"].finish += 1
        valid_schedule.slots["b"].start -= 100
        with pytest.raises(InvalidScheduleError) as err:
            validate_schedule(valid_schedule)
        assert len(err.value.violations) >= 2

    def test_store_and_forward_violation(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        s.place_task("a", 0, start=0.0)
        s.place_task("b", 2, start=100.0)
        s.place_task("c", 0, start=20.0)
        s.place_task("d", 2, start=200.0)
        # 2-hop route where hop 2 starts before hop 1 finishes
        s.set_route(("a", "b"), [0, 1, 2], hop_starts=[10.0, 11.0])
        s.mark_local(("a", "c"))
        s.set_route(("c", "d"), [0, 1, 2], hop_starts=[60.0, 70.0])
        v = schedule_violations(s)
        assert any("before" in x and "ready" in x for x in v)

    def test_value_equal_hop_copy_is_not_a_member(self, valid_schedule):
        """Membership is by identity: a route hop replaced by a
        value-equal copy is not the hop ``link_order`` holds, even though
        MessageHop's dataclass equality says the two are equal."""
        import copy

        route = valid_schedule.routes[("a", "b")]
        original = route.hops[0]
        twin = copy.copy(original)
        assert twin == original and twin is not original
        route.hops[0] = twin
        v = schedule_violations(valid_schedule)
        assert any(
            "message ('a', 'b') hop 0 missing from link_order" in x for x in v
        ), v
