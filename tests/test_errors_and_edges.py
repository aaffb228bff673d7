"""Error-hierarchy contracts and miscellaneous edge cases."""

import pytest

from repro import (
    HeterogeneousSystem,
    Schedule,
    TaskGraph,
    clique,
    schedule_bsa,
    schedule_round_robin,
    schedule_serial,
    settle,
    star,
    validate_schedule,
)
from repro.errors import (
    ConfigurationError,
    CycleError,
    DisconnectedGraphError,
    GraphError,
    InvalidScheduleError,
    ReproError,
    RoutingError,
    SchedulingError,
    TopologyError,
    WorkloadError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        GraphError, CycleError, DisconnectedGraphError, TopologyError,
        RoutingError, SchedulingError, InvalidScheduleError,
        ConfigurationError, WorkloadError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        if exc is InvalidScheduleError:
            instance = exc(["violation"])
        elif exc is CycleError:
            instance = exc("cycle", nodes=[1, 2])
        else:
            instance = exc("boom")
        assert isinstance(instance, ReproError)

    def test_cycle_error_carries_nodes(self):
        err = CycleError("stuck", nodes=["a", "b"])
        assert err.nodes == ["a", "b"]

    def test_invalid_schedule_error_lists_violations(self):
        err = InvalidScheduleError([f"v{i}" for i in range(30)])
        assert len(err.violations) == 30
        assert "+5 more" in str(err)

    def test_subgraph_errors_catchable_as_graph_error(self):
        assert issubclass(CycleError, GraphError)
        assert issubclass(DisconnectedGraphError, GraphError)


class TestEdgeCases:
    def test_more_processors_than_tasks(self):
        g = TaskGraph(name="tiny")
        g.add_task("a", 5.0)
        g.add_task("b", 5.0)
        g.add_edge("a", "b", 1.0)
        system = HeterogeneousSystem.sample(g, clique(8), het_range=(1, 3), seed=0)
        for scheduler in (schedule_bsa, schedule_serial, schedule_round_robin):
            validate_schedule(scheduler(system))

    def test_single_task_program(self):
        g = TaskGraph(name="one")
        g.add_task("only", 42.0)
        system = HeterogeneousSystem.sample(g, star(4), het_range=(1, 9), seed=1)
        sched = schedule_bsa(system)
        validate_schedule(sched)
        # the single task lands on its fastest processor
        best = min(range(4), key=lambda p: system.exec_cost("only", p))
        assert sched.proc_of("only") == best
        assert sched.schedule_length() == pytest.approx(
            system.exec_cost("only", best)
        )

    def test_zero_cost_messages_everywhere(self):
        """A graph whose messages are all free still schedules validly."""
        g = TaskGraph(name="freecomm")
        g.add_task("a", 10.0)
        g.add_task("b", 10.0)
        g.add_task("c", 10.0)
        g.add_edge("a", "b", 0.0)
        g.add_edge("a", "c", 0.0)
        system = HeterogeneousSystem.sample(g, clique(3), het_range=(1, 2), seed=2)
        sched = schedule_bsa(system)
        validate_schedule(sched)

    def test_repr_string(self, small_random_system):
        sched = schedule_bsa(small_random_system)
        assert repr(sched).startswith("Schedule(")

    def test_settle_empty_schedule(self, paper_system):
        s = Schedule(paper_system)
        settle(s)  # no tasks: trivially fine
        assert s.schedule_length() == 0.0

    def test_restore_from_wrong_system_rejected(self, paper_system, small_random_system):
        a = Schedule(paper_system)
        b = Schedule(small_random_system)
        with pytest.raises(SchedulingError):
            a.restore_from(b.copy())

    def test_route_arrival_empty(self):
        from repro.schedule.events import Route

        assert Route(("a", "b"), []).arrival == 0.0

    def test_long_chain_deep_recursion_safe(self):
        """500-task chain: serialization and settle must not recurse out."""
        g = TaskGraph(name="deepchain")
        prev = None
        for i in range(500):
            g.add_task(i, 1.0)
            if prev is not None:
                g.add_edge(prev, i, 1.0)
            prev = i
        from repro import serialize

        order = serialize(g)
        assert order == list(range(500))
