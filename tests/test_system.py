"""Tests for the heterogeneous system (cost binding)."""

import pytest

from repro import HeterogeneousSystem, LinkHeterogeneity, TaskGraph, ring
from repro.errors import ConfigurationError, TopologyError


class TestFromExecTable:
    def test_paper_table(self, paper_system):
        assert paper_system.exec_cost("T1", 0) == 39
        assert paper_system.exec_cost("T1", 1) == 7
        assert paper_system.exec_cost("T9", 3) == 20
        assert paper_system.n_procs == 4

    def test_row_access(self, paper_system):
        assert paper_system.exec_cost_row("T3") == (15, 28, 39, 6)

    def test_median_and_mean(self, paper_system):
        # T9: (8, 16, 15, 20) -> sorted (8, 15, 16, 20), median 15.5
        assert paper_system.median_exec_cost("T9") == pytest.approx(15.5)
        assert paper_system.mean_exec_cost("T9") == pytest.approx(14.75)

    def test_wrong_row_length_rejected(self, diamond):
        table = {t: [1.0, 2.0] for t in diamond.tasks()}  # ring(3) needs 3
        with pytest.raises(ConfigurationError):
            HeterogeneousSystem.from_exec_table(diamond, ring(3), table)

    def test_missing_task_rejected(self, diamond):
        table = {"a": [1, 1, 1]}
        with pytest.raises(ConfigurationError):
            HeterogeneousSystem.from_exec_table(diamond, ring(3), table)

    def test_nonpositive_cost_rejected(self, diamond):
        table = {t: [1.0, 0.0, 1.0] for t in diamond.tasks()}
        with pytest.raises(ConfigurationError):
            HeterogeneousSystem.from_exec_table(diamond, ring(3), table)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_cost_rejected(self, diamond, bad):
        table = {t: [1.0, bad, 1.0] for t in diamond.tasks()}
        with pytest.raises(ConfigurationError, match="finite"):
            HeterogeneousSystem.from_exec_table(diamond, ring(3), table)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_arrival_cost_rejected(self, diamond, bad):
        system = HeterogeneousSystem.sample(diamond, ring(3), seed=1)
        diamond.add_task("late", 5.0)
        with pytest.raises(ConfigurationError, match="finite"):
            system.add_task_costs("late", [5.0, bad, 5.0])


class TestSample:
    def test_factor_range_and_normalization(self, diamond):
        system = HeterogeneousSystem.sample(diamond, ring(4), het_range=(1, 50), seed=3)
        for t in diamond.tasks():
            row = system.exec_cost_row(t)
            nominal = diamond.cost(t)
            # the fastest processor runs the task at exactly the nominal cost
            assert min(row) == pytest.approx(nominal)
            assert max(row) <= 50 * nominal + 1e-9

    def test_deterministic(self, diamond):
        a = HeterogeneousSystem.sample(diamond, ring(4), seed=5)
        b = HeterogeneousSystem.sample(diamond, ring(4), seed=5)
        for t in diamond.tasks():
            assert a.exec_cost_row(t) == b.exec_cost_row(t)

    def test_seed_changes_costs(self, diamond):
        a = HeterogeneousSystem.sample(diamond, ring(4), seed=5)
        b = HeterogeneousSystem.sample(diamond, ring(4), seed=6)
        assert any(a.exec_cost_row(t) != b.exec_cost_row(t) for t in diamond.tasks())

    def test_bad_range_rejected(self, diamond):
        with pytest.raises(ConfigurationError):
            HeterogeneousSystem.sample(diamond, ring(4), het_range=(5, 2))


class TestLinkFactors:
    def test_homogeneous_default(self, paper_system):
        assert paper_system.link_factor(("T1", "T2"), (0, 1)) == 1.0
        assert paper_system.comm_cost(("T1", "T2"), (0, 1)) == 20.0

    def test_missing_link_rejected(self, paper_system):
        with pytest.raises(TopologyError):
            paper_system.comm_cost(("T1", "T2"), (0, 2))  # ring(4): no 0-2 link

    def test_per_message_link_sampling(self, diamond):
        system = HeterogeneousSystem.sample(
            diamond, ring(4), seed=1, link_het_range=(1, 50)
        )
        f1 = system.link_factor(("a", "b"), (0, 1))
        assert 1.0 <= f1 <= 50.0
        # deterministic and direction-independent (canonical link id)
        assert system.link_factor(("a", "b"), (1, 0)) == f1
        # different message or link gives (almost surely) different factor
        assert system.link_factor(("a", "c"), (0, 1)) != f1

    def test_per_link_mode(self, diamond):
        table = {t: [1.0, 1.0, 1.0] for t in diamond.tasks()}
        system = HeterogeneousSystem.from_exec_table(
            diamond, ring(3), table,
            link_mode=LinkHeterogeneity.PER_LINK,
            per_link_factors={(0, 1): 2.0, (1, 2): 3.0, (0, 2): 4.0},
        )
        assert system.comm_cost(("a", "b"), (1, 2)) == 3.0 * 5.0

    def test_per_link_mode_requires_factors(self, diamond):
        table = {t: [1.0, 1.0, 1.0] for t in diamond.tasks()}
        with pytest.raises(ConfigurationError):
            HeterogeneousSystem.from_exec_table(
                diamond, ring(3), table, link_mode=LinkHeterogeneity.PER_LINK
            )

    @pytest.mark.parametrize("bad", [-2.0, 0.0, float("nan"), float("inf")],
                             ids=["negative", "zero", "nan", "inf"])
    def test_per_link_factor_must_be_positive_and_finite(self, diamond, bad):
        """A negative or NaN factor would give hops negative or NaN
        durations."""
        table = {t: [1.0, 1.0, 1.0] for t in diamond.tasks()}
        with pytest.raises(ConfigurationError, match="positive and finite"):
            HeterogeneousSystem.from_exec_table(
                diamond, ring(3), table, link_mode=LinkHeterogeneity.PER_LINK,
                per_link_factors={(0, 1): 2.0, (1, 2): bad, (0, 2): 4.0})

    @pytest.mark.parametrize("lo,hi", [(-5.0, -1.0), (0.0, 1.0), (2.0, 1.0),
                                       (1.0, float("inf")),
                                       (float("nan"), 1.0)],
                             ids=["negative", "zero", "inverted", "inf", "nan"])
    def test_factor_range_must_be_ordered_positive_and_finite(self, diamond,
                                                               lo, hi):
        table = {t: [1.0, 1.0, 1.0] for t in diamond.tasks()}
        with pytest.raises(ConfigurationError, match="link factor range"):
            HeterogeneousSystem.from_exec_table(
                diamond, ring(3), table,
                link_mode=LinkHeterogeneity.PER_MESSAGE_LINK,
                link_factor_range=(lo, hi))
