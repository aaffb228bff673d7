"""Tests for the one-command reproduction report."""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.report import generate_report
from tests.test_integration import TINY


@pytest.fixture
def tiny_cache(tmp_path):
    return ResultCache(str(tmp_path / "cells"))


class TestReport:
    def test_report_structure(self, tiny_cache):
        text = generate_report(scale=TINY, cache=tiny_cache, include_example=False)
        assert text.startswith("# BSA reproduction report")
        for heading in ("Figure 3", "Figure 4", "Figure 5", "Figure 6",
                        "Figure 7", "Runtime"):
            assert heading in text
        assert "bsa/dls" in text  # ratio columns rendered
        assert "`tiny`" in text

    def test_report_with_example(self, tiny_cache):
        text = generate_report(scale=TINY, cache=tiny_cache, include_example=True)
        assert "Worked example" in text
        assert "first pivot: P2" in text
        assert "schedule length" in text  # gantt footer present

    def test_report_reuses_cache(self, tiny_cache):
        generate_report(scale=TINY, cache=tiny_cache, include_example=False)
        n = len(tiny_cache)
        generate_report(scale=TINY, cache=tiny_cache, include_example=False)
        assert len(tiny_cache) == n  # second render: zero new cell runs
