"""Doctest leg: the curated public-API modules must carry runnable
examples, and the examples must pass.

These are the modules the documentation sweep promises examples for
(workload generators, graph IO/interchange, the topology builders and
the schedule container). Running them inside the tier-1 suite means the
examples execute under both ``REPRO_HOTPATH`` CI legs — a docstring
whose output depended on the engine mode would fail here.
"""

import doctest
import importlib

import pytest

CURATED_MODULES = [
    "repro.graph.io",
    "repro.graph.interchange",
    "repro.network.topology",
    "repro.schedule.schedule",
    "repro.workloads.base",
    "repro.workloads.external",
    "repro.workloads.suites",
    "repro.corpus.overlays",
    "repro.dynamic.events",
    # the core/baselines scheduler entry points (ROADMAP: doctest
    # coverage growth) — every schedule_* runs a real 12-task example
    "repro.core.bsa",
    "repro.baselines.dls",
    "repro.baselines.heft",
    "repro.baselines.cpop",
    "repro.baselines.etf",
    "repro.baselines.spdecomp",
]


@pytest.mark.parametrize("module_name", CURATED_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, (
        f"{module_name} is a curated API module but carries no doctest "
        f"examples — the documentation sweep promises runnable examples"
    )
    assert results.failed == 0


def test_curated_public_functions_have_docstrings():
    """Every module-level public function in the curated modules must
    have a docstring (the doctest above checks the examples run; this
    catches a new public function added with no documentation at all)."""
    import inspect

    missing = []
    for module_name in CURATED_MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module_name:
                continue  # re-exported helper documented at home
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module_name}.{name}")
    assert not missing, f"public functions without docstrings: {missing}"
