"""Documentation-sync tests: the docs must match the live registries.

PR 4's documentation sweep fixed README flag lists that had drifted
from the CLI (``--algorithm`` omitted ``etf``). These tests make that
class of rot impossible: README flag lists, the CLI parser choices, and
the library registries must all agree, ARCHITECTURE.md must exist and
cover every layer, and the bundled corpus EXPERIMENTS.md §7 describes
must actually ship.
"""

import json
import os
import re

from repro.cli import build_parser
from repro.experiments.config import ALGORITHM_NAMES, TOPOLOGY_NAMES
from repro.experiments.runner import _SCHEDULERS, build_topology
from repro.graph.interchange import format_names
from repro.workloads.suites import WORKLOAD_NAMES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(REPO_ROOT, name)) as fh:
        return fh.read()


def _load_json(name):
    with open(os.path.join(REPO_ROOT, name)) as fh:
        return json.load(fh)


def _subparsers(parser):
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return action.choices
    raise AssertionError("no subparsers found")


def _flag_choices(subparser, flag):
    for action in subparser._actions:
        if flag in action.option_strings:
            return list(action.choices)
    raise AssertionError(f"flag {flag} not found")


def _readme_flag_list(readme, flag):
    m = re.search(re.escape(flag) + r" \{([a-z0-9_,]+)\}", readme)
    assert m, f"README does not document {flag} {{...}} choices"
    return m.group(1).split(",")


class TestRegistriesAgree:
    def test_algorithm_names_match_scheduler_registry(self):
        plain = [name for name in _SCHEDULERS if "-" not in name]
        assert plain == list(ALGORITHM_NAMES)

    def test_topology_names_all_buildable(self):
        for name in TOPOLOGY_NAMES:
            topology = build_topology(name, 16, seed=0)
            assert topology.n_procs == 16

    def test_cli_choices_come_from_registries(self):
        sub = _subparsers(build_parser())
        assert _flag_choices(sub["schedule"], "--algorithm") == list(ALGORITHM_NAMES)
        assert _flag_choices(sub["schedule"], "--topology") == list(TOPOLOGY_NAMES)
        assert _flag_choices(sub["schedule"], "--format") == list(format_names())
        assert _flag_choices(sub["ablation"], "--topology") == list(TOPOLOGY_NAMES)
        assert _flag_choices(sub["convert"], "--from") == list(format_names())
        assert _flag_choices(sub["convert"], "--to") == list(format_names())
        assert _flag_choices(sub["simulate"], "--algorithm") == list(ALGORITHM_NAMES)
        assert _flag_choices(sub["simulate"], "--topology") == list(TOPOLOGY_NAMES)
        # the generated families the service accepts, extensions included
        for command in ("schedule", "simulate", "pareto", "profile"):
            assert _flag_choices(sub[command], "--workload") == list(WORKLOAD_NAMES)

    def test_corpus_cli_choices_come_from_registries(self):
        corpus = _subparsers(build_parser())["corpus"]
        commands = _subparsers(corpus)
        assert list(commands) == ["scan", "ls", "bench", "report"]
        for name in ("bench", "report"):
            assert _flag_choices(commands[name], "--topologies") == list(
                TOPOLOGY_NAMES
            )
            assert _flag_choices(commands[name], "--algorithms") == list(
                ALGORITHM_NAMES
            )

    def test_bench_reports_cover_every_engine_mode(self):
        """The committed reports that compare engine modes name exactly
        the modes the engine switch accepts, so a deleted mode cannot
        linger in a record."""
        from repro.util.intervals import HOTPATH_MODES

        dynamic = _load_json("BENCH_dynamic.json")["mode_identity"]
        assert sorted(dynamic["modes"]) == sorted(HOTPATH_MODES)
        assert sorted(_load_json("BENCH_obs.json")["modes"]) == sorted(
            HOTPATH_MODES)


class TestReadme:
    def test_readme_flag_lists_match_cli(self):
        readme = _read("README.md")
        assert _readme_flag_list(readme, "--algorithm") == list(ALGORITHM_NAMES)
        assert _readme_flag_list(readme, "--topology") == list(TOPOLOGY_NAMES)
        assert _readme_flag_list(readme, "--format") == list(format_names())
        assert _readme_flag_list(readme, "--duplex") == ["half", "full"]

    def test_readme_workload_list_matches_registry(self):
        readme = _read("README.md")
        assert _readme_flag_list(readme, "--workload") == list(WORKLOAD_NAMES)

    def test_readme_documents_every_subcommand(self):
        readme = _read("README.md")
        for command in _subparsers(build_parser()):
            assert f"`repro {command}" in readme, (
                f"README does not document the `repro {command}` subcommand"
            )

    def test_readme_links_architecture_and_experiments(self):
        readme = _read("README.md")
        assert "ARCHITECTURE.md" in readme
        assert "EXPERIMENTS.md" in readme

    def test_readme_formats_table_lists_every_registered_format(self):
        readme = _read("README.md")
        for name in format_names():
            assert f"| `{name}` |" in readme, (
                f"README formats table does not list {name!r}"
            )

    def test_readme_error_table_matches_error_registry(self):
        """The README error-code table is generated from
        repro.service.errors.ERROR_TABLE — both are committed, so every
        row (class, kind, exit code, HTTP status) must agree, and every
        table entry must have a README row."""
        from repro.service.errors import ERROR_TABLE

        readme = _read("README.md")
        for exc_type, spec in ERROR_TABLE.items():
            row = (f"| `{exc_type.__name__}` | `{spec.kind}` "
                   f"| {spec.exit_code} | {spec.http_status} |")
            assert row in readme, (
                f"README error table does not match ERROR_TABLE for "
                f"{exc_type.__name__}: expected {row!r}"
            )

    def test_readme_documents_the_fallback_exit_code(self):
        readme = _read("README.md")
        assert "70" in readme  # the kind="internal" fallback


class TestArchitecture:
    def test_architecture_exists_and_covers_every_layer(self):
        text = _read("ARCHITECTURE.md")
        src = os.path.join(REPO_ROOT, "src", "repro")
        packages = sorted(
            name for name in os.listdir(src)
            if os.path.isdir(os.path.join(src, name)) and name != "__pycache__"
        )
        assert packages, "no packages under src/repro?"
        for package in packages:
            assert f"{package}/" in text, (
                f"ARCHITECTURE.md module map does not mention {package}/"
            )

    def test_architecture_documents_engine_modes(self):
        text = _read("ARCHITECTURE.md")
        for mode in ("incremental", "legacy"):
            assert f"`{mode}`" in text
        assert "REPRO_HOTPATH" in text
        assert "byte identity" in text.lower().replace("-", " ")

    def test_architecture_documents_interchange_and_substrate(self):
        text = _read("ARCHITECTURE.md")
        for needle in ("interchange", "LinkSpec", "channel", "sniff"):
            assert needle in text, f"ARCHITECTURE.md lacks {needle!r}"


class TestExperimentsSection7:
    def test_section_exists_with_commands(self):
        text = _read("EXPERIMENTS.md")
        assert "## 7. External workloads" in text
        assert "examples/external_workloads.py" in text
        assert "repro schedule --graph" in text

    def test_documented_corpus_files_ship(self):
        text = _read("EXPERIMENTS.md")
        section = text.split("## 7.")[1].split("## 8.")[0]
        for name in re.findall(r"`([\w./]+\.(?:stg|dot|json))`", section):
            base = os.path.basename(name)
            if base.startswith("forkjoin.trace"):
                continue  # /tmp output of a documented command
            assert os.path.exists(
                os.path.join(REPO_ROOT, "examples", "graphs", base)
            ), f"EXPERIMENTS §7 mentions {base} but it is not bundled"


class TestExperimentsSection8:
    def test_section_exists_with_commands(self):
        text = _read("EXPERIMENTS.md")
        assert "## 8. Corpus-scale benchmarking" in text
        assert "repro corpus bench" in text
        assert "examples/corpus_bench.py" in text

    def test_documented_corpus_files_ship(self):
        text = _read("EXPERIMENTS.md")
        section = text.split("## 8.")[1].split("## 9.")[0]
        for name in re.findall(r"`([\w./]+\.(?:stg|dot|json|dax))`", section):
            assert os.path.exists(
                os.path.join(REPO_ROOT, "examples", "corpus",
                             os.path.basename(name))
            ), f"EXPERIMENTS §8 mentions {name} but it is not bundled"

    def test_bundled_corpus_is_what_section_8_claims(self):
        from repro.corpus.manifest import scan_corpus

        manifest = scan_corpus(os.path.join(REPO_ROOT, "examples", "corpus"))
        formats = {e.fmt for e in manifest.entries}
        # the mini-corpus must keep covering the two new importers, the
        # dummy-bridged STG repair path, and the vector-trace path
        assert {"dax", "wfcommons", "stg", "trace"} <= formats
        assert any(e.needs_bridge for e in manifest.entries)
        assert any(e.n_procs for e in manifest.entries)


class TestExperimentsSection9:
    def test_section_exists_with_commands(self):
        text = _read("EXPERIMENTS.md")
        assert "## 9. Online rescheduling" in text
        assert "repro simulate" in text
        assert "bench_dynamic" in text

    def test_repair_vs_replan_table_matches_bench(self):
        """The §9 table is generated from BENCH_dynamic.json — both
        artifacts are committed, so they must agree."""
        report = _load_json("BENCH_dynamic.json")
        section = _read("EXPERIMENTS.md").split("## 9.")[1].split("## 10.")[0]
        assert str(report["repair_speedup"]) in section
        for s in report["scenarios"]:
            assert s["scenario"] in section, (
                f"BENCH_dynamic.json scenario {s['scenario']} missing "
                f"from the EXPERIMENTS §9 table"
            )


class TestExperimentsSection10:
    def test_section_exists_with_commands(self):
        text = _read("EXPERIMENTS.md")
        assert "## 10. Engine scaling" in text
        assert "bench_hotpath.py" in text.split("## 10.")[1]

    def test_scaling_curve_table_matches_bench(self):
        """The §10 scaling-curve table is generated from the
        scaling_curve section of BENCH_hotpath.json — both artifacts
        are committed, so every point (size, the engine's median and
        reps, the settle's worklist pops) must agree."""
        report = _load_json("BENCH_hotpath.json")
        curve = report["scaling_curve"]
        section = _read("EXPERIMENTS.md").split("## 10.")[1]
        for p in curve["points"]:
            reps = " / ".join(str(r) for r in p["reps_s"])
            row = (f"| {p['n_tasks']} | {p['incremental_s']} s | {reps} "
                   f"| {p['settle_cone_pops']} | yes |")
            # normalize column padding: compare without repeated spaces
            squashed = " ".join(section.split())
            assert " ".join(row.split()) in squashed, (
                f"EXPERIMENTS §10 table row for n={p['n_tasks']} does "
                f"not match BENCH_hotpath.json: expected {row!r}"
            )
            assert p["identical"], p

    def test_golden_cell_pin_matches_equivalence_suite(self):
        """§10 cites the n=1000 pinned makespan; it must be the same
        float the equivalence suite enforces."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "hotpath_equiv",
            os.path.join(REPO_ROOT, "tests", "test_hotpath_equivalence.py"),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        section = _read("EXPERIMENTS.md").split("## 10.")[1]
        assert repr(mod.PINNED_N1000) in section

class TestExperimentsSection11:
    def test_section_exists_with_commands(self):
        text = _read("EXPERIMENTS.md")
        assert "## 11. Scheduling as a service" in text
        section = text.split("## 11.")[1]
        assert "bench_serve.py" in section
        assert "tests/test_service.py" in section

    def test_latency_table_matches_bench(self):
        """The §11 latency table is generated from BENCH_serve.json —
        both artifacts are committed, so every row (case, p50 cold/warm,
        req/s, speedup) must agree."""
        report = _load_json("BENCH_serve.json")
        section = _read("EXPERIMENTS.md").split("## 11.")[1]
        squashed = " ".join(section.split())
        for c in report["cases"]:
            row = (f"| {c['case']} | {c['cold']['p50_ms']} ms "
                   f"| {c['cold']['req_per_s']} "
                   f"| {c['warm']['p50_ms']} ms "
                   f"| {c['warm']['req_per_s']} "
                   f"| {c['warm_speedup']}x |")
            assert " ".join(row.split()) in squashed, (
                f"EXPERIMENTS §11 table row for {c['case']} does not "
                f"match BENCH_serve.json: expected {row!r}"
            )


class TestExperimentsSection12:
    def test_section_exists_with_commands(self):
        text = _read("EXPERIMENTS.md")
        assert "## 12. Multi-objective scheduling" in text
        section = text.split("## 12.")[1]
        assert "bench_pareto.py" in section
        assert "repro pareto" in section
        assert "tests/test_objectives.py" in section

    def test_pareto_table_matches_bench(self):
        """The §12 table is generated from BENCH_pareto.json — both
        artifacts are committed, so every row (per-algorithm objective
        vector and front membership) must agree."""
        report = _load_json("BENCH_pareto.json")
        assert report["jobs_identical"], (
            "committed bench violates its own --jobs byte-identity check"
        )
        section = _read("EXPERIMENTS.md").split("## 12.")[1]
        squashed = " ".join(section.split())
        for p in report["points"]:
            row = (f"| {p['algorithm']} | {p['makespan']} | {p['energy']} "
                   f"| {p['reliability']} | {p['throughput']} "
                   f"| {'yes' if p['on_front'] else 'no'} |")
            assert " ".join(row.split()) in squashed, (
                f"EXPERIMENTS §12 table row for {p['algorithm']} does "
                f"not match BENCH_pareto.json: expected {row!r}"
            )
        for algo in report["front"]:
            assert algo in section

    def test_front_matches_equivalence_suite(self):
        """§12's front must be the same front the golden Pareto pin in
        the equivalence suite enforces."""
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "hotpath_equiv",
            os.path.join(REPO_ROOT, "tests", "test_hotpath_equivalence.py"),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        report = _load_json("BENCH_pareto.json")
        assert report["front"] == mod.PINNED_PARETO_FRONT
        assert report["cell"] == mod.CELL_PARETO.key()


class TestReadmeObservability:
    def test_counter_table_matches_registry(self):
        """The README Observability table is generated from
        repro.obs.counters.COUNTERS and the promtext name mapping —
        every registered counter must have an exact row, and no row
        may name an unregistered counter."""
        from repro.obs.counters import COUNTERS
        from repro.obs.promtext import metric_name

        readme = _read("README.md")
        for counter, help_text in COUNTERS.items():
            row = (f"| `{counter}` | `{metric_name(counter)}` "
                   f"| {help_text} |")
            assert row in readme, (
                f"README Observability table does not match the "
                f"registry for {counter}: expected {row!r}"
            )
        for m in re.finditer(r"\| `([a-z]+\.[a-z_]+)` \| `repro_", readme):
            assert m.group(1) in COUNTERS, (
                f"README documents unregistered counter {m.group(1)!r}"
            )

    def test_architecture_covers_obs(self):
        text = _read("ARCHITECTURE.md")
        assert "obs/" in text
        assert "## The observability layer (`obs/`)" in text
        assert "REPRO_OBS" in text


class TestExperimentsSection13:
    def test_section_exists_with_commands(self):
        text = _read("EXPERIMENTS.md")
        assert "## 13. Observability" in text
        section = text.split("## 13.")[1]
        assert "bench_obs.py" in section
        assert "repro profile" in section
        assert "tests/test_obs.py" in section

    def test_counter_table_matches_bench(self):
        """The §13 table is generated from BENCH_obs.json — both are
        committed, so every per-mode counter row must agree."""
        report = _load_json("BENCH_obs.json")
        assert report["reps_identical"], (
            "committed bench violates its own rep-to-rep identity check"
        )
        assert report["jobs_identical"], (
            "committed bench violates its own --jobs identity check"
        )
        modes = ["legacy", "incremental"]
        assert set(modes) == set(report["modes"])
        names = sorted({c for m in modes for c in report["modes"][m]})
        section = _read("EXPERIMENTS.md").split("## 13.")[1]
        squashed = " ".join(section.split())
        for counter in names:
            cells = [str(report["modes"][m].get(counter, "—"))
                     for m in modes]
            row = f"| `{counter}` | " + " | ".join(cells) + " |"
            assert " ".join(row.split()) in squashed, (
                f"EXPERIMENTS §13 row for {counter} does not match "
                f"BENCH_obs.json: expected {row!r}"
            )

    def test_golden_cell_matches_obs_suite(self):
        """§13's incremental column must be the same snapshot the
        golden pin in tests/test_obs.py enforces, on the same cell."""
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "obs_tests", os.path.join(REPO_ROOT, "tests", "test_obs.py"),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        report = _load_json("BENCH_obs.json")
        assert report["modes"]["incremental"] == mod.GOLDEN_INCREMENTAL_N40
        assert report["cell"] == mod._pinned_cell().key()
