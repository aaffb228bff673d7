"""Experiment harness: regenerates every table and figure of the paper."""

from repro.experiments.config import (
    Cell,
    Scale,
    SCALES,
    current_scale,
    ALGORITHM_NAMES,
    TOPOLOGY_NAMES,
)
from repro.experiments.runner import (
    CellResult,
    SweepReport,
    build_cell_system,
    run_cell,
    run_cells,
)
from repro.experiments.cache import ResultCache
from repro.experiments.aggregate import mean_by
from repro.experiments.figures import (
    FigureSeries,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure_cells,
    runtime_study,
)
from repro.experiments.reporting import (
    render_figure,
    render_improvement_summary,
)
from repro.experiments.paper_example import (
    build_figure1_graph,
    build_paper_system,
    run_paper_example,
    TABLE1_EXEC_COSTS,
)

__all__ = [
    "Cell",
    "Scale",
    "SCALES",
    "current_scale",
    "ALGORITHM_NAMES",
    "TOPOLOGY_NAMES",
    "corpus_paths",
    "corpus_cells",
    "corpus_table",
    "CellResult",
    "SweepReport",
    "run_cell",
    "run_cells",
    "build_cell_system",
    "ResultCache",
    "mean_by",
    "FigureSeries",
    "figure_cells",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "runtime_study",
    "render_figure",
    "render_improvement_summary",
    "build_figure1_graph",
    "build_paper_system",
    "run_paper_example",
    "TABLE1_EXEC_COSTS",
]


def __getattr__(name):
    # the §7 grid builds on corpus.manifest, which imports this package's
    # config: importing it here eagerly would close that cycle, so its
    # names resolve on demand
    if name in ("corpus_paths", "corpus_cells", "corpus_table"):
        from repro.experiments import external

        return getattr(external, name)
    raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
