"""Assembly of the paper's two experimental suites.

* Regular suite: Gaussian elimination, LU decomposition, Laplace solver,
  and mean value analysis, with sizes approximating 50..500 in steps of 50
  and granularities {0.1, 1.0, 10.0}. (The paper's text says "three graph
  types" but enumerates these four applications; we implement all four and
  let callers subset.)
* Random suite: layered random DAGs over the same sizes/granularities.

``regular_graph`` solves the structural parameter (matrix dimension / grid
side) whose task count is closest to the requested size — the same thing
the paper does when it "varies N such that the graph size varies from
approximately 50 to 500".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import WorkloadError
from repro.graph.model import TaskGraph
from repro.workloads.gaussian import gaussian_elimination, gaussian_size
from repro.workloads.granularity import apply_granularity
from repro.workloads.laplace import laplace_size, laplace_solver
from repro.workloads.lu import lu_decomposition, lu_size
from repro.workloads.mva import mean_value_analysis, mva_size
from repro.workloads.random_graphs import random_layered_graph

#: app name -> (builder(param, mean_exec), size(param)) — the paper's suite
REGULAR_APPS: Dict[str, Tuple[Callable, Callable]] = {
    "gauss": (gaussian_elimination, gaussian_size),
    "lu": (lu_decomposition, lu_size),
    "laplace": (laplace_solver, laplace_size),
    "mva": (mean_value_analysis, mva_size),
}

#: extension workloads beyond the paper's suite, addressable by
#: :func:`regular_graph` but never part of the paper-grid experiments.
#: FFT's structural parameter is the log2 of the point count; fork-join is
#: parameterized by depth at a fixed width of 8 workers.
EXTENSION_APPS: Dict[str, Tuple[Callable, Callable]] = {
    "fft": (
        lambda p, mean_exec=150.0: _fft(2 ** p, mean_exec),
        lambda p: _fft_size(2 ** p),
    ),
    "forkjoin": (
        lambda p, mean_exec=150.0: _forkjoin(p, 8, mean_exec),
        lambda p: _forkjoin_size(p, 8),
    ),
}


#: every generated workload family, the random suite first: the CLI's
#: ``--workload`` choices and the apps a service grid may name
WORKLOAD_NAMES = ("random", *REGULAR_APPS, *EXTENSION_APPS)


def _fft(n, mean_exec):
    from repro.workloads.fft import fft_butterfly

    return fft_butterfly(n, mean_exec)


def _fft_size(n):
    from repro.workloads.fft import fft_size

    return fft_size(n)


def _forkjoin(depth, width, mean_exec):
    from repro.workloads.forkjoin import fork_join

    return fork_join(depth, width, mean_exec)


def _forkjoin_size(depth, width):
    from repro.workloads.forkjoin import forkjoin_size

    return forkjoin_size(depth, width)


def paper_sizes() -> List[int]:
    """Graph sizes used in the paper: 50..500 step 50.

    >>> paper_sizes()[:3]
    [50, 100, 150]
    """
    return list(range(50, 501, 50))


def paper_granularities() -> List[float]:
    """Granularities used in the paper.

    >>> paper_granularities()
    [0.1, 1.0, 10.0]
    """
    return [0.1, 1.0, 10.0]


#: the most tasks a generated graph is asked for: the graph is built in
#: memory before anything runs, so no size from a request goes past it
MAX_TASKS = 100_000


def _check_size(size: int) -> None:
    if size > MAX_TASKS:
        raise WorkloadError(
            f"a generated graph has at most {MAX_TASKS} tasks, got size {size}")


def _solve_param(size_fn: Callable[[int], int], target: int) -> int:
    """Smallest structural parameter whose task count is closest to target."""
    best_param, best_err = 2, abs(size_fn(2) - target)
    param = 2
    while size_fn(param) < 4 * target + 8:
        err = abs(size_fn(param) - target)
        if err < best_err:
            best_param, best_err = param, err
        param += 1
    return best_param


def regular_graph(
    app: str,
    approx_size: int,
    granularity: float = 1.0,
    seed: int = 0,
    mean_exec: float = 150.0,
) -> TaskGraph:
    """A regular-application graph of approximately ``approx_size`` tasks.

    Accepts the paper's four applications plus the extension workloads
    (``fft``, ``forkjoin``).

    >>> g = regular_graph("gauss", 50, granularity=1.0, seed=0)
    >>> g.name, g.n_tasks
    ('gauss(n=54,g=1)', 54)
    """
    registry = {**REGULAR_APPS, **EXTENSION_APPS}
    try:
        builder, size_fn = registry[app]
    except KeyError:
        raise WorkloadError(
            f"unknown regular app {app!r}; choose from {sorted(registry)}"
        ) from None
    _check_size(approx_size)
    param = _solve_param(size_fn, approx_size)
    graph = builder(param, mean_exec=mean_exec)
    apply_granularity(graph, granularity, seed=seed)
    graph.name = f"{app}(n={graph.n_tasks},g={granularity:g})"
    return graph


def random_graph(
    n_tasks: int,
    granularity: float = 1.0,
    seed: int = 0,
) -> TaskGraph:
    """A random-suite graph: exec U[100, 200], comm set by granularity.

    >>> g = random_graph(60, granularity=0.1, seed=4)
    >>> g.n_tasks, g.name
    (60, 'random(n=60,g=0.1,seed=4)')
    """
    _check_size(n_tasks)
    graph = random_layered_graph(n_tasks, seed=seed)
    apply_granularity(graph, granularity, seed=seed)
    graph.name = f"random(n={n_tasks},g={granularity:g},seed={seed})"
    return graph
