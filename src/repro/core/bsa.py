"""The BSA main loop (paper §2.3, "BSA ALGORITHM").

1. Pick the first pivot (shortest actual-cost CP) and serialize the whole
   program onto it.
2. Visit every processor once, breadth-first from the first pivot.
3. While a processor is pivot, consider each task on it (in schedule
   order, which the serialization made topological): a task is examined
   when it starts later than its data-ready time or its VIP lives
   elsewhere; it migrates to the neighbor minimizing its finish time, or —
   when no neighbor strictly improves FT — to a neighbor that matches the
   current FT *and* hosts its VIP (so successors may improve later).

Options expose the paper's ambiguities and our ablations:

* ``migration_trigger``: ``"always"`` (default — the ICPP text's literal
  examination condition ``FT > DRT``, which is vacuously true for
  positive-cost tasks, so every task on the pivot is examined) or
  ``"st_gt_drt"`` (the journal formulation: examine only tasks that
  start strictly after their data is ready or whose VIP lives
  elsewhere). The default follows the source (ICPP 1999) paper; the
  journal variant is kept as an ablation. A regression test pins the
  default (``tests/test_bsa.py::TestOptions``).
* ``vip_follow``: disable the equal-FT VIP-following heuristic.
* ``insertion``: earliest-gap insertion vs pure append (ablation).
* ``truncate_routes``: disable route truncation (ablation; routes then
  always extend hop-by-hop, possibly doubling back).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, CycleError
from repro.graph.model import TaskId
from repro.graph.validation import validate_graph
from repro.network.routing import shortest_path, shortest_path_trie
from repro.network.system import HeterogeneousSystem
from repro.network.topology import Proc
from repro.obs import counters as _obs
from repro.core import migration as _migration
from repro.core.migration import (
    MigrationPlan,
    commit_migration,
    current_drt_vip,
    evaluate_migration,
)
from repro.core.serialization import PivotSelection, serial_injection
from repro.schedule.linkplan import (
    chain_arrival_bounds,
    committed_arrival_bounds,
    one_hop_arrival_bounds,
)
from repro.schedule.schedule import Schedule
from repro.util.intervals import reference_mode
from repro.util.rng import RngStream
from repro.util.tolerance import EPS as _EPS

_TRIGGERS = ("st_gt_drt", "always")


@dataclass(frozen=True)
class BSAOptions:
    """Tunable knobs of the BSA scheduler (defaults follow the paper)."""

    #: "always" is the ICPP text's literal (and vacuously true) FT > DRT
    #: examination condition — the paper-faithful default; "st_gt_drt" is
    #: the journal formulation, kept as an ablation (see module docstring)
    migration_trigger: str = "always"
    vip_follow: bool = True
    insertion: bool = True
    truncate_routes: bool = True
    #: "shortest" (default) rebuilds message routes over on-demand BFS
    #: shortest paths on every migration; "incremental" is the ICPP text's
    #: literal hop-by-hop extension (ablation; routes wander and inflate
    #: communication — see EXPERIMENTS.md).
    route_mode: str = "shortest"
    #: "global" (default) lets a task migrate to *any* processor (messages
    #: still pay full multi-hop contention along shortest routes);
    #: "neighbors" is the ICPP text's literal one-hop scope (ablation; on
    #: sparse topologies the migration frontier freezes a few hops from
    #: the first pivot and most processors stay empty — see EXPERIMENTS.md).
    migration_scope: str = "global"
    #: how many breadth-first sweeps over all processors to run. The ICPP
    #: pseudocode describes a single sweep; ``0`` means "sweep until a full
    #: pass makes no migration" (capped at ``n_procs`` sweeps), which the
    #: prose's "this incremental scheduling by migration process is
    #: repeated" supports and which is required to reproduce the paper's
    #: relative results (see DESIGN.md interpretation notes).
    n_sweeps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.migration_trigger not in _TRIGGERS:
            raise ConfigurationError(
                f"migration_trigger must be one of {_TRIGGERS}, "
                f"got {self.migration_trigger!r}"
            )
        if self.n_sweeps < 0:
            raise ConfigurationError(f"n_sweeps must be >= 0, got {self.n_sweeps}")
        from repro.core.migration import ROUTE_MODES

        if self.route_mode not in ROUTE_MODES:
            raise ConfigurationError(
                f"route_mode must be one of {ROUTE_MODES}, got {self.route_mode!r}"
            )
        if self.migration_scope not in ("global", "neighbors"):
            raise ConfigurationError(
                f"migration_scope must be 'global' or 'neighbors', "
                f"got {self.migration_scope!r}"
            )
        if self.migration_scope == "global" and self.route_mode == "incremental":
            raise ConfigurationError(
                "migration_scope='global' requires route_mode='shortest' "
                "(incremental routes are only defined for one-hop moves)"
            )


@dataclass
class BSAStats:
    """Run statistics (exposed for tests, ablations and reports)."""

    pivot_sequence: List[Proc] = field(default_factory=list)
    first_pivot: Proc = -1
    n_examined: int = 0
    n_evaluated: int = 0
    #: candidates skipped by the engine's exact lower-bound screen
    #: (always 0 in the legacy reference mode)
    n_pruned: int = 0
    #: examined tasks whose every candidate the one-hop bound pruned, so
    #: the screen walked no route trie (always 0 in the legacy mode)
    n_walks_skipped: int = 0
    n_migrations: int = 0
    n_vip_migrations: int = 0
    n_rejected_migrations: int = 0
    n_sweeps_run: int = 0
    serial_length: float = 0.0


class BSAScheduler:
    """Bubble Scheduling and Allocation over one bound system."""

    def __init__(self, system: HeterogeneousSystem, options: Optional[BSAOptions] = None):
        self.system = system
        self.options = options or BSAOptions()
        self.stats = BSAStats()
        self.selection: Optional[PivotSelection] = None

    def run(self) -> Schedule:
        """Produce a complete, settled schedule."""
        validate_graph(self.system.graph)
        rng = RngStream(self.options.seed).fork("bsa", self.system.graph.name)

        self.selection, sched = serial_injection(self.system, rng)
        sched.algorithm = "BSA"
        self.stats.first_pivot = self.selection.pivot
        self.stats.serial_length = sched.schedule_length()

        pivots = self.system.topology.bfs_order(self.selection.pivot)
        self.stats.pivot_sequence = pivots
        max_sweeps = self.options.n_sweeps or self.system.topology.n_procs
        until_stable = self.options.n_sweeps == 0

        # Per-task FT greed does not guarantee a shorter *makespan* (a
        # producer may migrate for its own finish time and strand a
        # consumer behind an expensive message), so keep the best schedule
        # seen at sweep boundaries — including the initial serialization.
        best = sched.copy()
        best_sl = sched.schedule_length()
        for sweep in range(max_sweeps):
            migrations_before = self.stats.n_migrations
            for pivot in pivots:
                self._run_phase(sched, pivot)
            self.stats.n_sweeps_run = sweep + 1
            sl = sched.schedule_length()
            if sl < best_sl - _EPS:
                best = sched.copy()
                best_sl = sl
            if until_stable and self.stats.n_migrations == migrations_before:
                break
        if _obs.ACTIVE:
            # fold the run's BSAStats into the process counter registry
            # once, at the end — zero per-candidate overhead
            s = self.stats
            _obs.inc("bsa.tasks_examined", s.n_examined)
            _obs.inc("bsa.candidates_evaluated", s.n_evaluated)
            _obs.inc("bsa.candidates_pruned", s.n_pruned)
            _obs.inc("bsa.walks_skipped", s.n_walks_skipped)
            _obs.inc("bsa.migrations", s.n_migrations)
            _obs.inc("bsa.vip_migrations", s.n_vip_migrations)
            _obs.inc("bsa.rejected_migrations", s.n_rejected_migrations)
            _obs.inc("bsa.sweeps", s.n_sweeps_run)
        return best if best_sl < sched.schedule_length() - _EPS else sched

    # ------------------------------------------------------------------
    def _run_phase(self, sched: Schedule, pivot: Proc) -> None:
        """Examine the pivot's tasks in their phase-start order.

        A phase that starts with every task on its pivot (the first one,
        after serial injection) *holds* the pivot's unexamined tasks:
        commit settles leave their times alone, and each task leaves the
        hold and is settled by itself just before it is examined. Every
        decision and every final time is the full settle's:

        * With every task on the pivot, every message is local (BSA
          routes only between different processors), and the settled,
          sorted order is topological, since every task costs more
          than 0.
        * Tasks leave the pivot only when examined, and the candidates
          never include the pivot, so every successor of a held task is
          held too and held tasks have no hops. No node outside the hold
          has a constraint predecessor inside it, so a settle that skips
          held tasks gives every other node the full pass's times, and a
          cycle, which cannot pass through the hold, raises as before.
        * Examining a task reads its own times, its predecessors'
          arrivals and other processors' and links' timelines, none of
          them held. Its own settle is a max over exact predecessor
          finishes, so it equals the full pass's value bit for bit.

        The hold is empty when the phase ends. The reference mode and
        graphs with a zero-cost edge (whose settles always take the
        full pass) hold nothing.
        """
        if self.options.migration_scope == "global":
            neighbors = [p for p in self.system.topology.processors if p != pivot]
        else:
            neighbors = self.system.topology.neighbors(pivot)
        if not neighbors:
            return
        # snapshot: schedule order on the pivot at phase start (topological)
        tasks = list(sched.proc_order[pivot])
        graph = self.system.graph
        hold = set(tasks) if (
            len(tasks) == graph.n_tasks and not reference_mode()
            and not graph.has_zero_cost_edge()) else set()
        for task in tasks:
            if hold:
                hold.discard(task)
                _migration.settle_incremental(sched, (task,), (), hold)
            if sched.proc_of(task) != pivot:
                continue  # defensive: cannot happen within a phase
            if not self._should_examine(sched, task, pivot):
                continue
            self.stats.n_examined += 1
            self._try_migrate(sched, task, pivot, neighbors, hold)

    def _should_examine(self, sched: Schedule, task: TaskId, pivot: Proc) -> bool:
        if self.options.migration_trigger == "always":
            return True
        drt, vip = current_drt_vip(sched, task)
        slot = sched.slots[task]
        if slot.start > drt + _EPS:
            return True
        return vip is not None and sched.proc_of(vip) != pivot

    def _try_migrate(
        self,
        sched: Schedule,
        task: TaskId,
        pivot: Proc,
        neighbors: List[Proc],
        hold: AbstractSet[TaskId] = frozenset(),
    ) -> None:
        opts = self.options
        current_ft = sched.slots[task].finish
        vip = current_drt_vip(sched, task)[1] if opts.vip_follow else None
        vip_proc = None if vip is None else sched.proc_of(vip)
        if reference_mode():
            plans = [
                evaluate_migration(
                    sched, task, nb,
                    insertion=opts.insertion, truncate=opts.truncate_routes,
                    route_mode=opts.route_mode,
                )
                for nb in neighbors
            ]
            self.stats.n_evaluated += len(plans)
            best = min(plans, key=lambda p: (p.ft, p.dst))
        else:
            plans, best = self._evaluate_candidates(
                sched, task, neighbors, vip_proc
            )

        # the screen may discard *every* candidate (each bound already
        # proves the plan cannot win) and return best=None
        if best is not None and best.ft < current_ft - _EPS:
            self._commit_transactional(sched, best, hold)
            return

        if vip_proc is None or vip_proc == pivot:
            return
        for plan in plans:
            if plan.dst == vip_proc and plan.ft <= current_ft + _EPS:
                if self._commit_transactional(sched, plan, hold):
                    self.stats.n_vip_migrations += 1
                return

    def _drt_lower_bounds(self, sched: Schedule, task: TaskId) -> List[float]:
        """Per-processor lower bound on ``task``'s data-ready time if it
        moved there (indexed by processor), for the append slot policy
        and incremental routes, where the committed-load walk is no
        bound.

        :func:`~repro.schedule.linkplan.chain_arrival_bounds` applies: the
        store-and-forward chain over the exact hop count under shortest
        routes and uniform hops, else the latest producer finish.
        """
        system = self.system
        topology = system.topology
        slots = sched.slots
        comm_cost = system.graph.comm_cost
        pred_info = [(slots[k].proc, slots[k].finish, comm_cost(k, task))
                     for k in system.graph.predecessors(task)]
        hop_row = (
            (lambda p: [len(shortest_path(topology, p, q)) - 1
                        for q in topology.processors])
            if self.options.route_mode == "shortest" and system.uniform_hops
            else None
        )
        return chain_arrival_bounds(pred_info, topology.n_procs, hop_row)

    def _screen_candidates(
        self,
        sched: Schedule,
        task: TaskId,
        neighbors: List[Proc],
        vip_proc: Optional[Proc],
    ) -> List[Tuple[float, Proc]]:
        """The candidates a finish-time lower bound cannot rule out, as
        ascending ``(bound, dst)`` pairs.

        Every plan's finish time satisfies ``ft >= DRT_lb + exec_cost(task,
        dst)``. A candidate is dropped once its bound proves its plan can
        neither beat the current finish time nor serve the VIP-follow
        step (the VIP processor is kept while it could still tie).

        Under shortest routes with insertion, ``DRT_lb`` is the max over
        messages of :func:`~repro.schedule.linkplan.committed_arrival_bounds`.
        The screen prunes first on
        :func:`~repro.schedule.linkplan.one_hop_arrival_bounds`, which
        never exceeds it; when that prunes every candidate, no trie is
        walked (``BSAStats.n_walks_skipped``). Otherwise each producer's
        trie is walked only toward the candidates still alive, pruning
        on the running max after each producer. An early bound is at most
        the full one, so it drops only candidates the full screen drops,
        and a survivor's bound is the full max bit for bit. Otherwise
        :meth:`_drt_lower_bounds` gives ``DRT_lb``.
        """
        opts = self.options
        system = self.system
        exec_row = system.exec_cost_row(task)
        current_ft = sched.slots[task].finish
        vip_limit = current_ft + 2 * _EPS

        def screen(lbs: List[float], procs: List[Proc]) -> List[Proc]:
            kept = []
            for nb in procs:
                bound = lbs[nb] + exec_row[nb]
                if bound < current_ft or (nb == vip_proc and bound <= vip_limit):
                    kept.append(nb)
            return kept

        if opts.route_mode == "shortest" and opts.insertion:
            slots = sched.slots
            topology = system.topology
            comm_cost = system.graph.comm_cost
            preds = system.graph.predecessors(task)
            lbs = one_hop_arrival_bounds(
                [(slots[k].proc, slots[k].finish, comm_cost(k, task))
                 for k in preds],
                topology.n_procs, system.uniform_hops,
            )
            alive = screen(lbs, neighbors)
            if not alive:
                self.stats.n_walks_skipped += 1
            tl_memo: Dict = {}
            for k in preds:
                if not alive:
                    break
                trie = shortest_path_trie(topology, slots[k].proc)
                kb = committed_arrival_bounds(sched, (k, task), trie, tl_memo,
                                              alive)
                for nb in alive:
                    if kb[nb] > lbs[nb]:
                        lbs[nb] = kb[nb]
                alive = screen(lbs, alive)
        else:
            lbs = self._drt_lower_bounds(sched, task)
            alive = screen(lbs, neighbors)
        self.stats.n_pruned += len(neighbors) - len(alive)
        return sorted((lbs[nb] + exec_row[nb], nb) for nb in alive)

    def _evaluate_candidates(
        self,
        sched: Schedule,
        task: TaskId,
        neighbors: List[Proc],
        vip_proc: Optional[Proc],
    ) -> Tuple[List[MigrationPlan], Optional[MigrationPlan]]:
        """Evaluate the candidates :meth:`_screen_candidates` keeps
        exactly, cheapest bound first.

        Survivors are visited in ascending ``(bound, dst)`` order so a
        strong incumbent is found early, and a survivor is skipped once
        its bound exceeds the best evaluated finish time — except the
        VIP processor, whose exact plan the VIP-follow step needs.

        Soundness margin: the exact evaluator's DRT is an epsilon-max
        (within ``DRT_EPS`` = 1e-12 *below* the plain max), so a bound
        may overshoot the true plan finish time by at most ``DRT_EPS``;
        every screen and prune here leaves at least ``_EPS`` (1e-9) of
        slack (both constants live in util/tolerance.py), so a skipped
        candidate's exact plan provably loses every comparison
        ``_try_migrate`` performs — the selected migration (and the
        schedule) stays bit-identical to exhaustive evaluation.
        """
        opts = self.options
        bounds = self._screen_candidates(sched, task, neighbors, vip_proc)
        plans: List[MigrationPlan] = []
        best: Optional[MigrationPlan] = None
        for bound, nb in bounds:
            if best is not None and nb != vip_proc and bound > best.ft + _EPS:
                self.stats.n_pruned += 1
                continue
            plan = evaluate_migration(
                sched, task, nb,
                insertion=opts.insertion, truncate=opts.truncate_routes,
                route_mode=opts.route_mode,
            )
            self.stats.n_evaluated += 1
            plans.append(plan)
            if best is None or (plan.ft, plan.dst) < (best.ft, best.dst):
                best = plan
        return plans, best

    def _commit_transactional(
        self,
        sched: Schedule,
        plan: MigrationPlan,
        hold: AbstractSet[TaskId],
    ) -> bool:
        """Commit a migration; revert and reject it if the resulting order
        constraints are contradictory (possible after multi-phase reroutes
        leave stale slot positions — rare, but must never corrupt state).
        The settle leaves the tasks in ``hold`` alone (see
        :meth:`_run_phase`).

        The engine records an undo log of the actual mutations
        (O(#mutations), no per-commit capture cost); the legacy reference
        mode deep-copies the schedule.
        """
        txn = None if reference_mode() else sched.begin_txn()
        snapshot = sched.copy() if txn is None else None
        try:
            commit_migration(
                sched, plan,
                insertion=self.options.insertion,
                truncate=self.options.truncate_routes,
                hold=hold,
            )
        except CycleError:
            if txn is None:
                sched.restore_from(snapshot)
            else:
                txn.rollback()
            self.stats.n_rejected_migrations += 1
            return False
        if txn is not None:
            sched.commit_txn()
        self.stats.n_migrations += 1
        return True


def schedule_bsa(
    system: HeterogeneousSystem,
    options: Optional[BSAOptions] = None,
) -> Schedule:
    """Convenience wrapper: run BSA and return the schedule.

    The schedule is complete (every task placed, every message routed)
    and identical under both ``REPRO_HOTPATH`` modes (the engine and the
    legacy reference oracle).

    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import ring
    >>> from repro.workloads.suites import random_graph
    >>> system = HeterogeneousSystem.sample(
    ...     random_graph(12, seed=3), ring(4), seed=0)
    >>> schedule = schedule_bsa(system)
    >>> schedule.algorithm, len(schedule.slots)
    ('BSA', 12)
    """
    return BSAScheduler(system, options).run()
