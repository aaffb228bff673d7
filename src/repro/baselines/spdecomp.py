"""Series-parallel decomposition mapper (extension beyond the paper).

The series-parallel view of a task graph (classic in the pipelined
multi-criteria literature — see PAPERS.md) decomposes it into *series
chains* (maximal linear paths: every interior edge joins an
out-degree-1 producer to an in-degree-1 consumer) composed in parallel.
A chain's tasks have no external fan-in or fan-out between them, so any
placement that splits a chain across processors pays communication for
zero gained parallelism.

The mapper exploits exactly that: it walks tasks in HEFT's upward-rank
order, and when it meets the *head* of a chain it selects the processor
minimizing the head's earliest finish time **plus the remaining chain's
execution cost on that processor** — a lookahead that prices the whole
series segment, not just its first task. Every later member of the
chain is pinned to the head's processor (committed with slot insertion,
so unrelated chains can still interleave). Messages between chains are
routed over the shortest-path table with exclusive link reservations —
the same contention substrate as BSA/DLS/HEFT, so the comparison is
apples-to-apples.

On chain-heavy graphs (Gaussian elimination, LU) this collapses whole
dependency spines onto one processor and avoids HEFT's occasional
ping-ponging of a linear sequence between processors; on fan-out-heavy
graphs it degrades gracefully to per-task EFT placement (every chain
has length 1).
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.model import TaskId
from repro.graph.validation import validate_graph
from repro.network.routing import RoutingTable
from repro.network.system import HeterogeneousSystem
from repro.network.topology import Proc
from repro.baselines.common import ListScheduleBuilder
from repro.baselines.heft import upward_ranks
from repro.schedule.schedule import Schedule


def series_chains(graph) -> Dict[TaskId, List[TaskId]]:
    """Decompose ``graph`` into maximal series chains.

    Returns ``{head: [head, m1, m2, ...]}`` covering every task exactly
    once. An edge ``u -> v`` is *serial* when ``u`` has out-degree 1 and
    ``v`` has in-degree 1 — then ``v`` can only ever run after ``u`` and
    receives data from nobody else, so the pair belongs to one chain.
    Tasks with no serial edge form singleton chains.
    """
    succ_of: Dict[TaskId, TaskId] = {}
    has_serial_pred = set()
    for u in graph.tasks():
        succs = list(graph.successors(u))
        if len(succs) != 1:
            continue
        v = succs[0]
        if len(list(graph.predecessors(v))) == 1:
            succ_of[u] = v
            has_serial_pred.add(v)
    chains: Dict[TaskId, List[TaskId]] = {}
    for t in graph.tasks():
        if t in has_serial_pred:
            continue  # interior/tail of some chain
        chain = [t]
        while chain[-1] in succ_of:
            chain.append(succ_of[chain[-1]])
        chains[t] = chain
    return chains


def schedule_spdecomp(system: HeterogeneousSystem) -> Schedule:
    """Run the series-parallel decomposition mapper.

    >>> from repro.network.system import HeterogeneousSystem
    >>> from repro.network.topology import ring
    >>> from repro.workloads.suites import random_graph
    >>> system = HeterogeneousSystem.sample(
    ...     random_graph(12, seed=3), ring(4), seed=0)
    >>> schedule = schedule_spdecomp(system)
    >>> schedule.algorithm, len(schedule.slots)
    ('SPDECOMP', 12)
    """
    validate_graph(system.graph)
    graph = system.graph
    builder = ListScheduleBuilder(
        system,
        algorithm="SPDECOMP",
        routing=RoutingTable(system.topology),
        link_insertion=True,
        proc_insertion=True,
    )
    chains = series_chains(graph)
    # tail exec cost per chain head: chain cost minus the head's own
    tail_of: Dict[TaskId, List[TaskId]] = {
        head: chain[1:] for head, chain in chains.items()
    }
    rank = upward_ranks(system)
    order_index = {t: k for k, t in enumerate(graph.tasks())}
    # descending rank is precedence-safe: rank(parent) > rank(child),
    # and a chain head always outranks its members (it precedes them).
    order = sorted(graph.tasks(), key=lambda t: (-rank[t], order_index[t]))

    pin: Dict[TaskId, Proc] = {}
    for task in order:
        if task in pin:
            builder.place(task, pin[task])
            continue
        # price the whole series segment on each processor
        tail = tail_of.get(task, [])
        proc = builder.place_earliest_finish(task, tail)
        for member in tail:
            pin[member] = proc
    return builder.finish()
