"""Schedule building blocks: task slots, message hops, routes.

Times on these objects are *derived* state — either set by the settle pass
(BSA) or directly by a monotonic list scheduler (DLS). The authoritative
state of an order-based schedule is the occupant order on each processor
and link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.graph.model import TaskId
from repro.network.topology import Link, Proc, link_id

Edge = Tuple[TaskId, TaskId]


@dataclass(slots=True)
class TaskSlot:
    """Execution of one task on one processor over ``[start, finish)``.

    ``cost`` caches the exact execution cost the slot was created with so
    the settle pass need not re-derive it (``finish - start`` is *not* a
    substitute: after float rounding it can differ from the cost in the
    last bit). ``None`` means "unknown, look it up".

    ``slots=True``: these objects are the unit of work of every settle
    pass; slotted attribute access measurably speeds the hottest loops.
    """

    task: TaskId
    proc: Proc
    start: float = 0.0
    finish: float = 0.0
    cost: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(slots=True)
class MessageHop:
    """One link traversal of a message.

    ``src``/``dst`` give the direction; ``link`` is the canonical
    (undirected) link id, i.e. ``link == link_id(src, dst)``.

    ``_rpos``/``_chan`` are backrefs stamped by
    :meth:`repro.schedule.schedule.Schedule.set_route` (index within the
    owning route, reservation channel) for the incremental settle
    engine; they carry no independent information, so they are excluded
    from comparison and repr.
    """

    edge: Edge
    src: Proc
    dst: Proc
    start: float = 0.0
    finish: float = 0.0
    #: exact communication cost at creation (see TaskSlot.cost)
    cost: Optional[float] = None
    _rpos: int = field(default=0, compare=False, repr=False)
    _chan: Optional[Link] = field(default=None, compare=False, repr=False)

    @property
    def link(self) -> Link:
        return link_id(self.src, self.dst)

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class Route:
    """The full multi-hop path of one message between two processors.

    ``hops`` is ordered from the producer's processor toward the
    consumer's. An empty route means the message is local (zero cost).
    """

    edge: Edge
    hops: List[MessageHop] = field(default_factory=list)

    @property
    def is_local(self) -> bool:
        return not self.hops

    @property
    def procs(self) -> List[Proc]:
        """Processor sequence visited by the message (empty when local)."""
        if not self.hops:
            return []
        seq = [self.hops[0].src]
        seq.extend(h.dst for h in self.hops)
        return seq

    @property
    def arrival(self) -> float:
        """Finish time on the last hop (message finish time at destination)."""
        return self.hops[-1].finish if self.hops else 0.0
