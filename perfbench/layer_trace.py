"""Per-layer spans for the benchmark's traced run.

The traced run wraps each layer's public function at the module
attribute its caller resolves (``repro.core.migration.settle_incremental``,
``repro.experiments.runner.validate_schedule``, ``ResultCache.get`` ...)
and keeps every call as an in-memory span: name, start, end, parent and
request id. A layer's self time is its spans' time minus the time of the
spans nested directly inside them. No code under ``src/`` is touched:
the wrappers are installed by :meth:`Tracer.install` and removed by
:meth:`Tracer.restore`.

A target that no longer exists (after a refactor renames or deletes it)
is skipped; a layer none of whose targets exist is reported as absent.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, [(module, owner, attribute)], keep span records). ``owner``
#: is None for a module function, a class name for a method, or the
#: name of a module-level dict whose entry is wrapped.
#: Timeline.from_items runs hundreds of thousands of times in a BSA run,
#: so its calls are aggregated but not kept as span records.
LAYERS: Tuple[Tuple[str, List[Tuple[str, Optional[str], str]], bool], ...] = (
    ("graph.interchange.load", [
        ("repro.graph.interchange", None, "loads_workload"),
        ("repro.graph.interchange", None, "load_workload"),
    ], True),
    ("network.build_system", [
        ("repro.service.pipeline", None, "build_schedule_system"),
        ("repro.experiments.runner", None, "build_cell_system"),
    ], True),
    ("baselines.schedule", [
        ("repro.experiments.runner", "_SCHEDULERS", name)
        for name in ("heft", "dls", "cpop", "spdecomp", "etf")
    ], True),
    ("core.bsa.schedule", [
        ("repro.core.bsa", None, "schedule_bsa"),
        ("repro.experiments.runner", None, "schedule_bsa"),
    ], True),
    ("schedule.settle", [
        ("repro.core.migration", None, "settle_incremental"),
        ("repro.core.migration", None, "settle_array"),
        ("repro.core.migration", None, "settle"),
        ("repro.schedule.settle", None, "settle"),
    ], True),
    ("util.intervals.timeline_rebuild", [
        ("repro.util.intervals", "Timeline", "from_items"),
    ], False),
    ("schedule.validator", [
        ("repro.schedule.validator", None, "validate_schedule"),
        ("repro.experiments.runner", None, "validate_schedule"),
    ], True),
    ("schedule.metrics", [
        ("repro.schedule.metrics", None, "compute_metrics"),
        ("repro.experiments.runner", None, "compute_metrics"),
    ], True),
    ("schedule.io.encode", [
        ("repro.schedule.io", None, "relabel_schedule"),
        ("repro.schedule.io", None, "bundle_to_json"),
    ], True),
    ("experiments.cache.get", [
        ("repro.experiments.cache", "ResultCache", "get"),
    ], True),
    ("experiments.cache.put", [
        ("repro.experiments.cache", "ResultCache", "put"),
        ("repro.experiments.cache", "ResultCache", "put_many"),
    ], True),
    ("dynamic.simulate", [
        ("repro.dynamic", None, "simulate_scenario"),
    ], True),
    ("objectives.evaluate", [
        ("repro.experiments.runner", None, "evaluate_objectives"),
    ], True),
)

_MISSING = object()


class _Frame:
    __slots__ = ("layer", "span_id", "start", "child_s", "outer")

    def __init__(self, layer, span_id, start, outer):
        self.layer = layer
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0
        self.outer = outer


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (id, layer, start, end, parent id or None, request id)
        self.spans: List[Tuple[int, str, float, float, Optional[int], Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        #: time in a layer's outermost spans (same-layer nesting counted once)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: counts the observers pull out of return values
        self.counts: Dict[str, int] = defaultdict(int)
        self.present: set = set()
        self.request: Any = None
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ----------------------------------------------
    def _enter(self, layer: str) -> _Frame:
        outer = all(f.layer != layer for f in self._stack)
        self._next_id += 1
        frame = _Frame(layer, self._next_id, time.perf_counter(), outer)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, record: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dur
        layer = frame.layer
        self.calls[layer] += 1
        self.self_s[layer] += dur - frame.child_s
        if frame.outer:
            self.inclusive_s[layer] += dur
        self.durations[layer].append(dur)
        if record:
            self.spans.append((
                frame.span_id, layer, frame.start, end,
                parent.span_id if parent is not None else None,
                self.request,
            ))

    @contextlib.contextmanager
    def span(self, layer: str, request: Any = None) -> Iterator[None]:
        """A span opened by the benchmark itself around one operation;
        ``request`` becomes the request id of every span inside it."""
        previous, self.request = self.request, request
        self.present.add(layer)
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame, True)
            self.request = previous

    # -- wrapping --------------------------------------------------------
    def _wrap_function(self, fn: Callable, layer: str, record: bool,
                       observe: Optional[Callable]) -> Callable:
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, record)
            if observe is not None:
                observe(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, module: str, owner: Optional[str], attr: str, layer: str,
             record: bool = True,
             observe: Optional[Callable] = None) -> bool:
        """Wrap one target; False when it does not exist."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        target = mod if owner is None else getattr(mod, owner, _MISSING)
        if target is _MISSING:
            return False
        if isinstance(target, dict):
            original = target.get(attr, _MISSING)
            if original is _MISSING:
                return False
            target[attr] = self._wrap_function(original, layer, record, observe)
            self._patches.append((target, attr, original))
            return True
        raw = vars(target).get(attr, _MISSING) if isinstance(target, type) \
            else getattr(target, attr, _MISSING)
        if raw is _MISSING:
            return False
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self._wrap_function(raw.__func__, layer, record, observe))
        else:
            wrapped = self._wrap_function(raw, layer, record, observe)
        setattr(target, attr, wrapped)
        self._patches.append((target, attr, raw))
        return True

    def install(self) -> None:
        """Wrap every target in :data:`LAYERS`."""
        for layer, targets, record in LAYERS:
            for module, owner, attr in targets:
                observe = _OBSERVERS.get((module, owner, attr))
                if self.wrap(module, owner, attr, layer, record, observe):
                    self.present.add(layer)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- export ----------------------------------------------------------
    def chrome_records(self, track: str) -> List[Dict[str, Any]]:
        """Span records in the shape ``repro.obs.chrometrace`` exports:
        one track per request, so a request's breakdown reads as one
        stack in Perfetto."""
        if not self.spans:
            return []
        t0 = min(s[2] for s in self.spans)
        return [{
            "name": layer,
            "start_s": start - t0,
            "dur_s": end - start,
            "thread": f"{track} request {request}",
            "attrs": {"span": span_id, "parent": parent, "request": request},
        } for span_id, layer, start, end, parent, request in self.spans]


def _count_bundle_bytes(tracer: Tracer, text: str) -> None:
    tracer.counts["bundle_bytes"] += len(text)


def _count_repairs(tracer: Tracer, sim: Any) -> None:
    records = getattr(sim, "records", ())
    tracer.counts["events"] += len(records)
    tracer.counts["repairs"] += sum(
        1 for r in records if getattr(r, "strategy", None) == "repair")


_OBSERVERS = {
    ("repro.schedule.io", None, "bundle_to_json"): _count_bundle_bytes,
    ("repro.dynamic", None, "simulate_scenario"): _count_repairs,
}
