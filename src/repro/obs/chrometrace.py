"""Chrome ``chrome://tracing`` JSON export (also loads in Perfetto).

Two exporters share the format:

* :func:`spans_to_trace` — the span records collected by
  :mod:`repro.obs.spans` as duration events (one row per thread);
* :func:`schedule_trace` — the **committed schedule itself** as a
  Gantt: every processor is a thread row carrying its task slices,
  every directed link is a thread row carrying its message-hop
  slices, and every non-local message is a flow arrow from the
  producer's slice to the consumer's. Any schedule bundle (or bare
  schedule export) becomes an openable trace via ``repro trace``.

Schedule times are in the paper's abstract cost units; the export maps
one unit to one millisecond (``ts`` is microseconds in the format), so
relative proportions — the only meaningful quantity — are preserved.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import SchedulingError

__all__ = ["spans_to_trace", "schedule_trace", "trace_to_json"]

#: one schedule cost unit, in trace microseconds (renders as 1 ms)
_UNIT_US = 1000.0


def spans_to_trace(records: List[Dict[str, Any]],
                   counters: Optional[Dict[str, int]] = None) -> dict:
    """Span records (``obs.span_records()``) as a trace document."""
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1,
         "args": {"name": "repro spans"}},
    ]
    tids: Dict[str, int] = {}
    for rec in records:
        thread = rec.get("thread", "main")
        tid = tids.get(thread)
        if tid is None:
            tid = tids[thread] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": thread},
            })
        event = {
            "ph": "X",
            "name": rec["name"],
            "pid": 1,
            "tid": tid,
            "ts": rec["start_s"] * 1e6,
            "dur": rec["dur_s"] * 1e6,
        }
        if rec.get("attrs"):
            event["args"] = dict(rec["attrs"])
        events.append(event)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if counters:
        doc["otherData"] = {"counters": dict(counters)}
    return doc


def schedule_trace(data: dict) -> dict:
    """Gantt trace of a committed schedule (bundle or schedule dict).

    The schedule section is read through
    :func:`repro.schedule.io.read_schedule_section`, so a malformed
    field is a ``SchedulingError`` naming it.
    """
    from repro.schedule.io import BUNDLE_FORMAT, read_schedule_section

    if not isinstance(data, dict):
        raise SchedulingError("trace input must be a JSON object")
    doc = data.get("schedule") if data.get("format") == BUNDLE_FORMAT else data
    tasks, messages = read_schedule_section(doc)
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1,
         "args": {"name": "processors"}},
        {"ph": "M", "name": "process_name", "pid": 2,
         "args": {"name": "links"}},
    ]

    proc_of: Dict[str, int] = {}
    procs_seen = set()
    for task, proc, start, finish in tasks:
        proc_of[task] = proc
        if proc not in procs_seen:
            procs_seen.add(proc)
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": proc,
                "args": {"name": f"P{proc}"},
            })
        events.append({
            "ph": "X",
            "name": task,
            "cat": "task",
            "pid": 1,
            "tid": proc,
            "ts": start * _UNIT_US,
            "dur": max(finish - start, 0.0) * _UNIT_US,
        })

    link_tids: Dict[str, int] = {}
    flow_id = 0
    for u, v, local, hops in messages:
        name = f"{u}->{v}"
        for src, dst, start, finish in hops:
            link = f"{src}->{dst}"
            tid = link_tids.get(link)
            if tid is None:
                tid = link_tids[link] = len(link_tids) + 1
                events.append({
                    "ph": "M", "name": "thread_name", "pid": 2, "tid": tid,
                    "args": {"name": link},
                })
            events.append({
                "ph": "X",
                "name": name,
                "cat": "message",
                "pid": 2,
                "tid": tid,
                "ts": start * _UNIT_US,
                "dur": max(finish - start, 0.0) * _UNIT_US,
            })
        if local or not hops:
            continue
        up, vp = proc_of.get(u), proc_of.get(v)
        if up is None or vp is None:
            continue
        flow_id += 1
        # flow arrow: leaves the producer's slice at the first hop's
        # departure, lands on the consumer's slice at the last arrival
        events.append({
            "ph": "s", "id": flow_id, "name": name, "cat": "message",
            "pid": 1, "tid": up, "ts": hops[0][2] * _UNIT_US,
        })
        events.append({
            "ph": "f", "bp": "e", "id": flow_id, "name": name,
            "cat": "message",
            "pid": 1, "tid": vp, "ts": hops[-1][3] * _UNIT_US,
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "algorithm": doc.get("algorithm"),
            "graph": doc.get("graph"),
            "topology": doc.get("topology"),
            "schedule_length": doc.get("schedule_length"),
            "time_scale": "1 schedule unit = 1 ms",
        },
    }


def trace_to_json(doc: dict) -> str:
    """Serialize a trace document (stable key order, one trailing \\n)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
