"""Write ``reference.json``: the sha256 of every distinct output of the
three workloads at the default seed.

Each output is computed twice, on the default engine and on the
``legacy`` reference engine, and the file is written only when the two
agree byte for byte. Run it from the repository root after a change
that is meant to alter schedules::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from typing import Dict

import run


def digests() -> Dict[str, Dict[str, str]]:
    from repro.experiments.runner import run_cell
    from repro.service import ScheduleRequest, execute
    from workload_inputs import (
        DEFAULT_SEED,
        bsa_requests,
        serve_bodies,
        sweep_cells,
    )

    out: Dict[str, Dict[str, str]] = {}
    for workload, bodies in (
        ("serve_mixed", serve_bodies(DEFAULT_SEED, run.ROOT)),
        ("bsa_large", bsa_requests(DEFAULT_SEED)),
    ):
        out[workload] = {}
        for body in bodies:
            req = ScheduleRequest.from_dict(body)
            resp = execute(req, use_cache=False)
            out[workload][req.idempotency_key()] = run.sha256(
                resp.bundle_text.encode("utf-8"))
    out["paper_sweep"] = {
        cell.key(): run.cell_digest(run_cell(cell, use_cache=False))
        for cell in sweep_cells(DEFAULT_SEED)
    }
    return out


def main() -> int:
    run.prepare()
    from repro.util.intervals import hotpath_mode, set_hotpath_mode
    from workload_inputs import DEFAULT_SEED

    engine = hotpath_mode()
    default = digests()
    previous = set_hotpath_mode("legacy")
    try:
        legacy = digests()
    finally:
        set_hotpath_mode(previous)
    mismatched = [
        (workload, key)
        for workload, table in default.items()
        for key, digest in table.items()
        if legacy[workload].get(key) != digest
    ]
    if mismatched:
        for workload, key in mismatched:
            print(f"{workload} {key}: {engine} and legacy engines differ",
                  file=sys.stderr)
        return 1
    doc = {"seed": DEFAULT_SEED, "engine": engine, "cross_checked": "legacy",
           **default}
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}: "
          + ", ".join(f"{w} {len(t)}" for w, t in default.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
