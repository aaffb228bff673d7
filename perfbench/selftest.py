"""Self-test of the benchmark at a tiny size.

Checks that

* the command prints, as its last line, a result whose metric names and
  units are exactly those ``BENCHMARK.json`` declares (end-to-end with
  ``--trace 0``, per-layer with ``--trace 1``), for every workload;
* a tampered reference digest shows up as a failed operation;
* measured runs never switch the engine: no call to
  ``set_hotpath_mode`` comes from the benchmark's own files, no call
  from the library changes the mode, and ``REPRO_HOTPATH`` is never set
  for the run or the server it starts.

Run it from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from typing import List

import run

SEED = 3


def check_metric_names(problems: List[str]) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    unknown = {w["name"] for w in bench["workloads"]} - set(run.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {unknown}")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{where}: metrics {sorted(printed)} != "
                                f"BENCHMARK.json {sorted(declared[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: not correct: {result}")


def check_tampered_reference(problems: List[str]) -> None:
    for workload in run.WORKLOADS:
        clean = run.run(workload, SEED, 1, False, "tiny", reference=None)
        digests = clean["digests"]
        honest = run.run(workload, SEED, 1, False, "tiny",
                         reference=dict(digests))
        if honest["result"]["failed"]:
            problems.append(f"{workload}: the run's own digests fail")
        key = sorted(digests)[0]
        tampered = dict(digests, **{key: "0" * 64})
        report = run.run(workload, SEED, 1, False, "tiny", reference=tampered)
        result = report["result"]
        if result["failed"] < 1 or result["correct"]:
            problems.append(f"{workload}: tampered digest for {key} "
                            f"not counted: {result}")


def check_engine_untouched(problems: List[str]) -> None:
    from repro.util import intervals

    for name in ("run.py", "workload_inputs.py", "layer_trace.py",
                 "calibrate.py"):
        with open(os.path.join(run.HERE, name)) as fh:
            if "set_hotpath_mode" in fh.read():
                problems.append(f"{name} mentions set_hotpath_mode")
    mode = intervals.hotpath_mode()
    calls = []
    original = intervals.set_hotpath_mode

    def recording(new_mode):
        caller = sys._getframe(1).f_code.co_filename
        calls.append((os.path.abspath(caller), new_mode))
        return original(new_mode)

    intervals.set_hotpath_mode = recording
    try:
        for workload in run.WORKLOADS:
            for trace in (False, True):
                run.run(workload, SEED, 1, trace, "tiny", reference=None)
    finally:
        intervals.set_hotpath_mode = original
    for caller, new_mode in calls:
        if caller.startswith(run.HERE + os.sep):
            problems.append(f"{caller} called set_hotpath_mode({new_mode!r})")
        elif new_mode != mode:
            problems.append(f"{caller} switched the engine to {new_mode!r}")
    if intervals.hotpath_mode() != mode:
        problems.append(f"engine mode changed to {intervals.hotpath_mode()!r}")
    if "REPRO_HOTPATH" in os.environ:
        problems.append("REPRO_HOTPATH was set during a measured run")
    os.environ["REPRO_HOTPATH"] = "legacy"
    try:
        if "REPRO_HOTPATH" in run.child_env():
            problems.append("the server would inherit REPRO_HOTPATH")
    finally:
        del os.environ["REPRO_HOTPATH"]


def main() -> int:
    run.prepare()
    problems: List[str] = []
    for check in (check_metric_names, check_tampered_reference,
                  check_engine_untouched):
        try:
            check(problems)
        except Exception:  # noqa: BLE001 - reported as a failed check
            problems.append(f"{check.__name__} raised:\n{traceback.format_exc()}")
        print(f"{check.__name__}: {'ok' if not problems else 'FAILED'}")
        if problems:
            break
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
