"""One workload run in a fresh process (spawned by ``run.py``).

Usage::

    python3 e2ebench/child.py WORKLOAD --seed N --mode MODE --out DIR

Writes ``DIR/result.json`` (the workload's results document) and then
``DIR/timing.json``: monotonic timestamps (comparable with the parent's
clock), per-step host times and classes, simulated seconds, correctness
checks, deterministic counts and, in ``traced`` mode, the layer spans.
"""

import time

MAIN_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

MODES = ("timed", "check", "traced")

#: Everything any workload touches is imported up front, so import
#: cost is the same for every workload and spans can be installed over
#: fully imported modules.
IMPORTS = (
    "numpy",
    "repro",
    "repro.experiments.common",
    "repro.experiments.thresholds",
    "repro.experiments.churn",
    "repro.experiments.fleet",
    "repro.faults",
    "repro.obs.trace",
    "repro.obs.stream",
    "repro.obs.status",
    "repro.runner",
    "repro.snap",
)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    # Workloads name their files relative to the run directory, so no
    # run-specific path leaks into a results document.
    os.chdir(out)

    spans = None
    if args.mode == "traced":
        from e2ebench.spans import SpanTracer

        spans = SpanTracer()
    import importlib

    with spans.span("import") if spans else nullcontext():
        for name in IMPORTS:
            importlib.import_module(name)
        from e2ebench.steps import StepRecorder
        from e2ebench.workloads import WORKLOADS, Context
        from repro.obs.trace import Tracer
    imported_at = time.monotonic()

    recorder = StepRecorder()
    # sweep_mix cells install their own recorder, in whichever process
    # runs them; the check run stays unhooked.
    if args.mode != "check" and args.workload != "sweep_mix":
        recorder.install()
    if spans is not None:
        spans.install()
    ctx = Context(seed=args.seed, mode=args.mode, out=out)
    if args.workload in ("paper_grid", "sweep_mix"):
        ctx.sweep_tracer = Tracer()
    if spans is not None:
        ctx.span = spans.span
        ctx.harness_span = lambda fn: spans.wrap("bench.harness", fn)

    text = WORKLOADS[args.workload](ctx)
    with ctx.span("bench.harness"):
        _write_atomic(out / "result.json", text)
    written_at = time.monotonic()

    timing = {
        "main_at": MAIN_AT,
        "imported_at": imported_at,
        "written_at": written_at,
        "checks": ctx.checks,
        "counts": ctx.counts,
    }
    if args.workload == "sweep_mix":
        timing.update(_cell_records(out / "cells"))
    else:
        timing.update(recorder.export())
    if ctx.sweep_tracer is not None:
        timing["sweep"] = _sweep_events(ctx.sweep_tracer)
    if spans is not None:
        timing["layers"] = spans.summary()
        timing["root_s"] = spans.root_s()
        timing["tallies"] = dict(spans.tallies)
    _write_atomic(out / "timing.json", json.dumps(timing))
    return 0


def _cell_records(directory: Path) -> dict:
    """Merge the per-cell step records written by sweep workers."""
    records = [
        json.loads(path.read_text())
        for path in sorted(directory.glob("cell-*.json"))
    ]
    merged = {
        "step_s": [],
        "step_class": [],
        "sim_s": 0.0,
        "events": 0,
        "first_step_at": None,
        "cells": len(records),
    }
    for record in records:
        merged["step_s"] += record["step_s"]
        merged["step_class"] += record["step_class"]
        merged["sim_s"] += record["sim_s"]
        merged["events"] += record["events"]
    if records:
        merged["first_step_at"] = min(r["started_at"] for r in records)
    return merged


def _sweep_events(tracer) -> dict:
    """Runner accounting from the sweep tracer's merge-phase events."""
    durations = [e.data["duration_s"] for e in tracer.events if e.kind == "cell.done"]
    done = [e for e in tracer.events if e.kind == "sweep.done"]
    start = [e for e in tracer.events if e.kind == "sweep.start"]
    return {
        "cell_s": durations,
        "wall_s": done[-1].time if done else 0.0,
        "jobs": start[-1].data["jobs"] if start else 1,
    }


if __name__ == "__main__":
    sys.exit(main())
