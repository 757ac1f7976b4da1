"""Sweep cell wrapper that records the cell's steps from inside a worker.

``sweep_mix`` runs its cells in worker processes, where the parent's
step recorder cannot see them.  Each cell of the timed sweep therefore
names :func:`stepped_cell`, which installs a :class:`StepRecorder` in
the worker process (once), runs the program's own cell function, and
writes the cell's steps next to the run's other outputs.  The result is
returned unchanged, so the merged sweep is byte-identical to the sweep
of unwrapped cells (the check run compares the two).
"""

from __future__ import annotations

import json
import os
import time

from .steps import StepRecorder

_recorder = None


def _process_recorder() -> StepRecorder:
    global _recorder
    if _recorder is None:
        _recorder = StepRecorder()
        _recorder.install()
    return _recorder


def stepped_cell(*, target: str, kwargs: dict, record_to: str):
    from repro.runner.worker import resolve_cell_function

    recorder = _process_recorder()
    recorder.reset()
    started_at = time.monotonic()
    result = resolve_cell_function(target)(**kwargs)
    record = recorder.export()
    record["started_at"] = started_at
    record["ended_at"] = time.monotonic()
    record["pid"] = os.getpid()
    tmp = f"{record_to}.tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle)
    os.replace(tmp, record_to)
    return result
