"""Step timing and step classes.

A *step* is one simulated second.  :class:`StepRecorder` replaces
``Engine.run_until`` with a version that advances the clock one whole
second at a time and records the host time each second took.  Chunked
driving executes exactly the same events in the same order: an event
fires in the call whose window ``(previous end, end]`` holds its time,
and the clock is left at the caller's horizon either way.  The check
runs prove it by comparing result bytes with unhooked runs.

Each step is classed by what ran inside it, through flag-only wrappers
that record no time:

* ``epoch`` -- ``ControlPlane.run_epoch`` ran (a control epoch:
  observe, probe, plan, migrate);
* ``topology`` -- ``NetworkEmulator.on_topology_change`` ran (a flap or
  crash reroute);
* ``mixed`` -- both ran (reported in no percentile);
* ``plain`` -- neither ran.

The wrappers must be installed before a scenario is built: the control
plane captures ``self.run_epoch`` in its periodic task when a tenant
registers.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

#: Step classes are flag sets: a mixed step carries EPOCH | TOPOLOGY.
PLAIN, EPOCH, TOPOLOGY = 0, 1, 2


class StepRecorder:
    """Per-step host times and classes for one process."""

    def __init__(self) -> None:
        self.step_s = array("d")
        self.step_class = array("b")
        #: Simulated seconds advanced, including partial steps.
        self.sim_s = 0.0
        #: Engine events executed inside recorded steps.
        self.events = 0
        #: ``time.monotonic()`` when the first step started (None before).
        self.first_step_at = None
        self._flags = 0

    # -- install --------------------------------------------------------

    def install(self) -> None:
        from repro.core.controlplane import ControlPlane
        from repro.net.netem import NetworkEmulator
        from repro.sim.engine import Engine

        self._patch(ControlPlane, "run_epoch", self._flagging(EPOCH))
        self._patch(
            NetworkEmulator, "on_topology_change", self._flagging(TOPOLOGY)
        )
        self._patch(Engine, "run_until", self._stepping)

    def _patch(self, owner, name, make) -> None:
        setattr(owner, name, make(owner.__dict__[name]))

    def _flagging(self, flag: int):
        recorder = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                recorder._flags |= flag
                return original(*args, **kwargs)

            return wrapper

        return make

    def _stepping(self, original):
        recorder = self
        clock = time.perf_counter

        @functools.wraps(original)
        def run_until(engine, end_time):
            now = engine.now
            if end_time <= now:
                return original(engine, end_time)
            if recorder.first_step_at is None:
                recorder.first_step_at = time.monotonic()
            step_s = recorder.step_s
            step_class = recorder.step_class
            events_before = engine.processed_events
            while now < end_time:
                boundary = min(math.floor(now) + 1.0, end_time)
                recorder._flags = 0
                begin = clock()
                original(engine, boundary)
                elapsed = clock() - begin
                advanced = boundary - now
                recorder.sim_s += advanced
                if advanced == 1.0:
                    step_s.append(elapsed)
                    step_class.append(recorder._flags)
                now = boundary
            recorder.events += engine.processed_events - events_before

        return run_until

    # -- export ----------------------------------------------------------

    def reset(self) -> None:
        self.step_s = array("d")
        self.step_class = array("b")
        self.sim_s = 0.0
        self.events = 0
        self.first_step_at = None

    def export(self) -> dict:
        return {
            "step_s": self.step_s.tolist(),
            "step_class": self.step_class.tolist(),
            "sim_s": self.sim_s,
            "events": self.events,
            "first_step_at": self.first_step_at,
        }
