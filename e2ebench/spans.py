"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`SpanTracer` wraps public functions of ``repro`` so every call
records a span: layer name, start, end, and the span that was open when
it started (its parent).  Spans stay in memory until the run ends.  A
layer's *self time* is its spans' total duration minus the time of
their direct child spans, so nested layers are never counted twice.

Module-level functions are replaced in every ``repro`` module that
imported them by name (``from ..mesh.topology import citylab_subset``
binds a second reference), so install only after the scenario's modules
are imported.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (layer name, "module:qualname") pairs; a qualname with a dot is a
#: method, otherwise a module-level function.
SPANNED = (
    ("mesh.build", "repro.mesh.topology:citylab_subset"),
    ("mesh.build", "repro.mesh.topology:regional_mesh"),
    ("mesh.build", "repro.mesh.topology:MeshTopology.add_link"),
    ("mesh.build", "repro.mesh.topology:MeshTopology.add_node"),
    ("mesh.build", "repro.mesh.tracegen:citylab_link_trace"),
    ("mesh.build", "repro.mesh.tracegen:ar1_trace"),
    ("mesh.build", "repro.mesh.tracegen:trace_with_fades"),
    ("mesh.build", "repro.mesh.tracegen:step_trace"),
    ("mesh.routing.traceroute", "repro.mesh.routing:Router.traceroute"),
    ("mesh.topology.graph", "repro.mesh.topology:MeshTopology.graph"),
    ("net.netem.tick", "repro.net.netem:NetworkEmulator.tick"),
    ("net.netem.recompute", "repro.net.netem:NetworkEmulator.recompute"),
    ("net.netem.add_flow", "repro.net.netem:NetworkEmulator.add_flow"),
    (
        "net.netem.on_topology_change",
        "repro.net.netem:NetworkEmulator.on_topology_change",
    ),
    ("net.fairness.solve", "repro.net.fairness:IncrementalMaxMin.solve"),
    ("net.fairness.solve", "repro.net.fairness:max_min_allocation"),
    ("sim.engine.run_until", "repro.sim.engine:Engine.run_until"),
    ("apps.update_demands", "repro.apps.social:SocialNetworkApp.update_demands"),
    (
        "apps.sample_latencies",
        "repro.apps.social:SocialNetworkApp.sample_latencies_s",
    ),
    ("core.binding.sync_flows", "repro.core.binding:DeploymentBinding.sync_flows"),
    ("core.placement.place", "repro.core.placement:PlacementEngine.place"),
    ("core.build_env", "repro.experiments.common:build_env"),
    ("core.deploy_app", "repro.experiments.common:deploy_app"),
    ("core.controlplane.run_epoch", "repro.core.controlplane:ControlPlane.run_epoch"),
    ("core.controller.observe", "repro.core.controller:BandwidthController.observe"),
    ("core.controller.plan", "repro.core.controller:BandwidthController.plan"),
    ("core.controller.act", "repro.core.controller:BandwidthController.act"),
    ("core.netmonitor.full_probe", "repro.core.netmonitor:NetMonitor.full_probe"),
    (
        "core.netmonitor.headroom_probe",
        "repro.core.netmonitor:NetMonitor.headroom_probe",
    ),
    ("faults.detector.beat", "repro.faults.detector:FailureDetector.beat"),
    (
        "faults.recovery.recover_from",
        "repro.faults.recovery:RecoveryCoordinator.recover_from",
    ),
    ("obs.trace.emit", "repro.obs.trace:Tracer.emit"),
    ("obs.status.publish", "repro.obs.status:StatusPublisher.publish"),
    ("snap.write", "repro.snap.snapshot:write_snapshot"),
    ("snap.read", "repro.snap.snapshot:read_snapshot"),
    ("runner.run_sweep", "repro.runner.sweep:run_sweep"),
    ("runner.cell", "repro.runner.worker:execute_cell"),
    ("runner.reduce", "repro.runner.sweep:SweepOutcome.to_canonical_json"),
)



class SpanTracer:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        #: Deterministic tallies gathered at span boundaries.
        self.tallies: dict[str, float] = defaultdict(float)
        #: Last seen counters of every incremental solver, by id.
        self._solver_seen: dict[int, tuple[object, int, int, int]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import importlib

        for name, path in SPANNED:
            module_name, _, qualname = path.partition(":")
            module = importlib.import_module(module_name)
            after = _AFTER.get(path)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(name, original, after))
            else:
                original = getattr(module, qualname)
                wrapper = self.wrap(name, original, after)
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """``{layer: {"calls", "total_s", "self_s"}}`` over every span."""
        count = len(self.span_start)
        child_s = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child_s[parent] += ends[i] - starts[i]
        layers: dict[str, dict] = {}
        for i in range(count):
            entry = layers.setdefault(
                self.names[self.span_name[i]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            duration = ends[i] - starts[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_s[i]
        return layers

    def root_s(self) -> float:
        """Time covered by top-level spans (no parent)."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )


def _track_solver(tracer: SpanTracer, args, result) -> None:
    """Component solves done vs. what full solves would have done.

    A full solve re-solves every component; a partial one only the
    dirty ones.  ``components_resolved / components_total`` is the
    solver's useful-work ratio (1.0 when every solve is full).
    """
    solver = args[0]
    _, full, partial, resolved = tracer._solver_seen.get(
        id(solver), (None, 0, 0, 0)
    )
    tracer._solver_seen[id(solver)] = (
        solver,  # held so the id cannot be reused within the run
        solver.full_solves,
        solver.partial_solves,
        solver.components_resolved,
    )
    components = solver.component_count
    tallies = tracer.tallies
    if solver.full_solves > full:
        tallies["net.fairness.full_solves"] += solver.full_solves - full
        tallies["net.fairness.components_resolved"] += components
        tallies["net.fairness.components_total"] += components
    elif solver.partial_solves > partial:
        tallies["net.fairness.partial_solves"] += solver.partial_solves - partial
        tallies["net.fairness.components_resolved"] += (
            solver.components_resolved - resolved
        )
        tallies["net.fairness.components_total"] += components


def _count_rerouted(tracer: SpanTracer, args, result) -> None:
    tracer.tallies["net.netem.on_topology_change.flows_rerouted"] += len(
        result.get("rerouted", ())
    )


def _count_status_bytes(tracer: SpanTracer, args, result) -> None:
    publisher = args[0]
    tracer.tallies["obs.status.publish.bytes"] += Path(publisher.path).stat().st_size


def _count_snapshot_bytes(tracer: SpanTracer, args, result) -> None:
    tracer.tallies["snap.write.bytes"] += Path(args[0]).stat().st_size


#: Tally hooks run after a wrapped call, keyed by its SPANNED path.
_AFTER = {
    "repro.net.fairness:IncrementalMaxMin.solve": _track_solver,
    "repro.net.netem:NetworkEmulator.on_topology_change": _count_rerouted,
    "repro.obs.status:StatusPublisher.publish": _count_status_bytes,
    "repro.snap.snapshot:write_snapshot": _count_snapshot_bytes,
}
