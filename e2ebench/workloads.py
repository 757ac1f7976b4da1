"""The four benchmark workloads, built only through public APIs.

Every workload is a function ``run(ctx) -> str`` that builds its
scenario from ``ctx.seed``, drives it to the end and returns the run's
results document: canonical JSON that depends only on the seed and the
program's code.  Correctness checks made along the way are appended to
``ctx.checks`` as ``(name, ok, detail)``; deterministic counts that the
per-layer report needs go into ``ctx.counts``.

``ctx.mode`` is one of

* ``timed`` -- the measured configuration (also the untraced baseline
  of a traced run);
* ``check`` -- the untimed check run: no step hooks, plus the
  workload's own oracle comparisons (see each workload);
* ``traced`` -- layer spans on; ``sweep_mix`` runs its cells inline at
  ``jobs=1`` so the in-process span tracer sees them.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: The paper's fig 14c/d seed; sweep_mix offsets it by the benchmark seed.
FIG14CD_SEED = 144
#: sweep_mix's worker processes: the core count of the 2-CPU reference
#: host, so the fan-out is measured without oversubscription.
SWEEP_JOBS = 2


@dataclass
class Context:
    seed: int
    mode: str
    out: Path
    checks: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Tracer handed to ``run_sweep`` by the sweep workloads: its
    #: ``cell.done`` events give the runner's per-cell durations.
    sweep_tracer: Any = None
    #: ``span(name)`` context manager and ``harness_span(fn)`` wrapper:
    #: in traced mode they attribute benchmark-side work (scenario
    #: generation, observers) to its own layer instead of leaving it
    #: unattributed; otherwise they do nothing.
    span: Callable = field(default=lambda name: nullcontext())
    harness_span: Callable = field(default=lambda fn: fn)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def canonical(value) -> str:
    from repro.runner.codec import canonical_json

    return canonical_json(value)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- paper_grid ---------------------------------------------------------


def paper_grid(ctx: Context) -> str:
    """Fig 14c/d exactly as the paper runs it: 2 heuristics x 5
    thresholds x 3 headrooms, 600 s each, seed 144, inline (``jobs=1``).

    The seed permutes the order in which the 30 cells execute (seed 0
    keeps the canonical order); results are put back in canonical order,
    so every seed must reproduce the canonical JSON of
    ``fig14cd_sweep_spec()`` byte for byte.
    """
    import numpy as np
    from repro.experiments.thresholds import fig14cd_sweep_spec
    from repro.runner import SweepSpec, run_sweep

    spec = fig14cd_sweep_spec()
    order = list(range(len(spec.cells)))
    if ctx.seed:
        order = np.random.default_rng([ctx.seed, 7]).permutation(order).tolist()
    shuffled = SweepSpec(name=spec.name, cells=tuple(spec.cells[i] for i in order))
    outcome = run_sweep(shuffled, jobs=1, tracer=ctx.sweep_tracer)
    results = [None] * len(order)
    for position, index in enumerate(order):
        results[index] = outcome.results[position]
    ctx.counts["core.migrations"] = sum(c.migrations for c in results)
    with ctx.span("runner.reduce"):
        return canonical(results)


# -- sweep_mix ----------------------------------------------------------


def sweep_mix_spec(seed: int, *, record_dir: Optional[Path] = None):
    """fig14cd cells interleaved with churn-seed and fig16 cells.

    With ``record_dir`` every cell is wrapped by
    :func:`e2ebench.cells.stepped_cell`, which records the cell's steps
    into ``record_dir`` from whichever worker runs it.  Without it the
    spec holds the program's own cells, unchanged.
    """
    from repro.experiments.churn import churn_seed_sweep_spec
    from repro.experiments.thresholds import (
        fig14cd_sweep_spec,
        fig16_sweep_spec,
    )
    from repro.runner import CellSpec, SweepSpec

    grid = fig14cd_sweep_spec(
        thresholds=(0.25, 0.50, 0.65, 0.75),
        headrooms=(0.10, 0.30),
        seed=FIG14CD_SEED + seed,
    )
    fig16 = fig16_sweep_spec(seed=16 + seed)
    churn = churn_seed_sweep_spec(
        seeds=tuple(range(100 * seed, 100 * seed + 36)), settle_s=60.0
    )
    lanes = [
        [(grid, i) for i in range(len(grid.cells))],
        [(fig16, i) for i in range(len(fig16.cells))],
        [(churn, i) for i in range(len(churn.cells))],
    ]
    order = []
    while any(lanes):
        for lane in lanes:
            # churn cells are tiny: three of them per long cell
            take = 3 if lane and lane[0][0] is churn else 1
            for _ in range(take):
                if lane:
                    order.append(lane.pop(0))
    cells = []
    for index, (spec, i) in enumerate(order):
        cell = spec.cells[i]
        label = f"{spec.name}/{cell.label}"
        if record_dir is None:
            cells.append(
                CellSpec(fn=cell.fn, kwargs=spec.resolved_kwargs(i), label=label)
            )
        else:
            cells.append(
                CellSpec(
                    fn="e2ebench.cells:stepped_cell",
                    kwargs={
                        "target": cell.fn,
                        "kwargs": spec.resolved_kwargs(i),
                        "record_to": str(record_dir / f"cell-{index:03d}.json"),
                    },
                    label=label,
                )
            )
    return SweepSpec(name="sweep_mix", cells=tuple(cells))


def sweep_mix(ctx: Context) -> str:
    """The mixed sweep through the default backend, cache off.

    ``timed``: ``SWEEP_JOBS`` workers, every cell wrapped to record its
    steps.
    ``check``: the program's own cells, serial -- the merged bytes of
    every timed run must equal these.
    ``traced``: wrapped cells inline, so the in-process span tracer
    sees them.
    """
    from repro.runner import run_sweep

    if ctx.mode == "check":
        spec = sweep_mix_spec(ctx.seed)
        jobs = 1
    else:
        record_dir = ctx.out / "cells"
        record_dir.mkdir(parents=True, exist_ok=True)
        spec = sweep_mix_spec(ctx.seed, record_dir=record_dir)
        jobs = SWEEP_JOBS if ctx.mode == "timed" else 1
    outcome = run_sweep(spec, jobs=jobs, tracer=ctx.sweep_tracer)
    ctx.counts["core.migrations"] = sum(
        getattr(r, "migrations", 0) for r in outcome.results
    )
    return outcome.to_canonical_json()


# -- city_flap ----------------------------------------------------------

CITY_REGIONS = 10
CITY_NODES_PER_REGION = 10
CITY_FLOWS = 500
CITY_CROSS_FRACTION = 0.2
CITY_CHANGE_FRACTION = 0.1
CITY_HORIZON_S = 1040.0
CITY_FLAP_CYCLES = 11
CITY_CHECK_EVERY_S = 45


def city_mesh(seed: int, horizon_s: float):
    """Sparse neighbourhoods (ring plus chords, so paths are multi-hop)
    joined at their gateways ``r{k}n0`` by a static backbone ring.
    Intra-region links follow piecewise-constant traces whose segment
    lengths are drawn from 5-40 s."""
    import numpy as np
    from repro.mesh import MeshNode, MeshTopology
    from repro.mesh.tracegen import step_trace

    rng = np.random.default_rng([seed, 1])
    topo = MeshTopology()
    per = CITY_NODES_PER_REGION
    for r in range(CITY_REGIONS):
        names = [f"r{r}n{j}" for j in range(per)]
        for name in names:
            topo.add_node(MeshNode(name, cpu_cores=8, memory_mb=8192))
        pairs = {(j, (j + 1) % per) for j in range(per)}
        while len(pairs) < per + per // 2:
            a, b = sorted(int(x) for x in rng.choice(per, size=2, replace=False))
            if (a, b) not in pairs and (b, a) not in pairs:
                pairs.add((a, b))
        for a, b in sorted(pairs):
            mean = float(rng.uniform(8.0, 40.0))
            link = topo.add_link(names[a], names[b], capacity_mbps=mean)
            segments = []
            total = 0.0
            while total < horizon_s + 1:
                length = float(rng.integers(5, 41))
                segments.append(
                    (length, max(0.5, mean * float(rng.uniform(0.55, 1.35))))
                )
                total += length
            link.set_trace(step_trace(segments))
    for r in range(CITY_REGIONS):
        a, b = f"r{r}n0", f"r{(r + 1) % CITY_REGIONS}n0"
        topo.add_link(a, b, capacity_mbps=60.0, latency_ms=8.0)
    return topo


class DemandChurn:
    """Per-tick observer: re-draws a fixed share of the flows' demands.

    With ``ctx`` set (the check run) it first compares the emulator's
    allocation with the frozen reference solver every
    ``CITY_CHECK_EVERY_S`` ticks, one check per comparison.
    """

    def __init__(self, netem, flow_ids, seed, *, ctx=None) -> None:
        import numpy as np

        self.netem = netem
        self.flow_ids = list(flow_ids)
        self.rng = np.random.default_rng([seed, 3])
        self.per_tick = max(1, int(len(self.flow_ids) * CITY_CHANGE_FRACTION))
        self.ctx = ctx

    def __call__(self, now: float) -> None:
        if self.ctx is not None and int(now) % CITY_CHECK_EVERY_S == 0:
            self.compare_with_reference(now)
        picks = self.rng.choice(len(self.flow_ids), self.per_tick, replace=False)
        demands = self.rng.uniform(0.5, 8.0, size=self.per_tick)
        for index, demand in zip(picks.tolist(), demands.tolist()):
            fid = self.flow_ids[index]
            if self.netem.has_flow(fid):
                self.netem.set_demand(fid, demand)

    def compare_with_reference(self, now: float) -> None:
        from repro.net.fairness import FlowDemand, max_min_allocation_reference

        flows = self.netem.flows
        expected = max_min_allocation_reference(
            [FlowDemand(f.flow_id, f.links, f.demand_mbps) for f in flows],
            self.netem.capacities_now(),
        )
        worst = max(
            abs(f.allocated_mbps - expected[f.flow_id])
            / max(1.0, expected[f.flow_id])
            for f in flows
        )
        self.ctx.check(
            f"city_flap.reference_allocation.t{int(now)}",
            worst <= 1e-9,
            f"max relative difference {worst:.3g}",
        )


def city_flap(ctx: Context) -> str:
    """Regional city mesh, ~1k flows, 10% of demands re-drawn every
    tick, one backbone link flapping on a seeded schedule."""
    import numpy as np
    from repro.experiments.common import build_env, run_timeline
    from repro.faults import FaultInjector, FaultPlan, LinkFlap

    horizon = CITY_HORIZON_S
    with ctx.span("bench.harness"):
        topo = city_mesh(ctx.seed, horizon)
    env = build_env(topo, seed=ctx.seed, with_traces=False)
    netem = env.netem
    rng = np.random.default_rng([ctx.seed, 2])
    per = CITY_NODES_PER_REGION
    flow_ids = []
    for i in range(CITY_FLOWS):
        r = int(rng.integers(0, CITY_REGIONS))
        if rng.random() < CITY_CROSS_FRACTION:
            other = (r + int(rng.integers(1, CITY_REGIONS))) % CITY_REGIONS
        else:
            other = r
        j, k = (int(x) for x in rng.choice(per, size=2, replace=False))
        fid = f"f{i:04d}"
        netem.add_flow(fid, f"r{r}n{j}", f"r{other}n{k}", float(rng.uniform(0.5, 8.0)))
        flow_ids.append(fid)
    flap_region = int(rng.integers(0, CITY_REGIONS))
    period = (horizon - 30.0) / CITY_FLAP_CYCLES
    down_s = float(rng.integers(4, int(period) // 2))
    plan = FaultPlan(
        [
            LinkFlap(
                at_s=float(rng.integers(10, 20)) + 0.5,
                a=f"r{flap_region}n0",
                b=f"r{(flap_region + 1) % CITY_REGIONS}n0",
                down_s=down_s,
                up_s=float(int(period) - down_s),
                cycles=CITY_FLAP_CYCLES,
            )
        ]
    )
    plan.validate(topo)
    FaultInjector(plan, netem, tracer=env.tracer).install()
    churn = DemandChurn(
        netem, flow_ids, ctx.seed, ctx=ctx if ctx.mode == "check" else None
    )
    run_timeline(env, horizon, on_tick=ctx.harness_span(churn))
    stats = netem.solver_stats()
    ctx.counts.update({f"net.fairness.{k}": v for k, v in stats.items()})
    allocation = {
        f.flow_id: [f.path, round(f.allocated_mbps, 9)] for f in netem.flows
    }
    return canonical(
        {
            "flows": len(allocation),
            "allocation_sha256": digest(canonical(allocation)),
            "offered_mbit_by_tag": netem.offered_mbit_by_tag(),
            "solver": stats,
        }
    )


# -- fleet_ops ----------------------------------------------------------

FLEET_REGIONS = 8
FLEET_NODES_PER_REGION = 3
FLEET_NODE_CPU = 3.0
#: Dealt round-robin: regions 0-3 get three tenants (every core taken),
#: regions 4-7 get two.
FLEET_TENANTS = 20
FLEET_PACKED_REGIONS = 4
FLEET_HORIZON_S = 1100.0
#: A snapshot is written at the first time and restored at the second,
#: so every timed run re-simulates the same 150 s after the restore.
FLEET_SNAPSHOT_AT_S = 400.0
FLEET_RESTORE_AT_S = 550.0
FLEET_THROTTLE_MBPS = 0.5


class FleetDemand:
    """Per-tick observer: every tenant's demand scale follows a seeded
    random walk.  A plain class so the run capsule pickles."""

    def __init__(self, handles, seed: int) -> None:
        import numpy as np

        self.bindings = [h.binding for h in handles]
        self.rng = np.random.default_rng([seed, 5])
        self.scales = [1.0] * len(self.bindings)

    def __call__(self, now: float) -> None:
        steps = self.rng.normal(0.0, 0.04, size=len(self.bindings))
        for i, binding in enumerate(self.bindings):
            scale = min(1.8, max(0.6, self.scales[i] + float(steps[i])))
            self.scales[i] = scale
            binding.set_global_scale(scale)
            binding.sync_flows()


def fleet_ops(ctx: Context) -> str:
    """Regionalized control plane under load, faults, streaming trace,
    status publishing, periodic checkpoints and one mid-run restore.

    ``timed`` / ``traced``: write a snapshot at ``FLEET_SNAPSHOT_AT_S``,
    restore it at ``FLEET_RESTORE_AT_S`` and finish from it.  ``check``:
    run straight through -- every restored run's results must equal
    these.
    """
    from functools import partial

    import numpy as np
    from repro.config import BassConfig, FleetConfig
    from repro.core.controlplane import check_cluster_ledger
    from repro.errors import SchedulingError
    from repro.experiments.common import build_env
    from repro.experiments.fleet import prepare_fleet
    from repro.faults import (
        FailureDetector,
        FaultInjector,
        FaultPlan,
        LinkFlap,
        NodeCrash,
    )
    from repro.mesh.topology import regional_mesh, regional_specs
    from repro.obs.status import StatusPublisher
    from repro.obs.stream import StreamingSink
    from repro.obs.trace import Tracer
    from repro.snap import CheckpointPolicy, RunCapsule
    from repro.snap.snapshot import read_snapshot

    rng = np.random.default_rng([ctx.seed, 4])
    regions, per = FLEET_REGIONS, FLEET_NODES_PER_REGION
    # Relative paths: the status path is recorded in trace events.
    trace_dir = Path("trace")
    tracer = Tracer.with_instruments(
        sink=StreamingSink(trace_dir, shard_events=20_000)
    )
    topology = regional_mesh(regions, per, cpu_cores=FLEET_NODE_CPU)
    env = build_env(
        topology,
        seed=ctx.seed,
        with_traces=False,
        fleet=FleetConfig(
            region_specs=regional_specs(regions, per), handoff_rtt_s=2.0
        ),
        tracer=tracer,
    )
    config = BassConfig().with_migration(cooldown_s=20.0).with_probe(
        headroom_interval_s=10.0
    )
    prepared = prepare_fleet(
        regions=regions,
        tenants=FLEET_TENANTS,
        nodes_per_region=per,
        seed=ctx.seed,
        demand_mbps=2.0,
        config=config,
        env=env,
    )
    # Every region loses its gateway -> n2 link; the packed regions also
    # lose gateway -> n3, so their sinks can only escape across the
    # backbone (cross-region handoffs) into the regions with spare cores.
    throttle_at = float(rng.integers(80, 100))
    for k in range(regions):
        targets = ("n2", "n3") if k < FLEET_PACKED_REGIONS else ("n2",)
        for target in targets:
            src, dst = f"r{k}n1", f"r{k}{target}"
            prepared.events.append(
                (
                    throttle_at,
                    partial(
                        topology.link(src, dst).set_rate_limit,
                        FLEET_THROTTLE_MBPS,
                        src=src,
                        dst=dst,
                    ),
                )
            )
    # Fault sites are fixed; the seed moves them in time only, so every
    # seed asks the control plane for the same kind of work.  Fault
    # times sit off the epoch grid (multiples of 10 s), so a reroute
    # step never also holds an epoch.
    crash_region, flap_region = 5, 2
    plan = FaultPlan(
        [
            NodeCrash(
                at_s=220.5 + float(rng.integers(0, 9)),
                node=f"r{crash_region}n3",
                reboot_after_s=240.0,
            ),
            LinkFlap(
                at_s=311.5 + float(rng.integers(0, 3)),
                a=f"r{flap_region}n1",
                b=f"r{flap_region}n3",
                down_s=15.0,
                up_s=25.0,
                cycles=10,
            ),
        ]
    )
    plan.validate(topology)
    injector = FaultInjector(
        plan, env.netem, tracer=tracer, control_plane=env.control_plane
    )
    injector.install()
    detector = FailureDetector(env.netem, "r0n1", injector=injector, tracer=tracer)
    detector.start()
    env.control_plane.enable_recovery(detector)
    status_path = Path("status.json")
    env.control_plane.attach_status(
        StatusPublisher(env.control_plane, status_path, every_k_epochs=3, tracer=tracer)
    )
    capsule = RunCapsule(
        scenario="fleet",
        env=env,
        duration_s=FLEET_HORIZON_S,
        on_tick=FleetDemand(prepared.handles, ctx.seed),
        events=tuple(prepared.events),
        extras={"prepared": prepared},
    )
    checkpoints = Path("checkpoints")
    policy = CheckpointPolicy(checkpoints, every_k_epochs=20, keep=2)
    policy.bind(capsule)
    env.control_plane.attach_checkpoints(policy)

    if ctx.mode == "check":
        capsule.run_to_completion()
    else:
        capsule.run_until(FLEET_SNAPSHOT_AT_S)
        source = policy.write(label="restore-point")
        capsule.run_until(FLEET_RESTORE_AT_S)
        tracer.sink.flush()
        _, capsule = read_snapshot(source)
        capsule.run_to_completion()
    capsule.env.tracer.sink.close()

    env = capsule.env
    prepared = capsule.extras["prepared"]
    try:
        check_cluster_ledger(env.cluster)
        ledger_ok, ledger_detail = True, ""
    except SchedulingError as error:
        ledger_ok, ledger_detail = False, str(error)
    ctx.check("fleet_ops.cluster_ledger_clean", ledger_ok, ledger_detail)
    result = prepared.result(FLEET_HORIZON_S)
    ctx.counts["core.migrations"] = result.total_migrations
    ctx.counts["core.handoffs_committed"] = result.committed_handoffs
    shards = b"".join(
        p.read_bytes() for p in sorted(trace_dir.glob("trace-*.jsonl"))
    )
    ctx.counts["obs.stream.bytes"] = len(shards)
    return canonical(
        {
            "epochs": env.control_plane.epoch_count,
            "full_probes": result.full_probes,
            "headroom_probes": result.headroom_probes,
            "conflicts": result.conflict_count,
            "handoffs": result.handoff_counts,
            "migrations": result.migrations_by_app,
            "cross_region_migrations": result.cross_region_migrations,
            "recovered": capsule.env.control_plane.recovery.recovered_count
            if capsule.env.control_plane.recovery is not None
            else 0,
            "trace_events": capsule.env.tracer.sink.total_events,
            "trace_sha256": hashlib.sha256(shards).hexdigest(),
            "status_revision": json.loads(status_path.read_text()).get(
                "revision"
            ),
        }
    )


WORKLOADS = {
    "paper_grid": paper_grid,
    "city_flap": city_flap,
    "fleet_ops": fleet_ops,
    "sweep_mix": sweep_mix,
}
