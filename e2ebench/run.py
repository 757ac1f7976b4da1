"""End-to-end benchmark of the BASS reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper_grid --seed 0 --seconds 12 --trace 0

One run:

1. compiles bytecode for ``src/`` and the benchmark;
2. makes the untimed *check* run -- also the warm-up -- in a child
   process without step hooks, plus the workload's oracle comparisons;
3. ``--trace 0``: spawns timed children back to back until ``--seconds``
   have passed and at least two have run; ``--trace 1``: one timed
   child (the untraced baseline) and one traced child;
4. checks that every child's results file is byte-identical to the
   check run's, and to the digest recorded for seed 0;
5. prints one line per metric with its unit and sample count, the
   per-child spread (median, quartiles, min/max), the noise
   diagnostics, and as the last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

Each correctness check counts as one attempted operation; a mismatch is
a failed operation, not a crash.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from e2ebench.steps import EPOCH, PLAIN, TOPOLOGY  # noqa: E402  (imports no repro)

WORKLOADS = ("paper_grid", "city_flap", "fleet_ops", "sweep_mix")
CHILD_TIMEOUT_S = 150.0
#: The timed phase runs at least this many children: step metrics take
#: each step's best time over them.
MIN_TIMED_CHILDREN = 2
#: Fewest samples that leave ten beyond the percentile.
MIN_SAMPLES = {50: 20, 90: 100, 99: 1000}


# -- child processes ----------------------------------------------------


class ChildRun:
    def __init__(self, returncode, spawned_at, maxrss_kb, out):
        self.returncode = returncode
        self.spawned_at = spawned_at
        self.maxrss_kb = maxrss_kb
        self.out = out
        self.result = None
        self.timing = None
        if returncode == 0:
            try:
                self.result = (out / "result.json").read_bytes()
                self.timing = json.loads((out / "timing.json").read_text())
            except (OSError, ValueError):
                self.result = self.timing = None

    @property
    def ok(self) -> bool:
        return self.timing is not None

    @property
    def wall_s(self) -> float:
        return self.timing["written_at"] - self.spawned_at

    @property
    def setup_s(self) -> float:
        return self.timing["first_step_at"] - self.spawned_at

    @property
    def sim_s_per_s(self) -> float:
        return self.timing["sim_s"] / (
            self.timing["written_at"] - self.timing["first_step_at"]
        )

    def error_tail(self) -> str:
        try:
            return (self.out / "stderr.txt").read_text()[-2000:]
        except OSError:
            return ""


def spawn(workload: str, seed: int, mode: str, out: Path) -> ChildRun:
    """Run one child to completion; peak RSS comes from ``wait4``.

    The child leads its own process group, so a child that overruns
    ``CHILD_TIMEOUT_S`` is killed together with any sweep workers.
    """
    out.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--out",
        str(out),
    ]
    with open(out / "stderr.txt", "wb") as stderr:
        spawned_at = time.monotonic()
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            CHILD_TIMEOUT_S, os.killpg, (process.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(process.returncode, spawned_at, usage.ru_maxrss, out)


# -- noise diagnostics --------------------------------------------------


def calibration_loop_s() -> float:
    """Host time of a fixed pure-Python loop (about 20 ms)."""
    begin = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - begin


def host_metadata() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


# -- statistics ---------------------------------------------------------


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    position = (len(sorted_values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (
        position - low
    )


def spread(values) -> dict:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def step_ms(children, step_class: int) -> list:
    values = []
    for child in children:
        for seconds, cls in zip(child.timing["step_s"], child.timing["step_class"]):
            if cls == step_class:
                values.append(seconds * 1000.0)
    values.sort()
    return values


# -- correctness ----------------------------------------------------------


class Ledger:
    """Correctness operations: each check is one attempted op."""

    def __init__(self) -> None:
        self.ops = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)


def check_child(ledger: Ledger, child: ChildRun, tag: str, reference) -> None:
    ledger.op(
        f"{tag}.completed",
        child.ok,
        f"exit {child.returncode}: {child.error_tail()}" if not child.ok else "",
    )
    if not child.ok:
        return
    for name, ok, detail in child.timing["checks"]:
        ledger.op(f"{tag}.{name}", ok, detail)
    if reference is not None and child is not reference:
        ledger.op(
            f"{tag}.result_matches_check_run",
            reference.ok and child.result == reference.result,
        )


def recorded_digest(workload: str, seed: int):
    """The sha256 recorded for ``workload`` at ``seed``: under ``"all"``
    when every seed must give the same bytes, else under the seed."""
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload, {})
    return recorded.get("all", recorded.get(str(seed)))


# -- metrics --------------------------------------------------------------


def best_step_ms(children, step_class: int) -> list:
    """Each step's best host time over the children, for one class, sorted.

    The timed children of a run repeat identical, deterministic work, so
    step ``i`` of every child executes the same events.  Interference
    from the host only ever adds time, so the minimum over the children
    is the least perturbed measurement of that step.
    """
    classes = children[0].timing["step_class"]
    series = zip(*(c.timing["step_s"] for c in children))
    return sorted(
        min(times) * 1000.0
        for times, cls in zip(series, classes)
        if cls == step_class
    )


def steps_identical(children) -> bool:
    first = children[0].timing["step_class"]
    return all(c.timing["step_class"] == first for c in children[1:])


def end_to_end(children) -> tuple[dict, dict]:
    """The end-to-end metrics and the per-child figures behind them."""
    samples = {
        "wall_s": [c.wall_s for c in children],
        "setup_s": [c.setup_s for c in children],
        "sim_s_per_s": [c.sim_s_per_s for c in children],
        "peak_rss_mb": [c.maxrss_kb / 1024.0 for c in children],
    }
    for q in (50, 99):
        samples[f"tick_ms_p{q}"] = [
            percentile(step_ms([c], PLAIN), q) for c in children
        ]
    n = len(children)
    metrics = {
        "wall_s": (min(samples["wall_s"]), "s", n),
        "setup_s": (statistics.median(samples["setup_s"]), "s", n),
        "sim_s_per_s": (max(samples["sim_s_per_s"]), "sim_s/s", n),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB", n),
    }
    plain = best_step_ms(children, PLAIN)
    metrics["tick_ms_p50"] = (percentile(plain, 50), "ms", len(plain))
    metrics["tick_ms_p99"] = (percentile(plain, 99), "ms", len(plain))
    return metrics, {k: spread(v) for k, v in samples.items()}


def class_percentiles(children) -> dict:
    """Per-class step percentiles; 0 where a class has too few samples."""
    metrics = {}
    for label, cls, qs in (
        ("epoch", EPOCH, (50, 90)),
        ("reroute", TOPOLOGY, (50,)),
    ):
        values = step_ms(children, cls)
        for q in qs:
            ok = len(values) >= MIN_SAMPLES[q]
            metrics[f"steps.{label}_ms_p{q}"] = (
                percentile(values, q) if ok else 0.0,
                "ms",
                len(values),
            )
    return metrics


def runner_metrics(child: ChildRun) -> dict:
    sweep = child.timing.get("sweep")
    if not sweep or not sweep["cell_s"]:
        return {
            "runner.dispatch_s": (0.0, "s", 0),
            "runner.cell_s_p50": (0.0, "s", 0),
            "runner.cells_per_s": (0.0, "1/s", 0),
            "runner.worker_busy_frac": (0.0, "ratio", 0),
        }
    cells = sorted(sweep["cell_s"])
    wall, jobs = sweep["wall_s"], sweep["jobs"]
    return {
        "runner.dispatch_s": (wall - sum(cells) / jobs, "s", len(cells)),
        "runner.cell_s_p50": (percentile(cells, 50), "s", len(cells)),
        "runner.cells_per_s": (len(cells) / wall, "1/s", len(cells)),
        "runner.worker_busy_frac": (sum(cells) / (jobs * wall), "ratio", len(cells)),
    }


#: Layer metrics read from the traced child's span summary:
#: (metric name, layer, field).
LAYER_FIELDS = (
    ("import.self_s", "import", "self_s"),
    ("mesh.build.self_s", "mesh.build", "self_s"),
    ("mesh.routing.traceroute.calls", "mesh.routing.traceroute", "calls"),
    ("mesh.routing.traceroute.self_s", "mesh.routing.traceroute", "self_s"),
    ("mesh.topology.graph.calls", "mesh.topology.graph", "calls"),
    ("mesh.topology.graph.self_s", "mesh.topology.graph", "self_s"),
    ("net.netem.tick.calls", "net.netem.tick", "calls"),
    ("net.netem.tick.self_s", "net.netem.tick", "self_s"),
    ("net.netem.recompute.calls", "net.netem.recompute", "calls"),
    ("net.netem.recompute.self_s", "net.netem.recompute", "self_s"),
    ("net.fairness.solve.calls", "net.fairness.solve", "calls"),
    ("net.fairness.solve.self_s", "net.fairness.solve", "self_s"),
    ("net.netem.add_flow.calls", "net.netem.add_flow", "calls"),
    ("net.netem.add_flow.self_s", "net.netem.add_flow", "self_s"),
    ("net.netem.on_topology_change.calls", "net.netem.on_topology_change", "calls"),
    ("net.netem.on_topology_change.self_s", "net.netem.on_topology_change", "self_s"),
    ("sim.engine.run_until.self_s", "sim.engine.run_until", "self_s"),
    ("apps.update_demands.calls", "apps.update_demands", "calls"),
    ("apps.update_demands.self_s", "apps.update_demands", "self_s"),
    ("apps.sample_latencies.calls", "apps.sample_latencies", "calls"),
    ("apps.sample_latencies.self_s", "apps.sample_latencies", "self_s"),
    ("core.binding.sync_flows.calls", "core.binding.sync_flows", "calls"),
    ("core.binding.sync_flows.self_s", "core.binding.sync_flows", "self_s"),
    ("core.placement.place.calls", "core.placement.place", "calls"),
    ("core.placement.place.self_s", "core.placement.place", "self_s"),
    ("core.build_env.self_s", "core.build_env", "self_s"),
    ("core.deploy_app.self_s", "core.deploy_app", "self_s"),
    ("core.controlplane.run_epoch.calls", "core.controlplane.run_epoch", "calls"),
    ("core.controlplane.run_epoch.self_s", "core.controlplane.run_epoch", "self_s"),
    ("core.controller.observe.self_s", "core.controller.observe", "self_s"),
    ("core.controller.plan.self_s", "core.controller.plan", "self_s"),
    ("core.controller.act.self_s", "core.controller.act", "self_s"),
    ("core.netmonitor.full_probe.calls", "core.netmonitor.full_probe", "calls"),
    ("core.netmonitor.full_probe.self_s", "core.netmonitor.full_probe", "self_s"),
    ("core.netmonitor.headroom_probe.calls", "core.netmonitor.headroom_probe", "calls"),
    ("core.netmonitor.headroom_probe.self_s", "core.netmonitor.headroom_probe", "self_s"),
    ("faults.detector.beat.calls", "faults.detector.beat", "calls"),
    ("faults.detector.beat.self_s", "faults.detector.beat", "self_s"),
    ("faults.recovery.recover_from.calls", "faults.recovery.recover_from", "calls"),
    ("faults.recovery.recover_from.self_s", "faults.recovery.recover_from", "self_s"),
    ("obs.trace.emit.calls", "obs.trace.emit", "calls"),
    ("obs.trace.emit.self_s", "obs.trace.emit", "self_s"),
    ("obs.status.publish.calls", "obs.status.publish", "calls"),
    ("obs.status.publish.self_s", "obs.status.publish", "self_s"),
    ("snap.write.calls", "snap.write", "calls"),
    ("snap.write.self_s", "snap.write", "self_s"),
    ("snap.read.self_s", "snap.read", "self_s"),
    ("runner.run_sweep.self_s", "runner.run_sweep", "self_s"),
    ("runner.cell.self_s", "runner.cell", "self_s"),
    ("runner.reduce.self_s", "runner.reduce", "self_s"),
    ("bench.harness.self_s", "bench.harness", "self_s"),
)


def per_layer(traced: ChildRun, baseline: ChildRun, baseline_wall_s: float) -> dict:
    timing = traced.timing
    layers = timing["layers"]
    metrics = {}
    for name, layer, key in LAYER_FIELDS:
        value = layers.get(layer, {}).get(key, 0)
        metrics[name] = (value, "count" if key == "calls" else "s", None)
    tallies = timing["tallies"]
    for name, unit in (
        ("net.netem.on_topology_change.flows_rerouted", "count"),
        ("obs.status.publish.bytes", "bytes"),
        ("snap.write.bytes", "bytes"),
    ):
        metrics[name] = (tallies.get(name, 0), unit, None)
    counts = timing["counts"]
    for name, unit in (
        ("core.migrations", "count"),
        ("core.handoffs_committed", "count"),
        ("obs.stream.bytes", "bytes"),
    ):
        metrics[name] = (counts.get(name, 0), unit, None)
    metrics["net.fairness.full_solves"] = (
        tallies.get("net.fairness.full_solves", 0), "count", None
    )
    metrics["net.fairness.partial_solves"] = (
        tallies.get("net.fairness.partial_solves", 0), "count", None
    )
    total = tallies.get("net.fairness.components_total", 0)
    metrics["net.fairness.components_resolved_frac"] = (
        tallies.get("net.fairness.components_resolved", 0) / total if total else 0.0,
        "ratio",
        None,
    )
    metrics["sim.engine.events"] = (timing["events"], "count", None)
    traced_wall = traced.wall_s
    metrics["traced_wall_s"] = (traced_wall, "s", None)
    metrics["untraced_wall_s"] = (baseline_wall_s, "s", None)
    metrics["unattributed_s"] = (traced_wall - timing["root_s"], "s", None)
    metrics["unattributed_frac"] = (
        (traced_wall - timing["root_s"]) / traced_wall,
        "ratio",
        None,
    )
    metrics["trace_overhead_s"] = (traced_wall - baseline_wall_s, "s", None)
    metrics.update(runner_metrics(baseline))
    metrics.update(class_percentiles([baseline]))
    return metrics


# -- reporting ----------------------------------------------------------


def print_table(metrics: dict, spreads: dict) -> None:
    print(f"{'metric':44} {'value':>14} {'unit':8} {'samples':>8}")
    for name, (value, unit, samples) in metrics.items():
        count = "" if samples is None else str(samples)
        print(f"{name:44} {value:14.6g} {unit:8} {count:>8}")
    if spreads:
        print("run-to-run spread over this run's timed children (median q1 q3 min max n):")
        for name, s in spreads.items():
            print(
                f"  {name:20} {s['median']:.6g} {s['q1']:.6g} {s['q3']:.6g} "
                f"{s['min']:.6g} {s['max']:.6g} {s['n']}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src", quiet=1) or not compileall.compile_dir(
        HERE, quiet=1
    ):
        print("error: bytecode compilation failed", file=sys.stderr)
        return 2

    work = ROOT / ".e2ebench-work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ledger = Ledger()
    noise = {"host": host_metadata(), "calibration_loop_s": []}
    serial = 0

    def run_child(mode: str) -> ChildRun:
        nonlocal serial
        serial += 1
        before = calibration_loop_s()
        child = spawn(args.workload, args.seed, mode, work / f"{serial:02d}-{mode}")
        noise["calibration_loop_s"].append((before, calibration_loop_s()))
        return child

    try:
        check = run_child("check")
        check_child(ledger, check, "check", None)
        expected = recorded_digest(args.workload, args.seed)
        if expected is not None and check.ok:
            ledger.op(
                "check.matches_recorded_digest",
                hashlib.sha256(check.result).hexdigest() == expected,
            )

        timed = []
        if args.trace == 0:
            began = time.monotonic()
            while True:
                child = run_child("timed")
                check_child(ledger, child, f"timed{len(timed) + 1}", check)
                if not child.ok:
                    break
                timed.append(child)
                elapsed = time.monotonic() - began
                if elapsed >= args.seconds and len(timed) >= MIN_TIMED_CHILDREN:
                    break
            if len(timed) >= 2:
                ledger.op("timed.steps_identical_across_children", steps_identical(timed))
        else:
            baseline = run_child("timed")
            check_child(ledger, baseline, "baseline", check)
            traced = run_child("traced")
            check_child(ledger, traced, "traced", check)

        noise["host"]["loadavg_after"] = list(os.getloadavg())
        metrics, spreads = {}, {}
        if args.trace == 0 and timed:
            if not steps_identical(timed):
                timed = timed[:1]
            metrics, spreads = end_to_end(timed)
            if metrics["tick_ms_p99"][2] < MIN_SAMPLES[99]:
                print("warning: fewer than 1000 plain steps; tick_ms_p99 rests on too few samples")
        elif args.trace == 1 and baseline.ok and traced.ok:
            # sweep_mix's traced run executes its cells in process, so its
            # untraced baseline is the (in-process, serial) check run.
            base_wall = check.wall_s if args.workload == "sweep_mix" else baseline.wall_s
            metrics = per_layer(traced, baseline, base_wall)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".e2ebench-work").rmdir()
        except OSError:
            pass

    for name, ok, detail in ledger.ops:
        if not ok:
            print(f"FAILED {name}: {detail}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print_table(metrics, spreads)
    loops = noise["calibration_loop_s"]
    print(
        "noise: cpu_count {cpu_count} python {python} loadavg {loadavg}".format(**noise["host"])
        + f" -> {noise['host']['loadavg_after']}"
    )
    print(
        "noise: calibration loop ms before/after each child: "
        + " ".join(f"{a * 1000:.1f}/{b * 1000:.1f}" for a, b in loops)
    )
    correct = ledger.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, ledger.attempted),
                "failed": ledger.failed if ledger.attempted else 1,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
