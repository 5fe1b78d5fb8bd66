#!/usr/bin/env python3
"""The repository benchmark: host time and modelled latency of the
simulator on three seeded workloads, with an outside-in per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pairs_devsched --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every
point once untraced and once under :class:`tracer.Tracer` and reports the
per-layer metrics.  Metric names, units and the reason for each workload
live in ``BENCHMARK.json``.  Every run checks the program's outputs; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every check passed, and 2 (with no result line) when the checkout
holds no ``src/repro`` to benchmark.

*Host* metrics are the simulator's own cost; the two timings are
rescaled to a nominal host speed measured by a reference load
(``calibrate.py``), so that a shared host's drift in speed does not read
as a change in the program.  *Sim* metrics are what the modelled cluster
would see and repeat exactly for a seed.  The model has never been
checked against real GPUs and the repository holds no hardware reference
measurements, so no accuracy figure is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Seed used while writing a change, and a held-out seed to re-check a
#: claim on inputs that played no part in writing it.
DEFAULT_SEED = 42
HELD_OUT_SEED = 2014

#: Fresh-interpreter imports timed per run; their median enters setup_s.
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro.harness.runner, repro.obs, repro.traffic, repro.cluster, "
    "repro.workloads; print(repr(time.perf_counter() - t))"
)

#: What each end-to-end metric is.
END_TO_END = {
    "setup_s": "host seconds outside Environment.run: median fresh-interpreter "
               "import, plus input, testbed and system build and result "
               "reduction summed over points (per-point medians), rescaled "
               "like run_s",
    "run_s": "host seconds inside Environment.run, summed over points "
             "(per-point medians), rescaled to the nominal host speed by the "
             "reference load run after each point (calibrate.py)",
    "peak_rss_mb": "peak resident memory of this process",
    "sim_mean_completion_s": "geometric mean over points of mean request "
                             "completion time",
    "sim_tail_completion_s": "geometric mean over points of the nearest-rank "
                             "p90 completion time",
    "sim_goodput_rps": "completed requests per sim second: over the arrival "
                       "horizon for open-loop traffic, over the drain time "
                       "for request streams",
    "requests": "requests offered",
    "completed_frac": "share of offered requests that completed "
                      "(1 - failed_frac - aborted_frac)",
}

#: The end-to-end metric, and workload, each layer metric should move.
PER_LAYER = {
    "sim.events": "run_s everywhere, most on pairs_devsched",
    "sim.events_per_request": "run_s everywhere, most on pairs_devsched",
    "sim.processes": "run_s everywhere, most on pairs_devsched",
    "sim.processes_per_gpu_op": "run_s everywhere, most on pairs_devsched",
    "sim.timeouts": "run_s everywhere, most on pairs_devsched",
    "sim.self_s": "run_s everywhere, most on pairs_devsched",
    "simgpu.ops": "run_s everywhere",
    "simgpu.kernel_ops": "run_s everywhere",
    "simgpu.copy_ops": "run_s everywhere",
    "simgpu.self_s": "run_s everywhere",
    "simgpu.ctx_switches": "sim_mean_completion_s on the Rain points",
    "simgpu.compute_busy_frac": "sim_mean_completion_s and sim_goodput_rps",
    "simgpu.copy_busy_frac": "sim_mean_completion_s and sim_goodput_rps",
    "cuda.calls": "run_s on fig9_balance",
    "cuda.self_s": "run_s on fig9_balance",
    "cluster.messages": "none: confirms remote placement did not change",
    "cluster.transfer_bytes": "none: confirms remote placement did not change",
    "remoting.items_posted": "run_s on fig9_balance",
    "remoting.workers": "run_s on fig9_balance",
    "remoting.self_s": "run_s on fig9_balance",
    "core.binds": "run_s on openloop_churn",
    "core.bind_self_s": "run_s on openloop_churn",
    "core.rcb_registers": "run_s on openloop_churn",
    "core.gate_permissions": "run_s on pairs_devsched",
    "core.gate_wakes": "run_s and sim_mean_completion_s on pairs_devsched; 0 on fig9_balance",
    "core.gate_sleeps": "run_s and sim_mean_completion_s on pairs_devsched; 0 on fig9_balance",
    "core.gate_wait_sim_s": "sim_mean_completion_s on pairs_devsched; 0 on fig9_balance",
    "core.dispatcher_resumes": "run_s on pairs_devsched; 0 on fig9_balance",
    "core.dispatcher_self_s": "run_s on pairs_devsched",
    "core.session_self_s": "run_s everywhere",
    "core.self_s": "run_s everywhere",
    "apps.requests": "requests and completed_frac",
    "apps.host_s_per_request": "run_s everywhere",
    "workloads.gen_s": "setup_s",
    "traffic.sessions": "requests on openloop_churn only",
    "traffic.gen_s": "run_s on openloop_churn only",
    "obs.self_s": "run_s and peak_rss_mb on openloop_churn only",
    "obs.spans_flushed": "peak_rss_mb on openloop_churn only",
    "obs.bytes_written": "run_s on openloop_churn only",
    "harness.self_s": "run_s everywhere",
    "harness.trace_overhead_frac": "none: the cost of tracing itself",
}

LAYERS = ("sim", "simgpu", "cuda", "cluster", "remoting", "core", "apps",
          "workloads", "traffic", "obs", "harness")


def import_seconds() -> float:
    """Median host seconds a fresh interpreter takes to import the program."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(points, clock, workdir, seconds: float, timed: bool):
    """Run every point once.  With ``timed``, follow each run with a
    host-speed sample (``calibrate.sample``), run the cheapest point
    of each system again, so every run checks that a seed repeats
    exactly, then re-run points round-robin while the next one still
    fits in ``seconds``.  Returns one result list per point."""
    from calibrate import SHARE, sample
    from workloads import PointResult

    reps = [[] for _ in points]

    def run(k: int) -> None:
        try:
            result = points[k].run(clock, workdir)
        except Exception:  # noqa: BLE001 - a failing point is a result
            traceback.print_exc(file=sys.stderr)
            result = PointResult(
                label=points[k].label, run_s=0.0, setup_s=0.0, offered=1,
                completed=0, aborted=0, failed=1, completions=[], horizon_s=0.0,
                digest="", violations=["run raised (traceback on stderr)"],
            )
        if timed:
            result.reference = sample(result.run_s)
        reps[k].append(result)

    start = time.perf_counter()
    for k in range(len(points)):
        run(k)
    if not timed:
        return reps
    cheapest = {}
    for k in sorted(range(len(points)), key=lambda k: reps[k][0].run_s):
        cheapest.setdefault(points[k].policy, k)
    for k in cheapest.values():
        run(k)
    k = 0
    while (time.perf_counter() - start + reps[k][-1].run_s * (1 + SHARE)
           + reps[k][-1].setup_s <= seconds):
        run(k)
        k = (k + 1) % len(points)
    return reps


def sum_medians(reps, attr: str) -> float:
    return sum(statistics.median(getattr(r, attr) for r in rs) for rs in reps)


def judge(reps):
    """Correctness over every run: (violations, attempted, failed)."""
    violations, attempted, failed = [], 0, 0
    for rs in reps:
        for r in rs:
            bad = list(r.violations)
            if r.digest != rs[0].digest:
                bad.append("result digest differs from the first run of this seed")
            attempted += r.offered
            # A run that broke a check counts as failing in full.
            failed += r.offered if bad else r.failed
            violations += [f"{r.label}: {v}" for v in bad]
    return violations, attempted, failed


def sim_metrics(firsts, report) -> dict:
    from workloads import nearest_rank

    done = [r for r in firsts if r.completions]
    if not done:
        return {}
    offered = sum(r.offered for r in firsts)
    completed = sum(r.completed for r in firsts)
    sizes = sorted(len(r.completions) for r in done)
    report.append(f"tail: p90 of each point's completions ({sizes[0]} to "
                  f"{sizes[-1]} samples per point, {len(done)} points)")
    report.append(f"failed_frac = {sum(r.failed for r in firsts) / offered!r}, "
                  f"aborted_frac = {sum(r.aborted for r in firsts) / offered!r}")
    return {
        "sim_mean_completion_s": statistics.geometric_mean(
            sum(r.completions) / len(r.completions) for r in done),
        "sim_tail_completion_s": statistics.geometric_mean(
            nearest_rank(r.completions, 0.90) for r in done),
        "sim_goodput_rps": completed / sum(r.horizon_s for r in firsts),
        "requests": offered,
        "completed_frac": completed / offered,
    }


def end_to_end(points, clock, workdir, seconds, report):
    from calibrate import host_scale

    t0 = time.perf_counter()
    reps = measure(points, clock, workdir, seconds, timed=True)
    report.append(f"measured {sum(len(rs) for rs in reps)} runs of {len(points)} "
                  f"points in {time.perf_counter() - t0:.1f} s")
    samples = [r.reference for rs in reps for r in rs]
    scale = host_scale(samples)
    speeds = sorted(host_scale([s]) for s in samples)
    setup_s = import_seconds() + sum_medians(reps, "setup_s")
    run_s = sum_medians(reps, "run_s")
    report.append(f"unscaled: run_s {run_s!r} s, setup_s {setup_s!r} s; host "
                  f"scale {scale:.4f} (per point {speeds[0]:.3f} to {speeds[-1]:.3f})")
    metrics = {
        "setup_s": setup_s * scale,
        "run_s": run_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(sim_metrics([rs[0] for rs in reps], report))
    return reps, metrics


def isolation_checks(workload: str, m: dict) -> list:
    """Each workload must keep exercising, or bypassing, its layers."""
    out = []
    if workload == "fig9_balance" and m["core.dispatcher_resumes"] != 0:
        out.append("fig9_balance woke a device dispatcher")
    if workload == "pairs_devsched" and m["core.dispatcher_resumes"] == 0:
        out.append("pairs_devsched never woke a device dispatcher")
    if workload in ("pairs_devsched", "fig9_balance"):
        for name in PER_LAYER:
            if name.startswith(("traffic.", "obs.")) and m[name] != 0:
                out.append(f"{workload} has {name} = {m[name]!r}, expected 0")
    if workload == "openloop_churn":
        for name in ("traffic.sessions", "obs.spans_flushed", "core.binds"):
            if m[name] == 0:
                out.append(f"openloop_churn has {name} = 0")
    return out


def per_layer(workload, points, clock, workdir, report):
    from tracer import Tracer

    plain = measure(points, clock, workdir, 0.0, timed=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(points, clock, workdir, 0.0, timed=False)
    finally:
        tracer.uninstall()
    reps = [p + t for p, t in zip(plain, traced)]
    runs = [rs[0] for rs in traced]
    problems = []
    if tracer.stack:
        problems.append(f"{len(tracer.stack)} trace spans left open")

    c, own = tracer.counts, tracer.self_s
    stat = {"spans_flushed": 0, "bytes_written": 0}
    for r in runs:
        for k, v in r.stats.items():
            stat[k] = stat.get(k, 0) + v
    requests = sum(r.offered for r in runs)
    traced_run_s = sum(r.run_s for r in runs)
    plain_run_s = sum(rs[0].run_s for rs in plain)
    m = {
        "sim.events": stat["events"],
        "sim.events_per_request": stat["events"] / requests,
        "sim.processes": c["sim.processes"],
        "sim.processes_per_gpu_op": c["sim.processes"] / max(1, c["simgpu.ops"]),
        "sim.timeouts": c["sim.timeouts"],
        "sim.self_s": own["sim"],
        "simgpu.ops": c["simgpu.ops"],
        "simgpu.kernel_ops": c["simgpu.kernel_ops"],
        "simgpu.copy_ops": c["simgpu.copy_ops"],
        "simgpu.self_s": own["simgpu"],
        "simgpu.ctx_switches": stat["ctx_switches"],
        "simgpu.compute_busy_frac": stat["compute_busy_s"] / stat["compute_capacity_s"],
        "simgpu.copy_busy_frac": stat["copy_busy_s"] / stat["copy_capacity_s"],
        "cuda.calls": c["cuda.calls"],
        "cuda.self_s": own["cuda"],
        "cluster.messages": c["cluster.messages"],
        "cluster.transfer_bytes": c["cluster.transfer_bytes"],
        "remoting.items_posted": c["remoting.items_posted"],
        "remoting.workers": c["remoting.workers"],
        "remoting.self_s": own["remoting"],
        "core.binds": c["core.binds"],
        "core.bind_self_s": own["core.bind"],
        "core.rcb_registers": stat["rcb_registers"],
        "core.gate_permissions": c["core.gate_permissions"],
        "core.gate_wakes": stat["gate_wakes"],
        "core.gate_sleeps": stat["gate_sleeps"],
        "core.gate_wait_sim_s": c["core.gate_wait_sim_s"],
        "core.dispatcher_resumes": c["core.dispatcher.resumes"],
        "core.dispatcher_self_s": own["core.dispatcher"],
        "core.session_self_s": own["core.session"],
        "core.self_s": sum(v for k, v in own.items() if k.split(".")[0] == "core"),
        "apps.requests": c["apps.requests"],
        "apps.host_s_per_request": own["apps"] / max(1, c["apps.requests"]),
        "workloads.gen_s": own["workloads"],
        "traffic.sessions": c["traffic.sessions"],
        "traffic.gen_s": own["traffic"],
        "obs.self_s": own["obs"],
        "obs.spans_flushed": stat["spans_flushed"],
        "obs.bytes_written": stat["bytes_written"],
        "harness.self_s": own["harness"],
        "harness.trace_overhead_frac": traced_run_s / plain_run_s - 1.0,
    }

    # The self times of the spans inside Environment.run must add up to
    # the traced run_s: no span was left open or counted twice.
    in_run = sum(tracer.self_in_run_s.values())
    gap = abs(in_run - traced_run_s) / traced_run_s
    report.append(f"traced run_s {traced_run_s:.3f} s, untraced {plain_run_s:.3f} s; "
                  f"layer self times sum to {in_run:.3f} s (gap {gap:.3%})")
    for layer in LAYERS:
        share = sum(v for k, v in tracer.self_in_run_s.items()
                    if k.split(".")[0] == layer)
        report.append(f"  {layer:<10} {share:8.3f} s  {share / in_run:6.1%}")
    if gap > 0.01:
        problems.append(f"layer self times miss traced run_s by {gap:.2%}")
    problems += isolation_checks(workload, m)
    # Workload-level problems are booked on one run so judge() fails it.
    reps[0][-1].violations += problems
    return reps, m


def _number(value):
    """A plain JSON number (the program computes in NumPy floats)."""
    return value if isinstance(value, int) else float(value)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, RunClock

    points = WORKLOADS[args.workload](args.seed)
    report = [f"workload {args.workload}, seed {args.seed} (held-out seed "
              f"{HELD_OUT_SEED}): {why[args.workload]}"]
    clock = RunClock()
    clock.install()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            reps, metrics = per_layer(args.workload, points, clock, workdir, report)
            table, described = spec["per_layer"], PER_LAYER
        else:
            reps, metrics = end_to_end(points, clock, workdir, args.seconds, report)
            table, described = spec["end_to_end"], END_TO_END
    finally:
        clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    violations, attempted, failed = judge(reps)
    units = {m["name"]: m["unit"] for m in table}
    if not set(units) == set(described) == set(metrics):
        violations.append("metrics measured, described and declared in "
                          "BENCHMARK.json differ")
    for name, unit in units.items():
        value = _number(metrics[name]) if name in metrics else None
        report.append(f"{name} = {value!r} {unit}  ({described.get(name)})")
    report.append("accuracy: not reported; the model has no hardware reference "
                  "measurements to be checked against")
    report += [f"CHECK FAILED {v}" for v in violations]
    print("\n".join(report))
    print(json.dumps({
        "correct": not violations,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": _number(metrics[name]), "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
