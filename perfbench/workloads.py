"""The benchmark's workloads: seeded inputs, one timed run of a point,
and the correctness checks every run must pass.

A workload is a list of *points*, each one (system, input) pair driven
through the public harness runners.  The program only ever receives the
generated request streams or traffic; the seed never reaches it.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

import repro.workloads as wl
from repro.apps import ALL_APPS
from repro.cluster import build_paper_supernode
from repro.harness.runner import (
    run_open_loop_experiment,
    run_stream_experiment,
    system_factories,
)
from repro.obs import Sampler, Telemetry, attach_store
from repro.sim import Environment
from repro.sim.rng import RandomStream, derive_seed
from repro.traffic import TrafficGenerator, parse_traffic_spec

#: Paper-scale stream sizes (``ExperimentScale`` defaults).
REQUESTS_PER_STREAM = 20
PAIR_LOAD_FACTOR = 6.0
FIG9_LOAD_FACTOR = 1.6

#: Long and short Group-A apps: pair A = (DC, BS), F = (SC, MC),
#: X = (EV, SN).
DEVSCHED_PAIRS = ("A", "F", "X")
DEVSCHED_POLICIES = ("LAS-Strings", "PS-Strings", "LAS-Rain")
DEVSCHED_REPLICATES = 2
BALANCE_POLICIES = ("GMin-Strings", "GWtMin-Strings", "GMin-Rain")
BALANCE_REPLICATES = 4

#: The production-scale smoke mix (``benchmarks/scale_smoke.py``) at
#: ~83% of the supernode's ~30 rps knee.  Each replicate offers the first
#: CHURN_REQUESTS requests (about 15 s of session arrivals); the spec's
#: horizon only has to be long enough to hold them.  Eight short
#: replicates rather than four long ones give the host-speed reference
#: eight points to sample after, not four.
CHURN_SPEC = (
    "poisson:rate=25,tenants=1200,churn=exp:60,duration=600,"
    "apps=GA*4+SN*2+BS,nodes=2"
)
CHURN_REQUESTS = 350
CHURN_REPLICATES = 8
CHURN_POLICY = "GMin-Strings"


class RunClock:
    """Host seconds and kernel events inside ``Environment.run``."""

    def __init__(self) -> None:
        self.run_s = 0.0
        self.events = 0
        self._orig = None

    def install(self) -> None:
        orig = self._orig = Environment.__dict__["run"]
        clock = self

        def run(env, until=None):
            events0 = env.events_processed
            t0 = time.perf_counter()
            try:
                return orig(env, until)
            finally:
                clock.run_s += time.perf_counter() - t0
                clock.events += env.events_processed - events0

        Environment.run = run

    def uninstall(self) -> None:
        Environment.run = self._orig

    def mark(self) -> tuple:
        return time.perf_counter(), self.run_s, self.events


@dataclass
class PointResult:
    """One run of one point: host timings, outcomes and public end state."""

    label: str
    run_s: float
    setup_s: float
    offered: int
    completed: int
    aborted: int
    failed: int
    completions: List[float]
    #: Sim seconds the goodput is taken over.
    horizon_s: float
    digest: str
    violations: List[str]
    stats: Dict[str, float] = field(default_factory=dict)
    #: Host seconds and chunks of the reference load run after this
    #: point (``calibrate.sample``); none in traced runs.
    reference: tuple = (0.0, 0)


def _digest(offered, completed, aborted, failed, results) -> str:
    # request_id comes from a process-wide counter, so it is left out.
    rows = [(r.app, r.arrival_s, r.start_s, r.finish_s) for r in results]
    blob = repr((offered, completed, aborted, failed, rows)).encode()
    return hashlib.sha256(blob).hexdigest()


def end_state(system, nodes, sim_time_s: float) -> Dict[str, float]:
    """Counters read from the program's public state after a run."""
    devices = [dev for node in nodes for dev in node.devices]
    copy_engines = {
        id(e): e for dev in devices for e in (dev.h2d_engine, dev.d2h_engine)
    }.values()
    scheds = list(system.schedulers.values())
    return {
        "ctx_switches": sum(dev.ctx_switches for dev in devices),
        "compute_busy_s": float(sum(dev.compute.busy_seconds() for dev in devices)),
        "compute_capacity_s": len(devices) * sim_time_s,
        "copy_busy_s": float(sum(e.busy_seconds() for e in copy_engines)),
        "copy_capacity_s": len(copy_engines) * sim_time_s,
        "gate_wakes": sum(s.gate.wakes for s in scheds),
        "gate_sleeps": sum(s.gate.sleeps for s in scheds),
        "rcb_registers": sum(s.rcb.registrations for s in scheds),
    }


def check_run(system, nodes, sim_time_s, offered, completed, aborted, failed,
              completions) -> List[str]:
    """Conservation and clean-teardown checks on a finished run."""
    out = []
    if offered != completed + aborted + failed:
        out.append(
            f"offered {offered} != completed {completed} + aborted {aborted}"
            f" + failed {failed}"
        )
    for node in nodes:
        for dev in node.devices:
            if dev.allocated_bytes != 0:
                out.append(f"{dev!r} holds {dev.allocated_bytes} B at the end")
            engines = {id(e): e for e in (dev.compute, dev.h2d_engine, dev.d2h_engine)}
            for engine in engines.values():
                busy = engine.busy_seconds()
                if busy > sim_time_s * (1 + 1e-12):
                    out.append(
                        f"{dev!r} engine busy {busy!r} s > elapsed {sim_time_s!r} s"
                    )
    for gid, sched in system.schedulers.items():
        if sched.rcb.entries():
            out.append(f"RCB of GPU {gid} holds {len(sched.rcb.entries())} entries")
    bad = [c for c in completions if not (c > 0 and math.isfinite(c))]
    if bad:
        out.append(f"{len(bad)} non-positive completion times, e.g. {bad[0]!r}")
    return out


def _capture(factory, box: dict):
    """Wrap a system factory so the run's system and nodes stay reachable."""

    def make(env, nodes, network):
        box["system"], box["nodes"] = factory(env, nodes, network), nodes
        return box["system"]

    return make


def _result(label, clock, mark, box, sim_time_s, horizon_s, offered, completed,
            aborted, failed, results) -> PointResult:
    """Time, check and digest one finished run begun at ``clock.mark()``."""
    t0, run0, events0 = mark
    completions = [r.completion_s for r in results]
    run_s = clock.run_s - run0
    setup_s = time.perf_counter() - t0 - run_s
    system, nodes = box["system"], box["nodes"]
    stats = end_state(system, nodes, sim_time_s)
    stats["events"] = clock.events - events0
    counts = (offered, completed, aborted, failed)
    return PointResult(
        label=label,
        run_s=run_s,
        setup_s=setup_s,
        offered=offered,
        completed=completed,
        aborted=aborted,
        failed=failed,
        completions=completions,
        horizon_s=horizon_s,
        digest=_digest(*counts, results),
        violations=check_run(system, nodes, sim_time_s, *counts, completions),
        stats=stats,
    )


class StreamPoint:
    """A policy serving seeded request streams on the paper supernode."""

    def __init__(self, label: str, policy: str, make_streams: Callable) -> None:
        self.label = label
        self.policy = policy
        self.make_streams = make_streams

    def run(self, clock: RunClock, workdir: str) -> PointResult:
        mark = clock.mark()
        streams = self.make_streams()
        box: dict = {}
        res = run_stream_experiment(
            _capture(system_factories()[self.policy], box),
            streams,
            build_paper_supernode,
            label=self.label,
        )
        offered = sum(len(s) for s in streams)
        completed = len(res.results)
        # The stream runner has no abort path: a request that did not
        # complete was lost.  Goodput is taken over the drain time.
        return _result(self.label, clock, mark, box, res.sim_time_s, res.sim_time_s,
                       offered, completed, 0, offered - completed, res.results)


class FirstRequests:
    """The first ``n`` requests of a traffic scenario, as a traffic source.

    A fixed request count keeps a run's work from following the seed's
    draw of the Poisson arrival count.  ``horizon_s`` is the arrival of
    the last session, the bound the runner's own duration horizon puts
    on session arrivals.
    """

    def __init__(self, traffic: TrafficGenerator, n: int) -> None:
        self.traffic = traffic
        self.n = n
        self.duration_s = traffic.duration_s
        self.horizon_s = 0.0

    def sessions(self):
        left = self.n
        for ts in self.traffic.sessions():
            if len(ts.requests) > left:
                ts = replace(ts, requests=ts.requests[:left])
            left -= len(ts.requests)
            self.horizon_s = ts.arrival_s
            yield ts
            if left == 0:
                return


class ChurnPoint:
    """Open-loop Poisson traffic with tenant churn, streaming telemetry on."""

    policy = CHURN_POLICY

    def __init__(self, label: str, seed: int) -> None:
        self.label = label
        self.seed = seed
        self._runs = 0

    def run(self, clock: RunClock, workdir: str) -> PointResult:
        self._runs += 1
        store_dir = os.path.join(workdir, f"spans-{self.seed}-{self._runs}")
        try:
            return self._run(clock, store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _run(self, clock: RunClock, store_dir: str) -> PointResult:
        mark = clock.mark()
        traffic = FirstRequests(
            TrafficGenerator(parse_traffic_spec(CHURN_SPEC), seed=self.seed),
            CHURN_REQUESTS,
        )
        tel = Telemetry()
        tel.sampler = Sampler(interval_s=1.0)
        store = attach_store(tel, store_dir, buffer_limit=4096)
        box: dict = {}
        res = run_open_loop_experiment(
            _capture(system_factories()[CHURN_POLICY], box),
            traffic,
            build_paper_supernode,
            label=self.label,
            prewarm=True,
            telemetry=tel,
            keep_results=True,
        )
        store.close()
        result = _result(self.label, clock, mark, box, res.sim_time_s,
                         traffic.horizon_s, res.offered, res.completed,
                         res.aborted, res.failed, res.results)
        result.stats["spans_flushed"] = store.stats()["spans_flushed"]
        result.stats["bytes_written"] = sum(
            os.path.getsize(os.path.join(store_dir, f)) for f in os.listdir(store_dir)
        )
        if len(res.results) != res.completed:
            result.violations.append(
                f"{len(res.results)} results kept for {res.completed} completions"
            )
        return result


# -- workload definitions --------------------------------------------------
#
# Each workload runs its points on several input replicates, all derived
# from the one ``--seed``: a 20-request stream varies a lot from seed to
# seed, and the replicates average that out within a run.


def _pair_streams(seed: int, replicate: int, pair: str):
    app_a, app_b = wl.pair_apps(pair)
    rng = RandomStream(seed, "pairs_devsched", replicate, pair)
    return [
        wl.exponential_stream(app_a, rng.spawn("A"), REQUESTS_PER_STREAM,
                              PAIR_LOAD_FACTOR, node_index=0, tenant_id="tenantA"),
        wl.exponential_stream(app_b, rng.spawn("B"), REQUESTS_PER_STREAM,
                              PAIR_LOAD_FACTOR, node_index=1, tenant_id="tenantB"),
    ]


def _all_app_streams(seed: int, replicate: int):
    # The merged stream of all apps carries load 1.6, split evenly.
    load = FIG9_LOAD_FACTOR / len(ALL_APPS)
    return [
        wl.exponential_stream(
            app, RandomStream(seed, "fig9_balance", replicate, app.short),
            REQUESTS_PER_STREAM, load,
        )
        for app in ALL_APPS
    ]


def pairs_devsched(seed: int) -> list:
    return [
        StreamPoint(f"{policy}/{pair}/r{r}", policy,
                    lambda r=r, pair=pair: _pair_streams(seed, r, pair))
        for r in range(DEVSCHED_REPLICATES)
        for pair in DEVSCHED_PAIRS
        for policy in DEVSCHED_POLICIES
    ]


def fig9_balance(seed: int) -> list:
    return [
        StreamPoint(f"{policy}/r{r}", policy, lambda r=r: _all_app_streams(seed, r))
        for r in range(BALANCE_REPLICATES)
        for policy in BALANCE_POLICIES
    ]


def openloop_churn(seed: int) -> list:
    return [
        ChurnPoint(f"{CHURN_POLICY}/r{r}", derive_seed(seed, "openloop_churn", r))
        for r in range(CHURN_REPLICATES)
    ]


#: name -> (seed -> points).  Why each workload exists is recorded in
#: BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[int], list]] = {
    "pairs_devsched": pairs_devsched,
    "fig9_balance": fig9_balance,
    "openloop_churn": openloop_churn,
}


def nearest_rank(samples: List[float], q: float) -> float:
    """Exact nearest-rank ``q`` quantile of ``samples``."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(q * len(xs))) - 1]


__all__ = [
    "PointResult",
    "RunClock",
    "WORKLOADS",
    "nearest_rank",
]
