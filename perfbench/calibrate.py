"""Host-speed calibration for the benchmark's host timings.

A shared host runs the same pure-Python work up to 30% faster or slower
for minutes at a time, depending on what its other tenants do; sampling
the same point for longer does not average that out.  After each timed
point the benchmark runs a fixed reference load for a share of the
point's time, and rescales the run's host times by the reference's
speed over the whole run against its speed on a nominal host.  The
reference is a small discrete-event loop of generators, a heap and small
objects, the work the simulator's kernel does; it lives here, so no
change to the program changes it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Kernel steps in one reference chunk.
CHUNK_STEPS = 10000
#: Host seconds one chunk takes on the nominal host (the median on a
#: quiet 2-vCPU Xeon at 2.1 GHz, CPython 3.11).
NOMINAL_CHUNK_S = 0.02
#: Reference time after a point, as a share of the point's run time.
SHARE = 0.12


class _Job:
    __slots__ = ("left", "tag")

    def __init__(self, left: float, tag: dict) -> None:
        self.left = left
        self.tag = tag


def chunk() -> int:
    """One fixed run of the reference event loop; returns its step count."""
    rng = random.Random(7)

    def proc(k):
        job = _Job(rng.random() * 4.0, {"k": k, "n": 0})
        while job.left > 0:
            d = min(job.left, 0.5)
            job.left -= d
            job.tag["n"] += 1
            yield d

    heap, procs, seq = [], {}, 0
    for k in range(200):
        procs[k] = proc(k)
        heapq.heappush(heap, (0.0, seq, k))
        seq += 1
    steps = 0
    while heap and steps < CHUNK_STEPS:
        now, _, k = heapq.heappop(heap)
        steps += 1
        try:
            delay = next(procs[k])
        except StopIteration:
            procs[k] = proc(k + 1000 * steps)
            delay = 0.0
        heapq.heappush(heap, (now + delay, seq, k))
        seq += 1
    return steps


def sample(run_s: float) -> tuple:
    """Run the reference for about ``SHARE * run_s`` host seconds (two
    chunks at least); returns ``(host seconds, chunks)``.

    The collector is off while the reference runs, so the program's
    leftover heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        n, t0 = 0, time.perf_counter()
        while n < 2 or time.perf_counter() - t0 < SHARE * run_s:
            chunk()
            n += 1
        return time.perf_counter() - t0, n
    finally:
        if enabled:
            gc.enable()


def host_scale(samples) -> float:
    """Nominal over measured reference speed, pooled over a run's
    samples.  Multiply the run's host times by it to get the times on the
    nominal host.  Pooling over the whole run, rather than scaling each
    point by its own short sample, keeps the reference's own
    second-to-second noise out of the result."""
    seconds = sum(s for s, _ in samples)
    chunks = sum(n for _, n in samples)
    return NOMINAL_CHUNK_S * chunks / seconds
