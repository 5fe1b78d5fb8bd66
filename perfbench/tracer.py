"""Outside-in layer tracer for the simulator.

The tracer patches the public boundary functions of each layer (named
after the ranks in ``tools/check_layering.py``) with thin wrappers that
keep a span stack, so a layer's *self* time is its span time minus the
time of the spans nested inside it.  Generator-based layers (device
policy dispatchers, ``run_request``, the backend issue loop, engine and
op bodies) are driven by the simulation kernel, so the tracer wraps every
generator handed to ``Environment.process`` and times each resumption,
attributing it to the layer that owns the generator's code.

Nothing in ``src/`` is edited: :meth:`Tracer.install` swaps attributes
on the program's classes and modules and :meth:`Tracer.uninstall`
restores them.  The root span is ``Environment.run``; the time no other
span claims inside it is ``sim`` self time, which therefore includes the
event callbacks layers register with the kernel.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Public ``CudaThread`` API (the simulated CUDA runtime's entry points).
CUDA_API = (
    "get_device_count", "set_device", "get_device_properties", "malloc",
    "free", "memcpy", "memcpy_async", "launch_kernel", "stream_create",
    "stream_destroy", "stream_synchronize", "device_synchronize",
    "thread_exit",
)

#: Public ``ManagedSession`` entry points (the scheduled session path).
SESSION_API = (
    "bind", "finish", "malloc", "free", "memcpy", "launch", "synchronize",
    "abort",
)


def span_key(module: str, code_name: str) -> Optional[str]:
    """Span key of a generator body defined in ``module``, or None for
    code the tracer leaves to its caller (the kernel itself, the
    benchmark's own code)."""
    if module == "repro.core.policies.device" and code_name == "dispatcher":
        return "core.dispatcher"
    if module in ("repro.core.sessions", "repro.core.translation"):
        return "core.session"
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro" or parts[1] == "sim":
        return None
    return "obs" if parts[1] == "telemetry" else parts[1]


class TimedGen:
    """A generator proxy that times each resumption as a span."""

    __slots__ = ("_gen", "_key", "_tracer", "_started")

    def __init__(self, gen, key: str, tracer: "Tracer") -> None:
        self._gen = gen
        self._key = key
        self._tracer = tracer
        self._started = False

    def _step(self, fn, *args):
        tracer = self._tracer
        if self._started:
            tracer.counts[self._key + ".resumes"] += 1
        self._started = True
        tracer.enter(self._key)
        try:
            return fn(*args)
        finally:
            tracer.exit()

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *args):
        return self._step(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class Tracer:
    """Span stack, self-time ledger and boundary counters."""

    def __init__(self) -> None:
        #: Open spans: [key, start, time covered by child spans].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Self time of spans nested in an ``Environment.run`` root.
        self.self_in_run_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)
        self._undo: List[tuple] = []

    # -- span stack ----------------------------------------------------------

    def enter(self, key: str) -> None:
        self.stack.append([key, time.perf_counter(), 0.0])

    def exit(self) -> None:
        key, start, child = self.stack.pop()
        elapsed = time.perf_counter() - start
        own = elapsed - child
        self.self_s[key] += own
        if self.stack:
            self.stack[-1][2] += elapsed
        if (self.stack[0][0] if self.stack else key) == "sim":
            self.self_in_run_s[key] += own

    def timed(self, key: str, fn: Callable, count: Optional[str] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            tracer.enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def counted(self, count: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        orig = owner.__dict__[name]
        setattr(owner, name, make(orig))
        self._undo.append((owner, name, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def install(self) -> None:
        """Wrap every traced boundary (call :meth:`uninstall` to undo)."""
        import repro.workloads as workloads
        from repro.sim import Environment
        from repro.simgpu.device import GpuDevice
        from repro.simgpu.ops import KernelOp
        from repro.cuda.runtime import CudaThread
        from repro.cluster.network import Network
        from repro.remoting.worker import BackendIssueLoop
        from repro.core.affinity import GpuAffinityMapper
        from repro.core.dispatch import DispatchGate
        from repro.core.gpu_scheduler import GpuScheduler
        from repro.core.sessions import ManagedSession
        from repro.traffic import TrafficGenerator
        from repro.telemetry.instruments import Span, Telemetry
        from repro.obs.stream import SpanShardStore

        tracer, counts = self, self.counts

        # -- sim: the root span, process creation, timeouts -----------------
        self._patch(Environment, "run", lambda f: self.timed("sim", f))
        self._patch(Environment, "timeout", lambda f: self.counted("sim.timeouts", f))

        def make_process(orig):
            @functools.wraps(orig)
            def process(env, generator, name=None):
                counts["sim.processes"] += 1
                frame = getattr(generator, "gi_frame", None)
                if frame is not None:
                    code = generator.gi_code
                    module = frame.f_globals.get("__name__", "")
                    if module == "repro.apps.models" and code.co_name == "run_request":
                        counts["apps.requests"] += 1
                    key = span_key(module, code.co_name)
                    if key is not None:
                        name = name or generator.__name__
                        generator = TimedGen(generator, key, tracer)
                return orig(env, generator, name)

            return process

        self._patch(Environment, "process", make_process)

        # -- simgpu: op submission ----------------------------------------
        def make_submit(orig):
            timed = self.timed("simgpu", orig, count="simgpu.ops")

            @functools.wraps(orig)
            def submit(device, stream, op):
                counts["simgpu.kernel_ops" if isinstance(op, KernelOp) else "simgpu.copy_ops"] += 1
                return timed(device, stream, op)

            return submit

        self._patch(GpuDevice, "submit", make_submit)

        # -- cuda: the runtime API ----------------------------------------
        for name in CUDA_API:
            self._patch(CudaThread, name, lambda f: self.timed("cuda", f, count="cuda.calls"))

        # -- cluster: network cost model (counts only) ----------------------
        self._patch(Network, "message_delay", lambda f: self.counted("cluster.messages", f))

        def make_transfer(orig):
            @functools.wraps(orig)
            def transfer_delay(net, nbytes, local):
                counts["cluster.transfer_bytes"] += nbytes
                return orig(net, nbytes, local)

            return transfer_delay

        self._patch(Network, "transfer_delay", make_transfer)

        # -- remoting: the backend issue loop ------------------------------
        self._patch(BackendIssueLoop, "post",
                    lambda f: self.timed("remoting", f, count="remoting.items_posted"))
        self._patch(BackendIssueLoop, "__init__", lambda f: self.counted("remoting.workers", f))

        # -- core: placement, gate, sessions --------------------------------
        self._patch(GpuAffinityMapper, "bind",
                    lambda f: self.timed("core.bind", f, count="core.binds"))
        self._patch(GpuScheduler, "permission", lambda f: self.timed("core", f))

        def make_permission(orig):
            @functools.wraps(orig)
            def permission(gate, entry, phase):
                counts["core.gate_permissions"] += 1
                ev = orig(gate, entry, phase)
                if ev.callbacks is not None and not ev.triggered:
                    parked_at = gate.env.now

                    def unparked(_ev, env=gate.env):
                        counts["core.gate_wait_sim_s"] += env.now - parked_at

                    ev.callbacks.append(unparked)
                return ev

            return permission

        self._patch(DispatchGate, "permission", make_permission)
        for name in SESSION_API:
            self._patch(ManagedSession, name, lambda f: self.timed("core.session", f))

        # -- workloads / traffic: input generation --------------------------
        self._patch(workloads, "exponential_stream", lambda f: self.timed("workloads", f))

        def make_sessions(orig):
            @functools.wraps(orig)
            def sessions(gen):
                it = orig(gen)
                while True:
                    tracer.enter("traffic")
                    try:
                        item = next(it, None)
                    finally:
                        tracer.exit()
                    if item is None:
                        return
                    counts["traffic.sessions"] += 1
                    yield item

            return sessions

        self._patch(TrafficGenerator, "sessions", make_sessions)

        # -- obs / telemetry: span recording and streaming -------------------
        self._patch(Telemetry, "start_span", lambda f: self.timed("obs", f))
        self._patch(Span, "finish", lambda f: self.timed("obs", f))
        self._patch(SpanShardStore, "flush", lambda f: self.timed("obs", f))
        self._patch(SpanShardStore, "close", lambda f: self.timed("obs", f))


__all__ = ["Tracer", "span_key"]
