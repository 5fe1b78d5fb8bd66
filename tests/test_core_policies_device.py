"""Unit tests for the device-level policies (TFS / LAS / PS dispatchers)."""

import gc

import pytest

from repro.sim import Environment
from repro.simgpu import TESLA_C2050, GpuDevice, KernelOp
from repro.cluster import build_single_gpu_server
from repro.core import StringsSystem
from repro.core.config import SchedulerConfig
from repro.core.gpu_scheduler import GpuScheduler
from repro.core.policies import GRR
from repro.core.policies.device import LAS, PS, TFS, AlwaysAwake
from repro.core.rcb import GpuPhase, RcbEntry

CFG = SchedulerConfig()


def tenant_proc(env, sched, device, entry, n_ops, kernel_s=0.01, occupancy=0.4):
    """A synthetic backend thread: n_ops gated kernels on its own stream."""
    ctx = device.create_context(owner=entry.app_name)
    stream = ctx.create_stream()
    flops = kernel_s * TESLA_C2050.peak_gflops
    for _ in range(n_ops):
        yield sched.permission(entry, GpuPhase.KL)
        entry.issue()
        rec = yield device.submit(stream, KernelOp(flops=flops, bytes_accessed=1e-6, occupancy=occupancy))
        entry.complete(rec)
    return env.now


def setup(policy):
    env = Environment()
    device = GpuDevice(env, TESLA_C2050)
    sched = GpuScheduler(env, device, gid=0, policy=policy, config=CFG)
    return env, device, sched


def register(env, sched, name, weight=1.0):
    holder = {}

    def _reg(env):
        holder["entry"] = yield sched.register(name, "t", weight)

    env.process(_reg(env))
    env.run(until=env.now + 0.001)
    return holder["entry"]


def test_always_awake_entries_never_gated():
    env, device, sched = setup(AlwaysAwake())
    e = register(env, sched, "A")
    assert e.awake
    ev = sched.permission(e, GpuPhase.KL)
    assert ev.triggered


def test_gated_policies_start_entries_asleep():
    env, device, sched = setup(TFS())
    e = register(env, sched, "A")
    assert not e.awake


def test_tfs_equal_weights_get_equal_service():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")
    env.process(tenant_proc(env, sched, device, a, n_ops=40))
    env.process(tenant_proc(env, sched, device, b, n_ops=40))
    env.run(until=1.0)
    assert a.service_attained_s > 0.05
    ratio = a.service_attained_s / max(b.service_attained_s, 1e-9)
    assert 0.7 < ratio < 1.4


def test_tfs_weighted_shares():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A", weight=3.0)
    b = register(env, sched, "B", weight=1.0)
    env.process(tenant_proc(env, sched, device, a, n_ops=200, kernel_s=0.005))
    env.process(tenant_proc(env, sched, device, b, n_ops=200, kernel_s=0.005))
    env.run(until=1.0)
    ratio = a.service_attained_s / max(b.service_attained_s, 1e-9)
    assert 1.8 < ratio < 4.5


def test_tfs_at_most_one_awake():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")
    c = register(env, sched, "C")
    env.process(tenant_proc(env, sched, device, a, n_ops=30))
    env.process(tenant_proc(env, sched, device, b, n_ops=30))
    env.process(tenant_proc(env, sched, device, c, n_ops=30))
    violations = []

    def probe(env):
        while env.now < 0.5:
            awake = sum(e.awake for e in (a, b, c))
            if awake > 1:
                violations.append((env.now, awake))
            yield env.timeout(0.001)

    env.process(probe(env))
    env.run(until=0.5)
    assert violations == []


def test_tfs_work_conserving_when_one_idle():
    env, device, sched = setup(TFS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")  # never issues work
    done = env.process(tenant_proc(env, sched, device, a, n_ops=20, kernel_s=0.01))
    finish = env.run(until=done)
    # 20 x 10ms kernels ~ 0.2s of work; a full 50/50 split of epochs would
    # roughly double that. Work conservation keeps it close to solo.
    assert finish < 0.40


def test_las_prefers_least_attained_service():
    env, device, sched = setup(LAS())
    entries = [register(env, sched, n) for n in ("A", "B", "C", "D", "E")]
    # Give A a huge CGS history: with 5 runnable tenants and 3 wake slots,
    # A must be the one left out while the others run.
    entries[0].cgs = 100.0
    for e in entries:
        env.process(tenant_proc(env, sched, device, e, n_ops=10))
    env.run(until=0.3)
    others = [e.service_attained_s for e in entries[1:]]
    assert entries[0].service_attained_s <= min(others)


def test_las_decay_rolls_every_quantum():
    env, device, sched = setup(LAS())
    a = register(env, sched, "A")
    env.process(tenant_proc(env, sched, device, a, n_ops=10))
    env.run(until=0.3)
    # After several quanta with service, CGS must be positive.
    assert a.cgs > 0.0


def test_las_short_jobs_finish_first():
    env, device, sched = setup(LAS())
    long_e = register(env, sched, "LONG")
    short_e = register(env, sched, "SHORT")
    long_p = env.process(tenant_proc(env, sched, device, long_e, n_ops=50, kernel_s=0.02))
    short_p = env.process(tenant_proc(env, sched, device, short_e, n_ops=5, kernel_s=0.002))
    env.run()
    assert short_p.value < long_p.value


# -- PS phase picking (pure logic) ------------------------------------------------


def entry_with(phase, service=0.0, name="X"):
    e = RcbEntry(app_name=name, tenant_id="t", tenant_weight=1.0, registered_at=0.0)
    e.pending = 1
    e.phase = phase
    e.service_attained_s = service
    return e


def test_ps_picks_one_per_phase():
    ps = PS()
    kl = entry_with(GpuPhase.KL, name="kl")
    h2d = entry_with(GpuPhase.H2D, name="h2d")
    d2h = entry_with(GpuPhase.D2H, name="d2h")
    extra = entry_with(GpuPhase.KL, service=9.0, name="kl2")
    picked = ps._pick([kl, h2d, d2h, extra])
    assert kl in picked and h2d in picked and d2h in picked
    assert extra not in picked


def test_ps_prefers_least_served_within_phase():
    ps = PS()
    hot = entry_with(GpuPhase.KL, service=5.0, name="hot")
    cold = entry_with(GpuPhase.KL, service=0.1, name="cold")
    picked = ps._pick([hot, cold])
    assert cold in picked


def test_ps_fills_spare_slots_by_phase_priority():
    ps = PS()
    k1 = entry_with(GpuPhase.KL, service=0.0, name="k1")
    k2 = entry_with(GpuPhase.KL, service=1.0, name="k2")
    k3 = entry_with(GpuPhase.KL, service=2.0, name="k3")
    k4 = entry_with(GpuPhase.KL, service=3.0, name="k4")
    picked = ps._pick([k1, k2, k3, k4])
    assert len(picked) == 3
    assert k4 not in picked  # most-served kernel-phase entry left out


def test_ps_overlaps_phases_on_device():
    env, device, sched = setup(PS())
    a = register(env, sched, "A")
    b = register(env, sched, "B")
    # Both runnable in different phases: both should be awake together.
    sched.permission(a, GpuPhase.KL)
    sched.permission(b, GpuPhase.H2D)
    env.run(until=0.05)
    assert a.awake and b.awake


# -- dispatcher wake economy -----------------------------------------------------


@pytest.mark.parametrize("policy", [LAS, TFS])
def test_timer_ended_quanta_leave_at_most_one_idle_waiter(policy):
    # 100 ms kernels outlast every 20 ms LAS quantum and TFS slice, so the
    # quanta end on their timers while both tenants stay runnable.
    env, device, sched = setup(policy())
    entries = [register(env, sched, n) for n in ("A", "B")]
    for e in entries:
        env.process(tenant_proc(env, sched, device, e, n_ops=30, kernel_s=0.1))
    longest = [0]

    def probe(env):
        while True:
            longest[0] = max(longest[0], *(len(e._idle_waiters) for e in entries))
            yield env.timeout(0.001)

    env.process(probe(env))
    env.run(until=3.0)
    assert all(e.ops_completed >= 5 for e in entries)
    assert longest[0] <= 1


def op_cycle(env, sched, entry, op_s):
    """A device-free backend thread: gated ops of ``op_s`` each, forever
    (they complete as failed ops, so nothing touches the GPU model)."""
    while True:
        yield sched.permission(entry, GpuPhase.KL)
        entry.issue()
        yield env.timeout(op_s)
        entry.complete(None)


@pytest.mark.parametrize("policy", [LAS, TFS, PS])
def test_dispatcher_waits_leave_no_cyclic_garbage(policy):
    # 50 ms ops outlast the 20 ms LAS quantum and TFS slice, so quanta end
    # both on their timers and on idleness; PS re-picks on every change.
    # What a wait leaves behind must be freed by reference counting: the
    # unreachable objects the collector finds do not grow with the run.
    def garbage(quanta):
        gc.collect()
        gc.disable()
        try:
            env, device, sched = setup(policy())
            entries = [register(env, sched, n) for n in ("A", "B", "C", "D")]
            for e in entries:
                env.process(op_cycle(env, sched, e, 0.05))
            env.run(until=quanta * CFG.las_quantum_s)
            return gc.collect(), env.events_processed
        finally:
            gc.enable()

    short, long = garbage(25), garbage(100)
    assert long[1] > 3 * short[1]
    assert long[0] <= short[0]


class _CountingPS(PS):
    """PS whose dispatcher counts its own resumptions."""

    def __init__(self):
        self.resumes = 0

    def dispatcher(self, sched):
        inner = super().dispatcher(sched)
        event = next(inner)
        while True:
            value = yield event
            self.resumes += 1
            event = inner.send(value)


def test_ps_resumes_do_not_scale_with_kernel_length():
    def resumes(kernel_s):
        policy = _CountingPS()
        env, device, sched = setup(policy)
        a = register(env, sched, "A")
        done = env.process(tenant_proc(env, sched, device, a, n_ops=1, kernel_s=kernel_s))
        env.run(until=done)
        return policy.resumes

    short, long_ = resumes(0.05), resumes(5.0)
    # Registration, the demand and the completion: nothing per unit time.
    assert short == long_ <= 4


def _gate_pass_after_failures(policy, fail_at=1.005):
    """Four tenants share one GPU.  A, B and C post one kernel each and
    are woken; D posts later and parks.  At ``fail_at`` the three in-flight
    ops fail.  Returns the sim time D's op passed the gate."""
    env = Environment()
    nodes, net = build_single_gpu_server(env)
    system = StringsSystem(env, nodes, net, balancing=GRR(), device_policy=policy)
    ops, passed = {}, {}

    def make(name):
        def _make():
            passed[name] = env.now
            ops[name] = env.event()
            return ops[name]

        return _make

    def tenant(name, post_at):
        sess = system.session(name, nodes[0], tenant_id=f"t{name}")
        yield sess.bind()
        yield env.timeout(post_at - env.now)
        sess._post(GpuPhase.KL, make(name), blocking=False)

    def fault():
        yield env.timeout(fail_at)
        assert sorted(passed) == ["A", "B", "C"]
        for name in "ABC":
            ops[name].fail(RuntimeError("injected op failure"))

    for name in "ABC":
        env.process(tenant(name, 0.1))
    env.process(tenant("D", 0.5))
    env.process(fault())
    env.run(until=fail_at + 0.1)
    return passed["D"]


@pytest.mark.parametrize("policy", [PS, LAS])
def test_failed_ops_wake_the_dispatcher_at_once(policy):
    # A failed op leaves the device like a completed one: its entry goes
    # idle and the dispatcher re-picks at the failure, not at its next
    # timer (PS's tick or the end of the LAS quantum).
    assert _gate_pass_after_failures(policy) == 1.005
