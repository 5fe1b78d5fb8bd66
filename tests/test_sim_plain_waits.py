"""``any_of_event`` / ``all_of_event`` against ``AnyOf`` / ``AllOf``.

Each scenario is replayed twice, once waiting through the condition
classes and once through the plain-event helpers, and must produce the
same callback order, clock and ``env.events_processed``: the helpers fire
at the same instant after the same number of scheduling hops.
"""

import gc

import pytest

from repro.sim import AllOf, AnyOf, Environment, all_of_event, any_of_event

CONDITIONS = (lambda env, evs: AnyOf(env, evs), lambda env, evs: AllOf(env, evs))
PLAIN = (any_of_event, all_of_event)


def replay(scenario, waits):
    env = Environment()
    log = []
    scenario(env, log, *waits)
    env.run()
    return log, env.now, env.events_processed


def watch(env, log, name, event):
    """Log when ``event`` is processed (a callback after the wait's own)."""
    event.callbacks.append(lambda _ev: log.append((name, env.now)))
    return event


def waiter(env, log, name, wait):
    try:
        yield wait
        log.append((name, "resumed", env.now))
    except ValueError as exc:
        log.append((name, "failed", str(exc), env.now))


def ties(env, log, any_of, all_of):
    # Constituents and bystanders that all fire at t=1, in one order.
    a = watch(env, log, "a", env.timeout(1.0))
    b = watch(env, log, "b", env.timeout(1.0))
    env.process(waiter(env, log, "any", any_of(env, [a, b])))
    env.process(waiter(env, log, "all", all_of(env, [b, a])))

    def bystander(env):
        yield env.timeout(1.0)
        log.append(("bystander", env.now))
        yield env.timeout(0.0)
        log.append(("bystander+0", env.now))

    env.process(bystander(env))


def already_processed(env, log, any_of, all_of):
    done = env.event()
    done.succeed()

    def later(env):
        yield env.timeout(0.5)  # `done` is processed by now
        pending = watch(env, log, "pending", env.timeout(1.0))
        yield env.process(waiter(env, log, "any", any_of(env, [pending, done])))
        yield env.process(waiter(env, log, "all", all_of(env, [done, pending])))
        yield env.process(waiter(env, log, "all-done", all_of(env, [done, done])))
        yield env.process(waiter(env, log, "empty-any", any_of(env, [])))
        yield env.process(waiter(env, log, "empty-all", all_of(env, [])))

    env.process(later(env))


def stale_timer(env, log, any_of, all_of):
    # The LAS quantum shape: the chosen entries go idle before the timer,
    # whose event still fires (and counts) after the wake.
    idle = [watch(env, log, f"idle{i}", env.event()) for i in range(3)]
    timer = watch(env, log, "timer", env.timeout(5.0))
    env.process(waiter(env, log, "quantum", any_of(env, [timer, all_of(env, idle)])))

    def go_idle(env):
        for i, ev in enumerate(idle):
            yield env.timeout(1.0 if i < 2 else 0.0)
            ev.succeed()

    env.process(go_idle(env))


def timer_wins(env, log, any_of, all_of):
    # The quantum ends on its timer; one entry never goes idle.
    idle = [watch(env, log, f"idle{i}", env.event()) for i in range(2)]
    timer = watch(env, log, "timer", env.timeout(2.0))
    env.process(waiter(env, log, "quantum", any_of(env, [timer, all_of(env, idle)])))

    def one_idle(env):
        yield env.timeout(1.0)
        idle[0].succeed()

    env.process(one_idle(env))


def failing(env, log, any_of, all_of):
    bad_any = env.event()
    bad_all = env.event()
    env.process(waiter(env, log, "any", any_of(env, [env.timeout(5.0), bad_any])))
    env.process(waiter(env, log, "all", all_of(env, [env.timeout(0.5), bad_all])))

    def fail(env):
        yield env.timeout(1.0)
        bad_any.fail(ValueError("any"))
        bad_all.fail(ValueError("all"))

    env.process(fail(env))


def failed_already(env, log, any_of, all_of):
    bad = env.event()
    bad.fail(ValueError("early"))
    bad.defused = True

    def later(env):
        yield env.timeout(1.0)
        yield env.process(waiter(env, log, "any", any_of(env, [env.timeout(1.0), bad])))
        yield env.process(waiter(env, log, "all", all_of(env, [bad, env.timeout(1.0)])))

    env.process(later(env))


@pytest.mark.parametrize(
    "scenario",
    [ties, already_processed, stale_timer, timer_wins, failing, failed_already],
)
def test_plain_waits_replay_conditions_exactly(scenario):
    expected = replay(scenario, CONDITIONS)
    assert expected[0], "scenario logged nothing"
    assert replay(scenario, PLAIN) == expected


def test_plain_waits_carry_the_value_that_completed_them():
    env = Environment()
    timers = [env.timeout(2.0, "slow"), env.timeout(1.0, "fast")]
    assert env.run(until=any_of_event(env, timers)) == "fast"
    assert env.run(until=all_of_event(env, timers)) == "slow"


def test_plain_waits_reject_foreign_events():
    env, other = Environment(), Environment()
    for helper in PLAIN:
        with pytest.raises(ValueError):
            helper(env, [env.event(), other.event()])


def test_unfired_plain_wait_is_freed_without_the_collector():
    # A wait whose constituents never fire (a withdrawn idle waiter) must
    # not be a reference cycle: dropping the constituent frees it.
    env = Environment()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            idle = [env.event(), env.event()]
            any_of_event(env, [env.event(), all_of_event(env, idle)])
            del idle
        assert gc.collect() == 0
    finally:
        gc.enable()
