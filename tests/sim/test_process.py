"""Tests for processes and interrupts."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return 99

    process = env.process(proc(env))
    env.run()
    assert process.value == 99
    assert not process.is_alive


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def proc(env):
        yield 42

    process = env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()
    assert not process.is_alive


def test_interrupt_delivers_cause():
    env = Environment()
    seen = {}

    def victim(env):
        try:
            yield env.timeout(1_000)
        except Interrupt as interrupt:
            seen["cause"] = interrupt.cause
            seen["at"] = env.now

    def attacker(env, target):
        yield env.timeout(10)
        target.interrupt("reason")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert seen == {"cause": "reason", "at": 10}


def test_interrupted_process_can_keep_waiting():
    env = Environment()
    log = []

    def victim(env):
        deadline = env.timeout(100)
        try:
            yield deadline
        except Interrupt:
            log.append(("interrupted", env.now))
            yield deadline  # resume waiting on the same event
        log.append(("done", env.now))

    def attacker(env, target):
        yield env.timeout(40)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert log == [("interrupted", 40), ("done", 100)]


def test_second_same_instant_interrupt_to_a_finished_process_is_dropped():
    """Two interrupts issued at one instant; the victim returns after
    catching the first.  The second finds it finished and is dropped:
    it must not be thrown into the finished generator, and the process
    event must be scheduled once."""
    env = Environment()
    caught = []

    def victim(env):
        try:
            yield env.timeout(10)
        except Interrupt as interrupt:
            caught.append((interrupt.cause, env.now))
        return "done"

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt("a")
        target.interrupt("b")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert caught == [("a", 1)]
    assert target.value == "done"
    assert env.profile()["heap_pending"] == 0


def test_two_interrupts_to_a_live_process_arrive_in_order():
    env = Environment()
    caught = []

    def victim(env):
        while len(caught) < 2:
            try:
                yield env.timeout(10)
            except Interrupt as interrupt:
                caught.append((interrupt.cause, env.now))
        return "done"

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt("a")
        target.interrupt("b")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run()
    assert caught == [("a", 1), ("b", 1)]
    assert target.value == "done"


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    def late(env, target):
        yield env.timeout(10)
        with pytest.raises(SimulationError):
            target.interrupt()

    target = env.process(quick(env))
    env.process(late(env, target))
    env.run()


def test_process_cannot_interrupt_itself():
    env = Environment()

    def selfish(env):
        me = env.active_process
        with pytest.raises(SimulationError):
            me.interrupt()
        yield env.timeout(1)

    env.process(selfish(env))
    env.run()


def test_process_waits_on_another_process():
    env = Environment()
    order = []

    def inner(env):
        yield env.timeout(5)
        order.append("inner")
        return "result"

    def outer(env):
        value = yield env.process(inner(env))
        order.append(("outer", value))

    env.process(outer(env))
    env.run()
    assert order == ["inner", ("outer", "result")]


def test_exception_in_process_propagates_to_waiter():
    env = Environment()
    caught = []

    def failing(env):
        yield env.timeout(1)
        raise KeyError("inner-failure")

    def waiter(env):
        try:
            yield env.process(failing(env))
        except KeyError as exc:
            caught.append(exc)

    env.process(waiter(env))
    env.run()
    assert len(caught) == 1
