"""Tests for the simulation environment and run loop."""

import pytest

from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=500)
    assert env.now == 500


def test_run_until_time_advances_clock_exactly():
    env = Environment()
    env.timeout(10_000)
    env.run(until=3_000)
    assert env.now == 3_000


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_run_drains_all_events_without_until():
    env = Environment()
    fired = []
    for delay in (5, 1, 3):
        env.timeout(delay).callbacks.append(lambda e, d=delay: fired.append(d))
    env.run()
    assert fired == [1, 3, 5]
    assert env.now == 5


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(7)
        return "payload"

    result = env.run(until=env.process(proc(env)))
    assert result == "payload"
    assert env.now == 7


def test_run_until_already_processed_event():
    env = Environment()
    timeout = env.timeout(1)
    env.run()
    assert env.run(until=timeout) is timeout.value


def test_events_at_same_time_preserve_insertion_order():
    env = Environment()
    order = []
    for tag in "abc":
        env.timeout(10).callbacks.append(lambda e, t=tag: order.append(t))
    env.run()
    assert order == ["a", "b", "c"]


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(42)
    assert env.peek() == 42


def test_peek_empty_queue_returns_none():
    assert Environment().peek() is None


def test_unhandled_process_failure_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_profile_reports_engine_configuration_and_skips():
    env = Environment()
    env.timeout(5)
    env.run()
    env.note_fast_forward(30)
    env.note_fast_forward(0)  # empty windows are not counted
    profile = env.profile()
    assert profile["events_skipped"] == 30
    assert profile["fast_forward_windows"] == 1
    processed = profile["events_processed"]
    assert profile["skipped_ratio"] == pytest.approx(
        30 / (processed + 30), abs=1e-4)
