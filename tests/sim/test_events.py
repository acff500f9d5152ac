"""Tests for event primitives."""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.events import AllOf, AnyOf


def test_event_lifecycle_flags():
    env = Environment()
    event = env.event()
    assert not event.triggered and not event.processed
    event.succeed("v")
    assert event.triggered and not event.processed
    env.run()
    assert event.processed
    assert event.value == "v"


def test_event_value_unavailable_before_trigger():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_double_succeed_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_propagates_into_process():
    env = Environment()
    event = env.event()
    caught = []

    def proc(env):
        try:
            yield event
        except ValueError as exc:
            caught.append(exc)

    env.process(proc(env))
    event.fail(ValueError("nope"))
    env.run()
    assert len(caught) == 1


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_all_of_waits_for_every_event():
    env = Environment()
    t1, t2 = env.timeout(5, value="a"), env.timeout(9, value="b")
    done = {}

    def proc(env):
        result = yield AllOf(env, [t1, t2])
        done["at"] = env.now
        done["values"] = [result[t1], result[t2]]

    env.process(proc(env))
    env.run()
    assert done["at"] == 9
    assert done["values"] == ["a", "b"]


def test_any_of_fires_on_first_event():
    env = Environment()
    t1, t2 = env.timeout(5, value="fast"), env.timeout(9, value="slow")
    done = {}

    def proc(env):
        result = yield AnyOf(env, [t1, t2])
        done["at"] = env.now
        done["has_fast"] = t1 in result

    env.process(proc(env))
    env.run()
    assert done["at"] == 5
    assert done["has_fast"]


def test_all_of_empty_list_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield AllOf(env, [])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0]


def test_condition_with_already_processed_event():
    env = Environment()
    timeout = env.timeout(1, value="x")
    env.run()
    done = {}

    def proc(env):
        result = yield AnyOf(env, [timeout])
        done["value"] = result[timeout]

    env.process(proc(env))
    env.run()
    assert done["value"] == "x"


def test_trigger_from_untriggered_source_rejected():
    env = Environment()
    source, target = env.event(), env.event()
    with pytest.raises(SimulationError, match="untriggered source"):
        target.trigger(source)


def test_trigger_copies_outcome_from_source():
    env = Environment()
    source, target = env.event(), env.event()
    source.succeed("payload")
    target.trigger(source)
    assert target.triggered
    env.run()
    assert target.value == "payload"


def test_condition_prunes_callbacks_once_triggered():
    env = Environment()
    fast, slow = env.timeout(5), env.timeout(9)
    done = []

    def proc(env):
        yield AnyOf(env, [fast, slow])
        done.append(env.now)

    env.process(proc(env))
    env.run(until=6)
    assert done == [5]
    # The condition fired on ``fast``; its check must no longer sit on
    # the pending member, so the loser carries no stale callbacks.
    assert slow.callbacks == []
    env.run()


def test_condition_on_processed_event_leaves_no_callbacks():
    env = Environment()
    first, second = env.event(), env.event()
    first.succeed()
    env.run()
    condition = AnyOf(env, [first, second])
    assert condition.triggered
    # Already decided at construction: the second member must never have
    # been subscribed to (or must have been pruned immediately).
    assert second.callbacks == []


def test_events_reject_adhoc_attributes():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    for obj in (env.event(), env.timeout(1),
                AnyOf(env, [env.event()]),
                env.process(proc(env))):
        with pytest.raises(AttributeError):
            obj.scratch = 1


def test_any_of_empty_list_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        result = yield AnyOf(env, [])
        done.append((env.now, len(result)))

    env.process(proc(env))
    env.run()
    assert done == [(0, 0)]


def test_any_of_with_processed_member_among_pending_ones():
    env = Environment()
    before, after = env.event(), env.event()
    processed = env.timeout(1, value="x")
    env.run()
    condition = AnyOf(env, [before, processed, after])
    assert condition.triggered
    assert before.callbacks == [] and after.callbacks == []
    env.run()
    assert condition.ok
    assert condition.value.todict() == {processed: "x"}


def test_any_of_value_holds_every_member_triggered_at_the_check():
    env = Environment()
    first, second, third = env.event(), env.event(), env.event()
    condition = AnyOf(env, [first, second, third])
    first.succeed(1)
    second.succeed(2)
    env.run()
    assert condition.value.todict() == {first: 1, second: 2}


def test_any_of_failing_member_is_defused_and_propagated():
    env = Environment()
    failing, other = env.event(), env.event()
    caught = []

    def proc(env):
        try:
            yield AnyOf(env, [failing, other])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(proc(env))
    failing.fail(ValueError("boom"))
    env.run()
    assert caught == [(0, "boom")]
    assert failing.defused
    assert other.callbacks == []


def test_any_of_already_defused_failure_counts_as_a_win():
    env = Environment()
    failing = env.event()
    error = ValueError("handled")
    failing.fail(error)
    failing.defuse()
    condition = AnyOf(env, [failing, env.event()])
    env.run()
    assert condition.ok
    assert condition.value.todict() == {failing: error}


def test_any_of_prunes_only_its_own_check_from_losers():
    env = Environment()
    winner, loser = env.event(), env.event()
    seen = []
    loser.callbacks.append(seen.append)
    first = AnyOf(env, [winner, loser])
    second = AnyOf(env, [loser, winner])
    winner.succeed()
    env.run()
    assert first.triggered and second.triggered
    # Both conditions detached from the loser; its own callback stays.
    assert loser.callbacks == [seen.append]
    loser.succeed("late")
    env.run()
    assert seen == [loser]
