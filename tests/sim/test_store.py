"""Tests for FIFO stores."""

import pytest

from repro.sim import Environment, Store


def test_put_then_get_immediate():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        item = yield store.get()
        received.append(item)

    store.put("x")
    env.process(consumer(env))
    env.run()
    assert received == ["x"]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        item = yield store.get()
        received.append((item, env.now))

    def producer(env):
        yield env.timeout(50)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert received == [("late", 50)]


def test_fifo_ordering_of_items_and_getters():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env, tag):
        item = yield store.get()
        received.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    for item in ("a", "b"):
        store.put(item)
    env.run()
    assert received == [("first", "a"), ("second", "b")]


def test_capacity_blocks_putters():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("one")
        log.append(("put-one", env.now))
        yield store.put("two")
        log.append(("put-two", env.now))

    def consumer(env):
        yield env.timeout(30)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("put-one", 0), ("got", "one", 30), ("put-two", 30)]


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put("item")
    env.run()
    assert store.try_get() == "item"
    assert store.try_get() is None


def test_get_batch_respects_limit_and_order():
    env = Environment()
    store = Store(env)
    for index in range(5):
        store.put(index)
    env.run()
    assert store.get_batch(3) == [0, 1, 2]
    assert store.get_batch(10) == [3, 4]
    assert store.get_batch(1) == []


class Sleeper:
    """A poll-mode consumer: arms ``_bell`` to sleep until a store fills."""

    def __init__(self, store):
        self._bell = None
        store.consumer = self


def test_doorbell_rings_without_consuming():
    env = Environment()
    store = Store(env)
    sleeper = Sleeper(store)
    seen = []

    def waiter(env):
        sleeper._bell = env.event()
        count = yield sleeper._bell
        seen.append((count, len(store)))

    env.process(waiter(env))

    def producer(env):
        yield env.timeout(5)
        yield store.put("thing")

    env.process(producer(env))
    env.run()
    assert seen == [(1, 1)]  # item still in the store


def test_disarmed_doorbell_never_rings():
    env = Environment()
    store = Store(env)
    sleeper = Sleeper(store)
    bell = sleeper._bell = env.event()
    sleeper._bell = None  # disarm
    store.put("x")
    env.run()
    # The disarmed bell never rings even though the store filled.
    assert not bell.triggered


def test_disarm_after_ringing_is_a_noop():
    env = Environment()
    store = Store(env)
    sleeper = Sleeper(store)
    bell = sleeper._bell = env.event()
    store.put("x")
    store.put("y")  # an already-rung bell is not rung twice
    env.run()
    assert bell.triggered and bell.value == 1
    sleeper._bell = None  # disarm after the ring
    store.put("z")
    env.run()
    assert bell.value == 1
