"""Tests for FIFO stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Store
from repro.sim.store import StorePut


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


class _DispatchStore(Store):
    """The reference: every put queues and runs ``_dispatch``, as
    ``Store.put`` does whenever its fast path does not apply."""

    __slots__ = ()

    def put(self, item):
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event


def _replay(store_cls, capacity, ops):
    """Drive one store through ``ops``; log every succeed (in processing
    order, so in ``succeed`` order per instant), bell value and state."""
    env = Environment()
    store = store_cls(env, capacity=capacity)
    sleeper = Sleeper(store)
    log = []

    def watch(tag, event):
        event.callbacks.append(
            lambda event: log.append((tag, env.now, event.value)))

    for n, (op, arg) in enumerate(ops):
        if op == "put":
            watch(("put", n), store.put(n))
        elif op == "get":
            watch(("get", n), store.get())
        elif op == "try_get":
            log.append(("try_get", store.try_get()))
        elif op == "batch":
            log.append(("batch", store.get_batch(arg)))
        elif op == "bell":
            sleeper._bell = env.event()
            watch(("bell", n), sleeper._bell)
        else:
            env.run(until=env.now + arg)
        log.append(("state", list(store.items), len(store._putters),
                    len(store._getters)))
    env.run()
    return log


_STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.none()),
    st.tuples(st.just("get"), st.none()),
    st.tuples(st.just("try_get"), st.none()),
    st.tuples(st.just("batch"), st.integers(1, 3)),
    st.tuples(st.just("bell"), st.none()),
    st.tuples(st.just("run"), st.integers(0, 2)),
), max_size=30)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(capacity=st.sampled_from([None, 1, 2, 3]), ops=_STORE_OPS)
def test_put_fast_path_matches_dispatch(capacity, ops):
    assert _replay(Store, capacity, ops) == \
        _replay(_DispatchStore, capacity, ops)


def test_put_fast_path_with_waiters_and_a_full_store():
    # Queued putters on a full store, then queued getters on an empty
    # one, with the consumer's bell armed throughout.
    ops = ([("bell", None)] + [("put", None)] * 4 + [("run", 1)]
           + [("batch", 3), ("run", 0), ("bell", None)]
           + [("get", None)] * 3 + [("put", None)] * 4 + [("run", 1)])
    log = _replay(Store, 2, ops)
    assert log == _replay(_DispatchStore, 2, ops)
    # Each put succeeds before the bell it rings; a bell rings once, with
    # the depth at its ring; the last put waits on the full store.
    assert [entry for entry in log if entry[0] != "state"] == [
        (("put", 1), 0, None), (("bell", 0), 0, 1), (("put", 2), 0, None),
        ("batch", [1, 2]), (("put", 3), 1, None), (("put", 4), 1, None),
        (("get", 9), 1, 3), (("bell", 8), 1, 1), (("get", 10), 1, 4),
        (("put", 12), 1, None), (("get", 11), 1, 12),
        (("put", 13), 1, None), (("put", 14), 1, None)]
