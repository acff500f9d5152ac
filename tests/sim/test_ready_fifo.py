"""The ready FIFO pops events in exactly the order one heap would.

:class:`~repro.sim.Environment` keeps the events that are ready at the
current instant at normal priority in a FIFO beside its heap.  The
property test runs one drawn program on it and on
:class:`HeapOnlyEnvironment`, a reference kept here that pushes every
event on one binary heap, and compares all that a program can observe:
which events are processed, in which order and at which times, what the
processes receive, ``peek()`` and ``profile()``'s ``heap_peak`` and
``heap_pending`` — read inside every callback and after every ``run``.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, Interrupt, Timeout
from repro.sim.errors import StopSimulation
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT


class _HeapPush:
    """Stands in for the ready FIFO: an append is a push on the heap."""

    __slots__ = ("heap",)

    def __init__(self, heap):
        self.heap = heap

    def append(self, entry):
        heappush(self.heap, entry)


def _stop(event):
    raise StopSimulation(None)


class HeapOnlyEnvironment(Environment):
    """Reference engine: every pending event on one binary heap.

    It counts the pending events before each pop, where, with one heap,
    the count is the heap's length.  ``run`` takes a time or nothing.
    """

    def __init__(self):
        super().__init__()
        self._ready = _HeapPush(self._queue)

    def schedule(self, event, priority=PRIORITY_NORMAL, delay=0):
        heappush(self._queue,
                 (self.now + int(delay), priority, next(self._eid), event))

    def peek(self):
        return self._queue[0][0] if self._queue else None

    def run(self, until=None):
        if until is not None:
            Timeout(self, until - self.now).callbacks.append(_stop)
        queue = self._queue
        processed = 0
        try:
            while queue:
                self._heap_peak = max(self._heap_peak, len(queue))
                self.now, _, _, event = heappop(queue)
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
        except StopSimulation:
            pass
        finally:
            self._events_processed += processed

    def profile(self):
        pending = len(self._queue)
        return {"events_processed": self._events_processed,
                "heap_peak": max(self._heap_peak, pending),
                "heap_pending": pending}


class _Driver:
    """Interprets a drawn program against one environment.

    Each program entry is ``(action, fanout)``.  :meth:`step` performs
    the next entry; the callback of the event it makes logs what it sees
    and performs the next ``fanout`` entries, at that instant.
    """

    def __init__(self, env, program):
        self.env = env
        self.program = iter(program)
        self.labels = iter(range(len(program)))
        self.log = []
        self.processes = []
        self.interrupting = set()

    def observe(self, label, value):
        env = self.env
        profile = env.profile()
        self.log.append((env.now, label, value, env.peek(),
                         profile["heap_peak"], profile["heap_pending"]))

    def snapshot(self):
        env = self.env
        profile = env.profile()
        return (env.now, env.peek(), profile["events_processed"],
                profile["heap_peak"], profile["heap_pending"])

    def step(self):
        entry = next(self.program, None)
        if entry is None:
            return
        (kind, *args), fanout = entry
        label = next(self.labels)
        env = self.env
        if kind == "timeout":
            event = Timeout(env, args[0], value=label)
        elif kind == "schedule":
            event = Event(env)
            event._ok = True
            event._value = label
            env.schedule(event, priority=args[1], delay=args[0])
        elif kind == "succeed":
            event = Event(env).succeed(label)
        elif kind == "fail":
            event = Event(env).fail(ValueError(label))
            event.defuse()
        elif kind == "process":
            event = env.process(self._body(label, args[0]))
            self.processes.append(event)
        else:
            # Interrupt a process that waits on a timeout and has no
            # interrupt in flight: it cannot finish before this one lands.
            waiting = [process for process in self.processes
                       if process.target is not None
                       and process not in self.interrupting]
            if waiting:
                victim = waiting[args[0] % len(waiting)]
                self.interrupting.add(victim)
                victim.interrupt(label)
            self.observe(label, ("interrupt", len(waiting)))
            return
        event.callbacks.append(
            lambda event: self._fired(event, label, fanout))

    def _fired(self, event, label, fanout):
        self.observe(label, event._value if event._ok else repr(event._value))
        for _ in range(fanout):
            self.step()

    def _body(self, label, delays):
        process = self.processes[-1]
        for delay in delays:
            try:
                value = yield Timeout(self.env, delay, value=delay)
                self.observe(label, ("resumed", value))
            except Interrupt as interrupt:
                self.interrupting.discard(process)
                self.observe(label, ("interrupted", interrupt.cause))
        return label


def _drive(env_cls, roots, program, stops):
    env = env_cls()
    driver = _Driver(env, program)
    for _ in range(roots):
        driver.step()
    snapshots = [driver.snapshot()]
    for stop in stops:
        env.run(until=env.now + stop)
        snapshots.append(driver.snapshot())
    env.run()
    snapshots.append(driver.snapshot())
    return driver.log, snapshots


# Small delays, zero the likeliest, so many events share an instant.
DELAYS = st.one_of(st.just(0), st.integers(min_value=0, max_value=4))
ACTIONS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("schedule"), DELAYS,
              st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL])),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("fail")),
    st.tuples(st.just("process"), st.lists(DELAYS, max_size=4)),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=7)),
)


@given(
    roots=st.integers(min_value=1, max_value=5),
    program=st.lists(st.tuples(ACTIONS, st.integers(min_value=0,
                                                    max_value=3)),
                     min_size=1, max_size=60),
    stops=st.lists(st.integers(min_value=0, max_value=6), max_size=3),
)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
def test_ready_fifo_pops_in_heap_order(roots, program, stops):
    fifo = _drive(Environment, roots, program, stops)
    heap = _drive(HeapOnlyEnvironment, roots, program, stops)
    assert fifo == heap
