"""The simulation environment: clock, event heap, ready FIFO, and run loop."""

from collections import deque
from heapq import heappop, heappush
from itertools import count
from time import perf_counter

from repro.obs.registry import MetricsRegistry
from repro.obs.session import current as _current_obs_session
from repro.obs.spans import SpanTracker
from repro.obs.tracer import Tracer
from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, PRIORITY_NORMAL, Timeout
from repro.sim.process import Process


class Environment:
    """Owns the simulated clock and executes events in timestamp order.

    The clock, ``now``, is an integer count of nanoseconds since
    simulation start.  It is a plain attribute, so reading it costs no
    call (the packet path reads it several times per packet), and only
    :meth:`run` writes it: nothing else may assign it.

    Every pending event is a ``(time, priority, eid, event)`` tuple, where
    ``eid`` is a monotonically increasing insertion counter: events
    scheduled for the same instant are ordered by priority, then by
    insertion order, making runs fully deterministic.  The tuples live in
    two places.  An event ready *now* at normal priority (a ``succeed``,
    a ``fail``, a zero-delay timeout or ``schedule``) is appended to the
    ready FIFO, ``_ready``; everything else (later times, and urgent
    events such as process starts and interrupts) goes on the binary
    heap, ``_queue``.  The FIFO needs no sifting: while it holds an entry
    the clock cannot advance, so its entries all carry the current time
    and are already in ``eid`` order.  :meth:`run` pops the heap top only
    when that tuple sorts before the FIFO head (a same-instant urgent
    event, or an earlier ``eid``), so events pop in exactly the order one
    heap of all of them would give.

    Every environment carries the observability spine: ``self.tracer`` (a
    :class:`~repro.obs.tracer.Tracer`, disabled unless an observability
    session is tracing) and ``self.metrics`` (a
    :class:`~repro.obs.registry.MetricsRegistry`, shared with the active
    session if any).  The engine also profiles itself — events processed,
    events elided by the idle fast-forward, the peak number of pending
    events (heap plus FIFO, ``heap_peak``), wall time spent in
    :meth:`run` — exposed through :meth:`profile` and registered
    as the ``sim.engine`` metrics source.
    """

    def __init__(self, initial_time=0):
        self.now = int(initial_time)
        self._queue = []
        self._ready = deque()
        self._eid = count()
        self._active_process = None

        # Engine self-profiling.
        self._events_processed = 0
        self._events_skipped = 0
        self._fast_forward_windows = 0
        self._heap_peak = 0
        self._wall_s = 0.0

        session = _current_obs_session()
        if session is not None:
            self.tracer = session.adopt_environment(self)
            self.metrics = session.metrics
        else:
            self.tracer = Tracer(enabled=False)
            self.metrics = MetricsRegistry()
        self.metrics.add_source("sim.engine", self.profile)
        # Causal request tracing rides alongside the flat tracer: always
        # constructed (instrumentation gates on ``spans.enabled``),
        # enabled when the active session asks for spans.
        self.spans = SpanTracker(self)
        if session is not None and session.spans:
            self.spans.enable()

    @property
    def active_process(self):
        """The process currently being resumed, if any."""
        return self._active_process

    def schedule(self, event, priority=PRIORITY_NORMAL, delay=0):
        """Queue ``event`` to be processed after ``delay`` nanoseconds."""
        delay = int(delay)
        if delay == 0 and priority == PRIORITY_NORMAL:
            self._ready.append((self.now, priority, next(self._eid), event))
        else:
            heappush(self._queue, (self.now + delay, priority,
                                   next(self._eid), event))

    def peek(self):
        """Time of the next scheduled event, or ``None`` if none is pending."""
        heads = [pending[0] for pending in (self._queue, self._ready)
                 if pending]
        return min(heads)[0] if heads else None

    def run(self, until=None):
        """Run until ``until`` (a time or an event), or until no events remain.

        If ``until`` is an event, its value is returned when it triggers.
        If it is a number, the clock is advanced exactly to it.
        """
        stop = None
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    return until.value
                stop = until
                stop.callbacks.append(_stop_callback)
            else:
                at = int(until)
                if at < self.now:
                    raise ValueError(f"until={at} is in the past (now={self.now})")
                stop = Timeout(self, at - self.now)
                stop.callbacks.append(_stop_callback)

        # The event loop is inlined, with local bindings — on soak
        # workloads an extra frame per event was ~15% of total wall time.
        # The pending peak is taken once per pop: between pops the number
        # of pending events only grows, so the count just before a pop is
        # the largest since the previous one.
        queue = self._queue
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        peak = self._heap_peak
        processed = 0
        wall_start = perf_counter()
        try:
            while True:
                if ready:
                    pending = len(queue) + len(ready)
                    if queue and queue[0] < ready[0]:
                        when, _, _, event = pop(queue)
                    else:
                        when, _, _, event = popleft()
                elif queue:
                    pending = len(queue)
                    when, _, _, event = pop(queue)
                else:
                    break
                if pending > peak:
                    self._heap_peak = peak = pending
                self.now = when
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    # An unhandled failure crashes the simulation loudly
                    # rather than being silently dropped.
                    raise event._value
        except StopSimulation as exc:
            return exc.value
        finally:
            self._events_processed += processed
            self._wall_s += perf_counter() - wall_start

        if stop is not None and isinstance(until, Event) and not until.triggered:
            raise SimulationError("run() finished with the until-event untriggered")
        return None

    # -- Observability hooks --------------------------------------------------

    def add_trace_hook(self, hook):
        """Subscribe ``hook(event)`` to every trace event of this env.

        This is the inline-checker attachment point: a streaming invariant
        engine hooked here verifies causality *during* the run instead of
        post-hoc over a capture, and sees events even when the tracer's
        ring buffer drops them.  Enables the tracer.
        """
        return self.tracer.add_hook(hook)

    # -- Engine self-profiling ------------------------------------------------

    def note_fast_forward(self, skipped):
        """Record one analytic idle wait that covered ``skipped`` empty
        polls.

        A DP poll loop with nothing to do waits on one timeout (or on the
        next arrival) instead of one event per empty ``rx_burst``; this
        counts the polls that wait stood for."""
        if skipped > 0:
            self._events_skipped += skipped
            self._fast_forward_windows += 1

    def profile(self):
        """DES self-profiling gauges (the ``sim.engine`` metrics source)."""
        sim_s = self.now / 1e9
        wall = self._wall_s
        processed = self._events_processed
        skipped = self._events_skipped
        pending = len(self._queue) + len(self._ready)
        return {
            "events_processed": processed,
            "events_skipped": skipped,
            "fast_forward_windows": self._fast_forward_windows,
            "skipped_ratio": round(skipped / (processed + skipped), 4)
            if processed + skipped else 0.0,
            "heap_peak": max(self._heap_peak, pending),
            "heap_pending": pending,
            "sim_time_ns": self.now,
            "wall_time_s": round(wall, 6),
            "events_per_wall_s": round(processed / wall, 1) if wall > 0 else 0.0,
            "wall_s_per_sim_s": round(wall / sim_s, 6) if sim_s > 0 else 0.0,
        }

    # -- Convenience factories ------------------------------------------------

    def event(self):
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` firing after ``delay`` nanoseconds."""
        return Timeout(self, delay, value)

    def process(self, generator, name=None):
        """Spawn a :class:`Process` around ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Condition event triggering once every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events):
        """Condition event triggering once any event in ``events`` has."""
        return AnyOf(self, events)

    def __repr__(self):
        pending = len(self._queue) + len(self._ready)
        return f"<Environment now={self.now} pending={pending}>"


def _stop_callback(event):
    if event._ok:
        raise StopSimulation(event._value)
    # A failed until-event: surface the underlying exception.
    raise event._value
