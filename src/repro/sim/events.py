"""Event primitives for the simulation engine.

An :class:`Event` is a one-shot occurrence: it starts *pending*, is
*triggered* exactly once (with a value or an exception), and after the
environment pops it from its queue (the ready FIFO, or the heap for a
later time) it becomes *processed* and its callbacks run.  Processes
(see :mod:`repro.sim.process`) advance by yielding events.

All event classes use ``__slots__``: soaks create tens of millions of
short-lived events and the per-instance ``__dict__`` was the single
largest allocation on the hot path.
"""

from heapq import heappush

from repro.sim.errors import SimulationError

# Sentinel for "not yet triggered".
_PENDING = object()

# Scheduling priorities: lower sorts earlier among simultaneous events.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot simulation event.

    Attributes:
        env: owning :class:`~repro.sim.environment.Environment`.
        callbacks: list of callables invoked with the event once processed,
            or ``None`` after processing (appending then is an error).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False

    @property
    def triggered(self):
        """True once the event has a value/exception scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded; only meaningful once triggered."""
        return self._ok

    @property
    def value(self):
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Environment.schedule(self) inlined: every put, wake and
        # completion succeeds an event, and one ready now goes on the
        # environment's ready FIFO, not the heap.
        env = self.env
        env._ready.append((env.now, PRIORITY_NORMAL, next(env._eid), self))
        return self

    def fail(self, exception):
        """Trigger the event with an exception.

        The exception propagates into every process waiting on this event
        unless :meth:`defused` was set.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event):
        """Trigger this event with the state of another event.

        Used as a callback to chain events together.  ``event`` must
        itself be triggered already.
        """
        if event._ok is None:
            raise SimulationError(
                f"cannot trigger {self!r} from untriggered source {event!r}")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self):
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    @property
    def defused(self):
        return self._defused

    def __repr__(self):
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("_delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ and Environment.schedule inlined: timeouts are
        # the most frequently created event.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self._delay = delay = int(delay)
        if delay:
            heappush(env._queue, (env.now + delay, PRIORITY_NORMAL,
                                  next(env._eid), self))
        else:
            env._ready.append((env.now, PRIORITY_NORMAL, next(env._eid),
                               self))

    @property
    def delay(self):
        return self._delay

    def __repr__(self):
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of events to values for triggered conditions."""

    __slots__ = ("events",)

    def __init__(self, events):
        self.events = events

    def __getitem__(self, event):
        if event not in self.events:
            raise KeyError(repr(event))
        return event._value

    def __contains__(self, event):
        return event in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    def todict(self):
        return {event: event._value for event in self.events}

    def __eq__(self, other):
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        return NotImplemented

    def __repr__(self):
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """An event that triggers when ``evaluate(events, n_done)`` is true.

    Build with :class:`AllOf` / :class:`AnyOf` rather than directly.

    Once the condition triggers, its ``_check`` callback is pruned from
    every still-pending member event.  A long-lived member raced by many
    successive ``AnyOf`` waits would otherwise accumulate one dead
    callback per wait for the life of the soak.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env, evaluate, events):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")

        if self._evaluate(self._events, self._count) and not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
            if self.triggered:
                # Already decided: later members never had _check attached
                # (or just triggered us) — drop it from the earlier ones.
                self._prune(self._check)
                break

    def _done_events(self):
        return [event for event in self._events if event.triggered]

    def _check(self, event):
        if self.triggered:
            return
        self._count += 1
        if not event._ok and not event.defused:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue(self._done_events()))
        if self.triggered:
            self._prune(self._check)

    def _prune(self, check):
        """Detach ``check`` (a binding of ``_check``) from members that
        will never need it again."""
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)

    @staticmethod
    def all_events(events, count):
        return len(events) == count


class AllOf(Condition):
    """Triggers when all given events have triggered."""

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers when any of the given events has triggered.

    Construction and ``_check`` are written out for the one-winner case
    (every idle DP wait races an ``AnyOf``): no ``evaluate`` callback, no
    member count and no property reads.  They build the same
    :class:`ConditionValue`, apply the same fail/defuse rule, prune the
    same callbacks and make the same ``succeed``/``fail`` call as
    :class:`Condition` did with an any-of rule.  ``_check`` is bound once,
    so pruning finds it in a member's callbacks by identity; the binding
    is dropped once the condition is decided.
    """

    __slots__ = ("_checker",)

    def __init__(self, env, events):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._events = events = list(events)

        for event in events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")

        if not events:
            self._checker = None
            self.succeed(ConditionValue([]))
            return

        self._checker = check = self._check
        for event in events:
            if event.callbacks is None:
                # Already processed: it wins now, and ``_check`` prunes the
                # earlier members; later ones never get ``_check``.
                check(event)
                break
            event.callbacks.append(check)

    def _check(self, event):
        if self._value is not _PENDING:
            return
        if not event._ok and not event._defused:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(ConditionValue(
                [member for member in self._events
                 if member._value is not _PENDING]))
        check, self._checker = self._checker, None
        self._prune(check)
