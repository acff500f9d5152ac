"""Timeline capture for scheduling traces.

The :class:`Timeline` is the storage layer of the observability spine
(:mod:`repro.obs` wraps it with an enable gate and exporters).  It is a
ring: it keeps the most recent ``cap`` events and drops the *oldest*
(the usual flight-recorder behaviour for long soaks).
:attr:`Timeline.dropped` says how many events were lost, and
renderers/exporters are expected to surface it rather than silently
presenting a truncated trace.

The record evicted by a full ring is *recycled in place* for the
incoming event rather than freed — a traced soak allocates ``cap``
records total instead of one per event.  Consumers must treat a
record as immutable only while it stays in the ring: hooks (inline
invariant checkers) consume events synchronously, and exporters read the
live buffer, so neither observes recycling; holding a reference across
``cap`` further records does not.
"""

from collections import deque


class TimelineEvent:
    """One scheduling event: what happened on which CPU at what time."""

    __slots__ = ("ts_ns", "cpu_id", "kind", "detail")

    def __init__(self, ts_ns, cpu_id, kind, detail=None):
        self.ts_ns = ts_ns
        self.cpu_id = cpu_id
        self.kind = kind
        self.detail = {} if detail is None else detail

    def __eq__(self, other):
        if isinstance(other, TimelineEvent):
            return (self.ts_ns == other.ts_ns
                    and self.cpu_id == other.cpu_id
                    and self.kind == other.kind
                    and self.detail == other.detail)
        return NotImplemented

    def __str__(self):
        extras = " ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        return f"[{self.ts_ns:>12} ns] cpu={self.cpu_id} {self.kind} {extras}".rstrip()

    def __repr__(self):
        return (f"TimelineEvent(ts_ns={self.ts_ns!r}, cpu_id={self.cpu_id!r}, "
                f"kind={self.kind!r}, detail={self.detail!r})")


class _EveryKind:
    """The ``reads`` of a sink that keeps events of every kind."""

    __slots__ = ()

    def __contains__(self, kind):
        return True

    def __repr__(self):
        return "EVERY_KIND"


EVERY_KIND = _EveryKind()


class Timeline:
    """A bounded log of :class:`TimelineEvent` records."""

    # Plain timelines are always-on and keep every kind; Tracer overrides
    # both with gates so instrumentation sites can use a uniform
    # ``kind in tracer.reads`` check.
    enabled = True
    reads = EVERY_KIND

    def __init__(self, cap=100_000):
        self.cap = cap
        self.events = deque(maxlen=cap)
        self.dropped = 0

    def record(self, ts_ns, cpu_id, kind, **detail):
        """Record one event and return it.

        Returning the event lets subscribers (inline invariant checkers)
        observe it before a full ring recycles its record.
        """
        events = self.events
        if len(events) >= self.cap:
            self.dropped += 1
            # Recycle the evicted record: a full flight recorder stops
            # allocating entirely.
            event = events.popleft()
            event.ts_ns = ts_ns
            event.cpu_id = cpu_id
            event.kind = kind
            event.detail = detail
        else:
            event = TimelineEvent(ts_ns, cpu_id, kind, detail)
        events.append(event)
        return event

    def filter(self, kind=None, cpu_id=None):
        out = list(self.events)
        if kind is not None:
            out = [event for event in out if event.kind == kind]
        if cpu_id is not None:
            out = [event for event in out if event.cpu_id == cpu_id]
        return out

    def summary(self):
        """Bookkeeping summary for exports and reports."""
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "cap": self.cap,
            "mode": "ring",
        }

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
