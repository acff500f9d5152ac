"""One pairer for every begin/end event pair of a trace stream.

The scheduling profile (:mod:`repro.obs.analysis`), the invariant
checkers, the span tracker, the Chrome exporter and the ASCII gantt all
read intervals, not events: each feeds its stream through a
:class:`Pairer` and takes the :class:`Interval` objects it opens and
closes, so they pair by the same rules ("Pairing rules" in
``docs/observability.md``).
"""

from collections import deque

#: Begin and end kinds of every paired window, by interval kind.
_BEGINS = {"sched_in": "stint", "vmenter": "slice",
           "fault.injected": "fault", "alert.raised": "alert",
           "span.begin": "span"}
_ENDS = {"sched_out": "stint", "vmexit": "slice",
         "fault.cleared": "fault", "alert.cleared": "alert",
         "span.end": "span"}
#: The begin kind of each paired window, by interval kind.
OPENERS = {what: kind for kind, what in _BEGINS.items()}
_FLIGHT_KINDS = frozenset(("ipi_send", "ipi_deliver", "fault.ipi_delay",
                           "fault.ipi_drop", "ipi.dropped"))

#: The detail field an end must repeat from its begin.
_IDENTITY = {"stint": "thread", "slice": "vcpu", "span": "name"}


def _key(what, event):
    if what == "stint" or what == "slice":
        return event.cpu_id
    if what == "alert":
        return (event.detail.get("node"), event.detail.get("alert"))
    return event.detail.get(what)      # the fault or span id


class Interval:
    """One window of ``what`` (``stint``, ``slice``, ``flight``,
    ``fault``, ``alert`` or ``span``) under ``key`` (its CPU, its
    ``(dst, vector)``, or its id).

    ``end`` is None while it is open.  An end that found nothing open
    is an interval with no ``begin``; a begin that found one open
    displaced it, and carries it as ``stale``.  A flight carries the
    injected delay traced on its key so far as ``grace``.
    """

    __slots__ = ("what", "key", "begin", "end", "stale", "grace")

    def __init__(self, what, key, begin, end=None, stale=None):
        self.what = what
        self.key = key
        self.begin = begin
        self.end = end
        self.stale = stale
        self.grace = 0

    @property
    def mismatch(self):
        """The identity field (thread, vCPU, span name) the end names
        differently from the begin, else None."""
        field = _IDENTITY.get(self.what)
        if (field is None or self.begin is None or self.end is None
                or self.begin.detail.get(field)
                == self.end.detail.get(field)):
            return None
        return field

    @property
    def routed(self):
        """For a flight: whether the unified orchestrator took the send."""
        return bool(self.begin.detail.get("routed"))

    def __repr__(self):
        return f"<Interval {self.what} {self.key!r} {self.begin} .. {self.end}>"


class Pairer:
    """Streaming pairer: :meth:`feed` each event in stream order, then
    call :meth:`finish` for what is still open."""

    def __init__(self):
        self.open = {}         # (what, key) -> open Interval, oldest first
        self._flights = {}     # (dst, vector) -> deque of open flights
        self._credit = {}      # (dst, vector) -> drops traced before a send
        self._grace = {}       # (dst, vector) -> injected delay so far, ns

    def feed(self, event):
        """The interval ``event`` opened or closed, or None."""
        kind = event.kind
        what = _BEGINS.get(kind)
        if what is not None:
            key = _key(what, event)
            slot = (what, key)
            interval = Interval(what, key, event, stale=self.open.get(slot))
            self.open[slot] = interval
            return interval
        what = _ENDS.get(kind)
        if what is not None:
            key = _key(what, event)
            interval = self.open.pop((what, key), None)
            if interval is None:
                return Interval(what, key, None, event)
            interval.end = event
            return interval
        if kind in _FLIGHT_KINDS:
            return self._flight(kind, event)
        return None

    def _flight(self, kind, event):
        detail = event.detail
        if kind == "ipi_send":
            key = (detail.get("dst"), detail.get("vector"))
            if self._credit.get(key, 0) > 0:
                self._credit[key] -= 1
                return None
            interval = Interval("flight", key, event)
            self._flights.setdefault(key, deque()).append(interval)
            return interval
        key = (event.cpu_id, detail.get("vector"))
        if kind == "fault.ipi_delay":
            self._grace[key] = (self._grace.get(key, 0)
                                + int(detail.get("extra_ns", 0)))
            return None
        queue = self._flights.get(key)
        if kind == "ipi_deliver":
            if queue:
                interval = queue.popleft()
                interval.end = event
            else:
                interval = Interval("flight", key, None, event)
            interval.grace = self._grace.get(key, 0)
            return interval
        # A drop: the oldest flight never lands, else the next send won't.
        if queue:
            queue.popleft()
        else:
            self._credit[key] = self._credit.get(key, 0) + 1
        return None

    def finish(self):
        """The intervals still open: windows oldest first, then flights
        FIFO per key."""
        still_open = list(self.open.values())
        for key, queue in self._flights.items():
            for flight in queue:
                flight.grace = self._grace.get(key, 0)
                still_open.append(flight)
        return still_open
