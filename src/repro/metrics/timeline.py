"""Scheduling-trace event records.

:class:`TimelineEvent` is one record of the observability spine's single
event sink, :class:`~repro.obs.tracer.Tracer`.
"""


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
