"""The central tracer: a gated, ring-buffered structured event sink.

Every :class:`~repro.sim.environment.Environment` owns exactly one
:class:`Tracer` (``env.tracer``); all subsystems — kernel executors,
IPI controller, softirq subsystem, the vCPU scheduler, the workload
probes, DP services — emit their events through it.  The tracer starts
*disabled*.  Every instrumentation site guards emission with a
precomputed per-kind gate, ``if "sched_in" in tracer.reads:``, so an
untraced run pays one attribute load and one set lookup per potential
event and allocates nothing.

Delivering events and keeping them are separate: hooks (inline invariant
checkers, the span tracker) see every event of an enabled tracer, but
only a tracer someone asked to trace (``observe(trace=True)`` or an
explicit :meth:`Tracer.enable`) *retains* them in its ring.  A tracer
enabled by :meth:`Tracer.add_hook` alone builds each event for its hooks
and stores nothing; when every hook declared the kinds it reads, it
builds only events of those kinds.  ``reads`` is that answer, kept
current by :meth:`~Tracer.enable`, :meth:`~Tracer.disable`,
:meth:`~Tracer.add_hook` and :meth:`~Tracer.remove_hook`: empty while
disabled, every kind while retaining or while some hook declared no
kinds, else the union of the hooks' kinds.  A site whose kind is not in
it builds no keyword arguments and makes no call.

Event taxonomy (``docs/observability.md`` has the full reference):

===================  =======================================================
kind                 meaning
===================  =======================================================
``sched_in/out``     a thread started/stopped running on a CPU (slice pair)
``vmenter/vmexit``   a vCPU slice on a physical CPU (slice pair)
``enqueue``          a thread became runnable on a CPU's run queue
``rq_depth``         run-queue depth sample (counter track)
``softirq_raise``    a softirq vector was marked pending on a CPU
``softirq_run``      a softirq handler executed
``ipi_send``         an IPI left the send path (``routed`` = hook took it)
``ipi_deliver``      an IPI arrived at its destination CPU
``ipi_route``        the unified orchestrator's routing decision
``hwprobe_irq``      the hardware workload probe fired a preempt IRQ
``dp_idle_yield``    a DP service crossed its empty-poll threshold
``slice_adapt``      the adaptive time slice changed for a vCPU
``threshold_adapt``  a service's empty-poll threshold changed
``lock_safe_migrate``a descheduled lock-holder vCPU was re-dispatched
``cpu_online``       a CPU came online (hotplug/boot)
``thread_exit``      a thread exited
``span.begin``       a causal request span opened (``repro.obs.spans``)
``span.end``         a span closed (roots carry ``duration_ns`` + ``parts``)
===================  =======================================================
"""

from collections import deque

from repro.metrics.timeline import TimelineEvent

_NO_KIND = frozenset()


class _EveryKind:
    """The ``reads`` of a tracer that builds events of every kind."""

    __slots__ = ()

    def __contains__(self, kind):
        return True

    def __repr__(self):
        return "EVERY_KIND"


EVERY_KIND = _EveryKind()


class Tracer:
    """A bounded ring of :class:`~repro.metrics.timeline.TimelineEvent`
    records behind an enable gate.

    ``enabled`` gates emission; ``retain`` says whether emitted events
    are stored; ``reads`` holds the kinds that would be built (see the
    module docstring).  Change them through the methods, never by
    assignment, so ``reads`` stays current.  A retaining tracer keeps
    the newest ``cap`` events and counts the older ones it drops in
    ``dropped``, so long runs behave like a flight recorder rather than
    capturing only the boot transient; renderers and exporters surface
    ``dropped`` rather than present a truncated trace as whole.

    The record a full ring evicts is *recycled in place* for the
    incoming event rather than freed, so a traced soak allocates ``cap``
    records in all instead of one per event.  A record is immutable only
    while it stays in the ring: hooks consume events synchronously and
    exporters read the live buffer, so neither sees recycling; holding a
    reference across ``cap`` further records does.
    """

    def __init__(self, cap=1_000_000, enabled=False):
        self.cap = cap
        self.events = deque(maxlen=cap)
        self.dropped = 0
        self.enabled = enabled
        # Only an explicit trace request stores events; hooks alone don't.
        self.retain = enabled
        # ``hook(event)`` callables invoked for every recorded event —
        # including ones a full ring later evicts — so inline consumers
        # (streaming invariant checkers) see the unabridged stream.
        self.hooks = []
        self._hook_kinds = []  # per hook, the kinds it reads (None = all)
        # The kinds any hook reads, or None when some hook reads them all.
        self._kinds = None
        self._update_reads()

    def enable(self):
        self.enabled = True
        self.retain = True
        self._update_reads()
        return self

    def disable(self):
        self.enabled = False
        self._update_reads()
        return self

    def add_hook(self, hook, kinds=None):
        """Subscribe ``hook(event)`` to every recorded event; enables the
        tracer (a hooked tracer that stays gated would observe nothing)
        without making it retain: hooks see events nobody stores.

        A hook that reads only some event ``kinds`` says so, and promises
        to ignore the rest: while no hook reads every kind and nothing is
        retained, events of no hook's kind are never built.
        """
        self.hooks.append(hook)
        self._hook_kinds.append(None if kinds is None else frozenset(kinds))
        self.enabled = True
        self._update_kinds()
        return hook

    def remove_hook(self, hook):
        if hook in self.hooks:
            index = self.hooks.index(hook)
            del self.hooks[index]
            del self._hook_kinds[index]
            self._update_kinds()

    def _update_kinds(self):
        declared = self._hook_kinds
        self._kinds = (None if None in declared
                       else frozenset().union(*declared))
        self._update_reads()

    def _update_reads(self):
        if not self.enabled:
            self.reads = _NO_KIND
        elif self.retain or self._kinds is None:
            self.reads = EVERY_KIND
        else:
            self.reads = self._kinds

    def record(self, ts_ns, cpu_id, kind, **detail):
        if not self.enabled:
            return
        if self.retain:
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
        else:
            kinds = self._kinds
            if kinds is not None and kind not in kinds:
                return
            event = TimelineEvent(ts_ns, cpu_id, kind, detail)
        for hook in self.hooks:
            hook(event)

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

    def __repr__(self):
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} events={len(self.events)} dropped={self.dropped}>"
