"""Causal-invariant checkers for trace streams.

The simulator's causal story — every IPI delivered, every ``vmenter``
paired with a ``vmexit``, no thread on two CPUs at once — is encoded here
as small pluggable checkers.  Each checker reads one event at a time,
together with the interval the stream's
:class:`~repro.obs.intervals.Pairer` opened or closed on it, so the same
objects run **inline** during a simulation
(``observe(check_invariants=True)``) or **post-hoc** over a capture
(:func:`~repro.obs.analysis.check_events`, or ``taichi-experiments
analyze``); :class:`~repro.obs.analysis.InvariantEngine` drives them.

Violations fail loudly: each carries the checker name, a precise message,
the offending event, and the events that led up to it.

Caveat for post-hoc runs: a ring-buffer capture that dropped its oldest
events may have lost the *begin* half of slice pairs, so pairing checkers
can report artifacts on truncated streams.  The analyzer surfaces the
drop count next to any violations; inline checking never has this
problem because hooks see events before the capacity policy drops them.
"""

from dataclasses import dataclass

from repro.obs.intervals import OPENERS


@dataclass
class Violation:
    """One invariant breach with enough context to debug it."""

    checker: str
    message: str
    event: object = None       # the offending TimelineEvent, if any
    context: tuple = ()        # recent events preceding the offender

    def to_dict(self):
        return {
            "checker": self.checker,
            "message": self.message,
            "event": str(self.event) if self.event is not None else None,
            "context": [str(event) for event in self.context],
        }

    def __str__(self):
        lines = [f"[{self.checker}] {self.message}"]
        for event in self.context:
            lines.append(f"    ... {event}")
        if self.event is not None:
            lines.append(f"    >>> {self.event}")
        return "\n".join(lines)


class InvariantChecker:
    """Base class: the engine calls :meth:`observe` with each event, the
    interval the pairer opened or closed on it (or None) and the pairer,
    then :meth:`finish` once.  Both return an iterable of
    :class:`Violation`.  Checkers are cheap, single-pass, and keep
    O(open-state) memory so they can run inline on multi-million-event
    streams.
    """

    name = "invariant"

    def observe(self, event, interval, pairer):
        return ()

    def finish(self, last_ts_ns, still_open):
        """Called once after the stream ends; ``last_ts_ns`` is the final
        timestamp seen (0 for an empty stream) and ``still_open`` the
        intervals the pairer still holds open."""
        return ()


class PairingChecker(InvariantChecker):
    """Violations for the pairer's anomalies on the interval kinds in
    ``whats``: a begin that displaced an open one (worded by the
    ``doubled`` template), an end with nothing open (``orphan``), and an
    end naming another thread, vCPU or span name than its begin.  The
    templates format ``kind`` (the event's), ``key``, ``interval`` and
    ``opener`` (the begin kind of the interval's kind).
    Subclasses add rules on openings (:meth:`opened`) and closes
    (:meth:`closed`).
    """

    whats = ()
    doubled = orphan = ""

    def observe(self, event, interval, pairer):
        if interval is None or interval.what not in self.whats:
            return ()
        if interval.begin is None:
            return self._flag(self.orphan, event, interval)
        if interval.end is None:
            if interval.stale is not None:
                return self._flag(self.doubled, event, interval,
                                  interval.stale.begin)
            return self.opened(event, interval, pairer)
        field, begin = interval.mismatch, interval.begin
        if field is None:
            return self.closed(event, interval)
        return [Violation(
            self.name,
            f"{event.kind} on cpu {event.cpu_id!r} closes "
            f"{field}={event.detail.get(field)!r} but the open "
            f"{begin.kind} was {field}={begin.detail.get(field)!r}",
            event,
            context=(begin,),
        ), *self.closed(event, interval)]

    def _flag(self, template, event, interval, *context):
        message = template.format(kind=event.kind, key=interval.key,
                                  interval=interval,
                                  opener=OPENERS[interval.what])
        return [Violation(self.name, message, event, context)]

    def opened(self, event, interval, pairer):
        return ()

    def closed(self, event, interval):
        return ()


class MonotonicTimestamps(InvariantChecker):
    """Events must be recorded in non-decreasing timestamp order."""

    name = "monotonic_timestamps"

    def __init__(self):
        self._last_ts = None

    def observe(self, event, interval, pairer):
        out = []
        if self._last_ts is not None and event.ts_ns < self._last_ts:
            out.append(Violation(
                self.name,
                f"timestamp went backwards: {event.ts_ns} ns after "
                f"{self._last_ts} ns",
                event,
            ))
        self._last_ts = max(event.ts_ns, self._last_ts or event.ts_ns)
        return out


class IpiDeliveryBound(InvariantChecker):
    """Every ``ipi_send`` must produce a matching ``ipi_deliver`` in time.

    A flight delivered later than ``bound_ns`` after its send — or still
    in flight ``bound_ns`` before stream end — is a violation.  Injected
    delivery delays (the flight's ``grace``) extend the bound, each
    nanosecond of grace once.  Deliveries without a send are legal
    (``IPIController.deliver`` is also the device-IRQ path and bypasses
    the send hook).
    """

    name = "ipi_delivery_bound"

    def __init__(self, bound_ns=1_000_000):
        self.bound_ns = int(bound_ns)
        self._used = {}        # (dst, vector) -> grace spent so far, ns

    def observe(self, event, interval, pairer):
        if (interval is None or interval.what != "flight"
                or interval.end is not event or interval.begin is None):
            return ()
        send = interval.begin
        key = interval.key
        dt = event.ts_ns - send.ts_ns
        if dt > self.bound_ns:
            grace = interval.grace - self._used.get(key, 0)
            if grace > 0:
                used = min(grace, dt - self.bound_ns)
                self._used[key] = self._used.get(key, 0) + used
                dt -= used
        if dt > self.bound_ns:
            return [Violation(
                self.name,
                f"IPI {key[1]!r} to cpu {key[0]!r} delivered {dt} ns after "
                f"send (bound {self.bound_ns} ns)",
                event,
                context=(send,),
            )]
        return ()

    def finish(self, last_ts_ns, still_open):
        out = []
        flights = [interval for interval in still_open
                   if interval.what == "flight"]
        for flight in sorted(flights, key=lambda flight: str(flight.key)):
            (dst, vector), send = flight.key, flight.begin
            grace = flight.grace - self._used.get(flight.key, 0)
            overdue = last_ts_ns - send.ts_ns
            if overdue > self.bound_ns + grace:
                out.append(Violation(
                    self.name,
                    f"IPI {vector!r} to cpu {dst!r} sent at "
                    f"{send.ts_ns} ns was never delivered "
                    f"({overdue} ns elapsed, bound {self.bound_ns} ns)",
                    send,
                ))
        return out


class SlicePairNesting(PairingChecker):
    """``sched_in/out`` and ``vmenter/vmexit`` must pair up per CPU.

    A begin while the same kind is already open on that CPU, an end with
    no open begin, or an end naming a different thread/vCPU than its
    begin are all violations.  Slices still open at stream end are legal
    (the run simply stopped mid-slice).
    """

    name = "slice_pair_nesting"
    whats = ("stint", "slice")
    doubled = ("nested {kind} on cpu {key!r}: previous {kind} at "
               "{interval.stale.begin.ts_ns} ns never closed")
    orphan = "unpaired {kind} on cpu {key!r}: no open {opener}"


class SingleCpuPerThread(InvariantChecker):
    """A thread may be running (``sched_in`` .. ``sched_out``) on at most
    one CPU at a time."""

    name = "single_cpu_per_thread"

    def __init__(self):
        self._running = {}     # thread -> sched_in event

    def observe(self, event, interval, pairer):
        if interval is None or interval.what != "stint":
            return ()
        thread = event.detail.get("thread")
        active = self._running.get(thread)
        if interval.end is None:
            self._running[thread] = event
            if active is not None and active.cpu_id != event.cpu_id:
                return [Violation(
                    self.name,
                    f"thread {thread!r} sched_in on cpu {event.cpu_id!r} "
                    f"while still running on cpu {active.cpu_id!r}",
                    event,
                    context=(active,),
                )]
        elif active is not None and active.cpu_id == event.cpu_id:
            del self._running[thread]
        return ()


class IdleYieldThreshold(InvariantChecker):
    """``dp_idle_yield`` only after the empty-poll threshold was crossed.

    A service yields after waiting ``threshold * poll_ns`` with no
    traffic, so the yield must come at least that long after the CPU's
    previous slice end (``vmexit``) or previous yield.  A yield inside
    that budget means the threshold crossing was fabricated.
    """

    name = "idle_yield_threshold"

    def __init__(self, poll_ns=200):
        self.poll_ns = int(poll_ns)
        self._floor = {}       # cpu -> last vmexit/dp_idle_yield event

    def observe(self, event, interval, pairer):
        if event.kind == "vmexit":
            self._floor[event.cpu_id] = event
            return ()
        if event.kind != "dp_idle_yield":
            return ()
        floor = self._floor.get(event.cpu_id)
        self._floor[event.cpu_id] = event
        threshold = event.detail.get("threshold")
        if floor is None or not isinstance(threshold, int):
            return ()
        budget_ns = max(threshold, 1) * self.poll_ns
        gap = event.ts_ns - floor.ts_ns
        if gap < budget_ns:
            return [Violation(
                self.name,
                f"dp_idle_yield on cpu {event.cpu_id!r} only {gap} ns "
                f"after {floor.kind} — threshold {threshold} needs "
                f"{budget_ns} ns of empty polling",
                event,
                context=(floor,),
            )]
        return ()


class RunQueueDepthConsistency(InvariantChecker):
    """``rq_depth`` samples must be plausible run-queue depths.

    Depths are non-negative integers, and the sample emitted right after
    an ``enqueue`` on the same CPU at the same instant must report at
    least the thread just queued.
    """

    name = "runqueue_depth"

    def __init__(self):
        self._prev = None      # immediately preceding event in the stream

    def observe(self, event, interval, pairer):
        prev, self._prev = self._prev, event
        if event.kind != "rq_depth":
            return ()
        depth = event.detail.get("depth")
        if not isinstance(depth, int) or depth < 0:
            return [Violation(
                self.name,
                f"rq_depth on cpu {event.cpu_id!r} reports invalid depth "
                f"{depth!r}",
                event,
            )]
        if (prev is not None and prev.kind == "enqueue"
                and prev.cpu_id == event.cpu_id
                and prev.ts_ns == event.ts_ns and depth < 1):
            return [Violation(
                self.name,
                f"rq_depth 0 on cpu {event.cpu_id!r} immediately after an "
                f"enqueue at the same instant",
                event,
                context=(prev,),
            )]
        return ()


class FaultRecoveryChecker(PairingChecker):
    """Every injected fault must be cleared, and clears must have causes.

    The fault injector brackets each fault occurrence with
    ``fault.injected`` / ``fault.cleared`` events sharing a ``fault`` id.
    A clear with no matching injection is a corrupt stream; an injection
    never cleared by stream end means the injector (or the simulation it
    wedged) lost the revert path.
    """

    name = "fault_recovery"
    whats = ("fault",)
    doubled = "fault {key!r} injected twice without an intervening clear"
    orphan = "fault {key!r} cleared but never injected"

    def finish(self, last_ts_ns, still_open):
        out = []
        faults = [interval for interval in still_open
                  if interval.what == "fault"]
        for fault in sorted(faults, key=lambda fault: fault.key):
            until_ns = fault.begin.detail.get("until_ns")
            if isinstance(until_ns, int) and last_ts_ns < until_ns:
                continue  # the capture simply ended inside the window
            out.append(Violation(
                self.name,
                f"fault {fault.key!r} injected at {fault.begin.ts_ns} ns "
                f"was never cleared",
                fault.begin,
            ))
        return out


class AlertPairingChecker(PairingChecker):
    """``alert.raised`` / ``alert.cleared`` must pair per alert name.

    The SLO monitor's hysteresis state machine guarantees one active
    firing per rule: a second raise without an intervening clear means
    the monitor's bookkeeping broke, and a clear with no open raise is a
    corrupt stream.  Alerts still active at stream end are legal (the
    run ended mid-incident).
    """

    name = "alert_pairing"
    whats = ("alert",)
    doubled = "alert {key[1]!r} raised twice without an intervening clear"
    orphan = "alert {key[1]!r} cleared but never raised"


class SpanPairingChecker(PairingChecker):
    """``span.begin`` / ``span.end`` must pair, and children must nest.

    Each span id may begin once and end once, under the ``name`` it began
    with; a child's begin must fall inside an open parent carrying the
    same request id; a parent must not end while any of its children are
    still open; and a root's ``parts`` must sum to its ``duration_ns``.
    Spans still open at stream end are legal (the run ended mid-request —
    startups past the drain horizon, packets still queued).
    """

    name = "span_pairing"
    whats = ("span",)
    doubled = "span {key!r} begun twice without an end"
    orphan = "span {key!r} ended but never begun"

    def __init__(self):
        self._open_children = {}  # parent span id -> open child count

    def opened(self, event, interval, pairer):
        parent = event.detail.get("parent")
        if parent is None:
            return ()
        parent_open = pairer.open.get(("span", parent))
        if parent_open is None:
            return [Violation(
                self.name,
                f"span {interval.key!r} begun under parent {parent!r} "
                f"which is not open",
                event,
            )]
        request = event.detail.get("request")
        parent_request = parent_open.begin.detail.get("request")
        if parent_request != request:
            return [Violation(
                self.name,
                f"span {interval.key!r} (request {request!r}) nests under "
                f"parent {parent!r} of request {parent_request!r}",
                event,
                context=(parent_open.begin,),
            )]
        self._open_children[parent] = self._open_children.get(parent, 0) + 1
        return ()

    def closed(self, event, interval):
        span_id, begin = interval.key, interval.begin
        parent = begin.detail.get("parent")
        out = []
        if parent is not None and self._open_children.get(parent):
            self._open_children[parent] -= 1
        if self._open_children.pop(span_id, 0):
            out.append(Violation(
                self.name,
                f"span {span_id!r} ended while a child span is still open",
                event,
                context=(begin,),
            ))
        parts = event.detail.get("parts")
        duration = event.detail.get("duration_ns")
        if parent is None and parts is not None and duration is not None:
            total = sum(part[2] - part[1] for part in parts)
            if total != duration:
                out.append(Violation(
                    self.name,
                    f"span {span_id!r} parts sum to {total} ns but its "
                    f"duration_ns is {duration} ns",
                    event,
                    context=(begin,),
                ))
        return out


class TenantFairShareChecker(InvariantChecker):
    """A tenant is never chosen over a cheaper backlogged tenant.

    The weighted-fair vCPU pick (``tenant.pick`` events) must select the
    eligible tenant with the lowest weight-normalized granted time.  Each
    event carries the chosen tenant's normalized usage plus every
    backlogged (eligible-but-not-chosen) tenant's — picking a tenant whose
    usage exceeds a backlogged one's by more than ``slack_ns`` means a
    tenant ran ahead of its weighted share while another waited.  Silent
    on single-tenant streams.
    """

    name = "tenant_fair_share"

    def __init__(self, slack_ns=1_000):
        self.slack_ns = int(slack_ns)

    def observe(self, event, interval, pairer):
        if event.kind != "tenant.pick":
            return ()
        chosen = event.detail.get("tenant")
        usage_ns = event.detail.get("usage_ns", 0)
        out = []
        for other, other_usage in (event.detail.get("backlogged")
                                   or {}).items():
            if usage_ns > other_usage + self.slack_ns:
                out.append(Violation(
                    self.name,
                    f"tenant {chosen!r} (normalized usage {usage_ns} ns) "
                    f"was backed while backlogged tenant {other!r} had "
                    f"only {other_usage} ns — exceeds its weighted share",
                    event,
                ))
        return out


class TenantGrantConservation(InvariantChecker):
    """Grant ledgers conserve: every donated slice lands in exactly one
    tenant's ledger and the board total.

    ``tenant.grant`` events carry the slice, the tenant's running total
    and the board's running total; re-accumulating them must reproduce
    both.  A mismatch means accounting lost or double-counted a slice.
    Silent on single-tenant streams.
    """

    name = "tenant_grant_conservation"

    def __init__(self):
        self._per_tenant = {}
        self._total = 0

    def observe(self, event, interval, pairer):
        if event.kind != "tenant.grant":
            return ()
        tenant = event.detail.get("tenant")
        slice_ns = event.detail.get("ns", 0)
        expected_tenant = self._per_tenant.get(tenant, 0) + slice_ns
        expected_total = self._total + slice_ns
        self._per_tenant[tenant] = expected_tenant
        self._total = expected_total
        out = []
        if event.detail.get("tenant_total_ns") != expected_tenant:
            out.append(Violation(
                self.name,
                f"tenant {tenant!r} ledger reads "
                f"{event.detail.get('tenant_total_ns')} ns but its grants "
                f"sum to {expected_tenant} ns",
                event,
            ))
        if event.detail.get("total_ns") < expected_total:
            # The board total also counts slices of untagged vCPUs, so it
            # may run ahead of the tenant ledgers — never behind them.
            out.append(Violation(
                self.name,
                f"board grant total {event.detail.get('total_ns')} ns is "
                f"behind the sum of tenant grants ({expected_total} ns) — "
                f"a slice was double-attributed",
                event,
            ))
        return out


DEFAULT_CHECKERS = (
    MonotonicTimestamps,
    IpiDeliveryBound,
    SlicePairNesting,
    SingleCpuPerThread,
    IdleYieldThreshold,
    RunQueueDepthConsistency,
    FaultRecoveryChecker,
    AlertPairingChecker,
    SpanPairingChecker,
    TenantFairShareChecker,
    TenantGrantConservation,
)


def default_checkers():
    """Fresh instances of the full checker catalog."""
    return [checker() for checker in DEFAULT_CHECKERS]
