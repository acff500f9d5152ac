"""One pairer under every interval reader: they must agree on one stream."""

from types import SimpleNamespace

from repro.metrics import occupancy_spans
from repro.metrics.timeline import TimelineEvent
from repro.obs import (
    analyze_events, build_span_trees, chrome_trace, check_events,
)
from repro.obs.intervals import Pairer
from repro.obs.spans import SpanTracker
from repro.obs.tracer import Tracer


def ev(ts, cpu, kind, **detail):
    return TimelineEvent(ts, cpu, kind, detail)


#: The intervals the stream below holds, as (what, key, begin_ns, end_ns).
STINT = ("stint", 0, 0, 5_000)
SLICE = ("slice", 0, 1_000, 4_000)        # 1_200 ns of it is exit cost
UNROUTED = ("flight", (1, "resched"), 2_000, 1_602_000)   # delayed
ROUTED = ("flight", (2, "call"), 3_000, 3_500)
FAULT = ("fault", "f1", 50, 3_000_000)
ALERT = ("alert", ("n0", "slo"), 2_500, 2_000_000)
ROOT = ("span", "r#0", 1_000, 6_000)
CHILD = ("span", "r#1", 1_500, 3_000)

STREAM = [
    ev(0, 0, "sched_in", thread="dp-net0", rq=0),
    ev(50, "-", "fault.injected", fault="f1", fault_kind="ipi_delay",
       until_ns=3_000_000),
    # A drop traced before its own send: that send never delivers.
    ev(100, 1, "fault.ipi_drop", dst=1, vector="resched"),
    ev(100, 0, "ipi_send", dst=1, vector="resched", routed=False),
    ev(1_000, 0, "vmenter", vcpu="v0", slice_ns=30_000),
    ev(1_000, 0, "span.begin", span="r#0", request="r", name="root",
       channel="dp"),
    ev(1_500, 0, "span.begin", span="r#1", request="r", name="child",
       parent="r#0"),
    ev(2_000, 0, "ipi_send", dst=1, vector="resched", routed=False),
    ev(2_000, 1, "fault.ipi_delay", dst=1, vector="resched",
       extra_ns=700_000),
    ev(2_500, "-", "alert.raised", alert="slo", node="n0"),
    ev(3_000, 0, "ipi_send", dst=2, vector="call", routed=True),
    ev(3_000, 0, "span.end", span="r#1", request="r", name="child"),
    ev(3_500, 2, "ipi_deliver", vector="call"),
    ev(4_000, 0, "vmexit", vcpu="v0", reason="slice_expired",
       enter_cost_ns=800, exit_cost_ns=1_200, premature=False),
    ev(5_000, 0, "sched_out", thread="dp-net0", outcome="blocked"),
    ev(6_000, 0, "span.end", span="r#0", request="r", name="root",
       duration_ns=5_000, parts=[["wait", 1_000, 4_000],
                                 ["serve", 4_000, 6_000]]),
    ev(1_602_000, 1, "ipi_deliver", vector="resched"),
    ev(2_000_000, "-", "alert.cleared", alert="slo", node="n0"),
    ev(3_000_000, "-", "fault.cleared", fault="f1", fault_kind="ipi_delay"),
]


def test_the_pairer_closes_every_interval_of_the_stream():
    pairer = Pairer()
    closed = []
    for event in STREAM:
        interval = pairer.feed(event)
        if interval is not None and interval.end is event:
            closed.append((interval.what, interval.key,
                           interval.begin.ts_ns, event.ts_ns))
    assert sorted(closed, key=str) == sorted(
        [STINT, SLICE, UNROUTED, ROUTED, FAULT, ALERT, ROOT, CHILD], key=str)
    assert pairer.finish() == []


def test_every_reader_reports_the_same_intervals():
    report = analyze_events(STREAM)
    assert report["cpu_occupancy"][0]["busy_ns"] == STINT[3] - STINT[2]
    assert report["vcpu_occupancy"]["v0"] == {
        "slices": 1, "backed_ns": SLICE[3] - SLICE[2],
        "backed_pct": round(100.0 * 3_000 / 3_000_000, 3)}
    assert report["slice_duration_ns"]["max"] == SLICE[3] - SLICE[2]
    assert report["switch_cost_ns"]["max"] == 2_000
    ipi = report["ipi_latency_ns"]
    assert (ipi["count"], ipi["min"], ipi["max"]) == (
        2, ROUTED[3] - ROUTED[2], UNROUTED[3] - UNROUTED[2])
    assert (ipi["unmatched_sends"], ipi["unmatched_delivers"]) == (0, 0)
    assert report["faults"]["injected"] == report["faults"]["cleared"] == 1
    assert report["faults"]["ipi_drops_injected"] == 1
    assert report["alerts"]["raised"] == report["alerts"]["cleared"] == 1

    # The catalog agrees: the delay's grace covers the late delivery, the
    # credited send is not overdue, every window closes in order.
    assert check_events(STREAM) == []

    # The span tracker attributes the slice (with its exit-cost tail) and
    # the unrouted flight, and skips the routed one.
    tracker = SpanTracker(SimpleNamespace(now=0, tracer=Tracer()))
    for event in STREAM:
        tracker.observe(event)
    assert tracker.attribute(0, STINT[2], STINT[3], "idle") == [
        ["idle", 0, 1_000], ["vcpu_occupied", 1_000, 2_800],
        ["vmexit_switch", 2_800, 4_000], ["idle", 4_000, 5_000]]
    assert tracker.attribute(1, 0, UNROUTED[3], "idle") == [
        ["idle", 0, UNROUTED[2]], ["ipi_deliver", UNROUTED[2], UNROUTED[3]]]
    assert tracker.attribute(2, ROUTED[2], ROUTED[3], "idle") == [
        ["idle", ROUTED[2], ROUTED[3]]]

    tracer = Tracer(enabled=True)
    tracer.events.extend(STREAM)
    slices = {(event["cat"], event["name"]): (event["ts"], event["dur"])
              for event in chrome_trace(tracer)["traceEvents"]
              if event["ph"] == "X"}
    assert slices == {("kernel", "dp-net0"): (0.0, 5.0),
                      ("virt", "vcpu v0"): (1.0, 3.0)}

    assert occupancy_spans(STREAM) == {
        0: [(SLICE[2], SLICE[3], "v"), (STINT[2], STINT[3], "d")]}

    (tree,) = build_span_trees(STREAM).values()
    assert tree["complete"] and tree["duration_ns"] == 5_000
    assert [(span["span"], span["begin_ns"], span["end_ns"])
            for span in tree["spans"]] == [
        (ROOT[1], ROOT[2], ROOT[3]), (CHILD[1], CHILD[2], CHILD[3])]


def test_pairing_anomalies():
    pairer = Pairer()
    first = pairer.feed(ev(0, 0, "vmenter", vcpu="v0"))
    second = pairer.feed(ev(10, 0, "vmenter", vcpu="v1"))
    assert second.stale is first
    closed = pairer.feed(ev(20, 0, "vmexit", vcpu="v0"))
    assert closed is second and closed.mismatch == "vcpu"
    orphan = pairer.feed(ev(30, 0, "vmexit", vcpu="v0"))
    assert orphan.begin is None and orphan.mismatch is None
    still = pairer.feed(ev(40, 0, "sched_in", thread="t0"))
    sent = pairer.feed(ev(50, 0, "ipi_send", dst=1, vector="resched"))
    pairer.feed(ev(60, 1, "fault.ipi_delay", vector="resched", extra_ns=5))
    assert pairer.finish() == [still, sent] and sent.grace == 5
