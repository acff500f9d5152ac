"""Tests for the tracer's ring capture."""

from repro.obs.tracer import Tracer


def test_record_and_filter():
    tracer = Tracer(enabled=True)
    tracer.record(10, 0, "enqueue", thread="a")
    tracer.record(20, 1, "enqueue", thread="b")
    tracer.record(30, 0, "dequeue", thread="a")
    assert len(tracer) == 3
    assert len(tracer.filter(kind="enqueue")) == 2
    assert len(tracer.filter(cpu_id=0)) == 2
    assert len(tracer.filter(kind="enqueue", cpu_id=0)) == 1


def test_cap_drops_excess():
    tracer = Tracer(cap=2, enabled=True)
    for ts in range(2):
        tracer.record(ts, 0, "x")
    records = list(tracer)
    for ts in range(2, 5):
        tracer.record(ts, 0, "x")
    assert len(tracer) == 2
    assert tracer.dropped == 3
    # A full ring recycles the evicted records instead of allocating.
    assert {id(event) for event in tracer} == {id(r) for r in records}


def test_ring_mode_keeps_newest():
    tracer = Tracer(cap=2, enabled=True)
    for ts in range(5):
        tracer.record(ts, 0, "x")
    assert len(tracer) == 2
    assert tracer.dropped == 3
    assert [event.ts_ns for event in tracer] == [3, 4]


def test_summary_reports_drops_and_mode():
    tracer = Tracer(cap=2, enabled=True)
    for ts in range(3):
        tracer.record(ts, 0, "x")
    assert tracer.summary() == {"events": 2, "dropped": 1, "cap": 2,
                                  "mode": "ring"}


def test_event_str():
    tracer = Tracer(enabled=True)
    tracer.record(10, 0, "kind", detail_a=1)
    assert "kind" in str(tracer.events[0])
