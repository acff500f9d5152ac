"""Tests for timeline capture."""

from repro.metrics import Timeline


def test_record_and_filter():
    timeline = Timeline()
    timeline.record(10, 0, "enqueue", thread="a")
    timeline.record(20, 1, "enqueue", thread="b")
    timeline.record(30, 0, "dequeue", thread="a")
    assert len(timeline) == 3
    assert len(timeline.filter(kind="enqueue")) == 2
    assert len(timeline.filter(cpu_id=0)) == 2
    assert len(timeline.filter(kind="enqueue", cpu_id=0)) == 1


def test_cap_drops_excess():
    timeline = Timeline(cap=2)
    records = [timeline.record(ts, 0, "x") for ts in range(2)]
    for ts in range(2, 5):
        timeline.record(ts, 0, "x")
    assert len(timeline) == 2
    assert timeline.dropped == 3
    # A full ring recycles the evicted records instead of allocating.
    assert {id(event) for event in timeline} == {id(r) for r in records}


def test_ring_mode_keeps_newest():
    timeline = Timeline(cap=2)
    for ts in range(5):
        timeline.record(ts, 0, "x")
    assert len(timeline) == 2
    assert timeline.dropped == 3
    assert [event.ts_ns for event in timeline] == [3, 4]


def test_summary_reports_drops_and_mode():
    timeline = Timeline(cap=2)
    for ts in range(3):
        timeline.record(ts, 0, "x")
    assert timeline.summary() == {"events": 2, "dropped": 1, "cap": 2,
                                  "mode": "ring"}


def test_event_str():
    timeline = Timeline()
    timeline.record(10, 0, "kind", detail_a=1)
    assert "kind" in str(timeline.events[0])
