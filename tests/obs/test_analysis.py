"""Trace analysis: profiles from synthetic streams and JSONL round-trips."""

import json

import pytest

from repro.metrics.timeline import TimelineEvent
from repro.obs import (
    Tracer,
    analyze_events,
    analyze_streams,
    format_analysis,
    load_jsonl,
    write_analysis_json,
    write_jsonl,
)


def ev(ts, cpu, kind, **detail):
    return TimelineEvent(ts, cpu, kind, detail)


def synthetic_stream():
    return [
        ev(0, 0, "enqueue", thread="t0"),
        ev(0, 0, "rq_depth", depth=1),
        ev(1_000, 0, "sched_in", thread="t0", rq=1),
        ev(1_000, 0, "vmenter", vcpu="v0", slice_ns=30_000),
        ev(31_000, 0, "vmexit", vcpu="v0", reason="slice_expired",
           enter_cost_ns=800, exit_cost_ns=1200, premature=False),
        ev(31_000, 0, "ipi_send", dst=1, vector="resched", routed=False),
        ev(31_500, 1, "ipi_deliver", vector="resched"),
        ev(32_000, 0, "vmenter", vcpu="v0", slice_ns=30_000),
        ev(35_000, 0, "vmexit", vcpu="v0", reason="hw_probe_irq",
           enter_cost_ns=800, exit_cost_ns=1200, premature=True),
        ev(36_000, 0, "sched_out", thread="t0", outcome="preempt",
           ran_ns=35_000),
        ev(40_000, 0, "dp_idle_yield", service="dp0", threshold=10),
    ]


def test_analyze_events_profiles_the_stream():
    report = analyze_events(synthetic_stream())
    assert report["events"] == 11
    assert report["span_ns"] == 40_000

    wake = report["wakeup_to_sched_in_ns"]
    assert wake["count"] == 1
    assert wake["p99"] == pytest.approx(1_000)
    assert report["wakeup_to_sched_in_by_thread"]["t0"]["max"] == 1_000

    assert report["cpu_occupancy"][0]["busy_ns"] == 35_000
    assert report["vcpu_occupancy"]["v0"]["slices"] == 2
    assert report["vcpu_occupancy"]["v0"]["backed_ns"] == 33_000

    switch = report["switch_cost_ns"]
    assert switch["count"] == 2
    assert switch["max"] == pytest.approx(2_000)
    by_reason = report["switch_by_reason"]
    assert by_reason["slice_expired"]["count"] == 1
    assert by_reason["hw_probe_irq"]["premature"] == 1

    ipi = report["ipi_latency_ns"]
    assert ipi["count"] == 1
    assert ipi["max"] == pytest.approx(500)
    assert ipi["unmatched_sends"] == 0

    window = report["preprocessing_window"]
    assert window == {"probe_exits": 1, "hits": 0, "misses": 1,
                      "hit_rate": 0.0}
    assert report["dp_idle_yields"] == {"total": 1,
                                        "by_service": {"dp0": 1}}


def test_analyze_events_empty_stream():
    report = analyze_events([])
    assert report["events"] == 0
    assert report["span_ns"] == 0
    assert report["wakeup_to_sched_in_ns"] == {"count": 0}


def test_open_slices_charge_occupancy_until_stream_end():
    report = analyze_events([
        ev(0, 0, "sched_in", thread="t0", rq=0),
        ev(0, 0, "vmenter", vcpu="v0", slice_ns=30_000),
        ev(10_000, 1, "enqueue", thread="t1"),
    ])
    assert report["cpu_occupancy"][0]["busy_ns"] == 10_000
    assert report["vcpu_occupancy"]["v0"]["backed_ns"] == 10_000


def test_jsonl_round_trip_preserves_profile_and_meta(tmp_path):
    path = str(tmp_path / "capture.jsonl")
    tracer = Tracer(enabled=True)
    for event in synthetic_stream():
        tracer.record(event.ts_ns, event.cpu_id, event.kind, **event.detail)
    write_jsonl(path, [("sim", tracer)])

    streams = load_jsonl(path)
    assert len(streams) == 1
    label, events, meta = streams[0]
    assert label == "sim"
    assert len(events) == 11
    assert meta["dropped"] == 0
    assert meta["mode"] == "ring"

    direct = analyze_events(list(tracer))
    loaded = analyze_events(events)
    assert loaded["switch_cost_ns"] == direct["switch_cost_ns"]
    assert loaded["ipi_latency_ns"] == direct["ipi_latency_ns"]


def test_truncated_capture_warns(tmp_path):
    path = str(tmp_path / "capture.jsonl")
    tracer = Tracer(cap=4, enabled=True)
    for event in synthetic_stream():
        tracer.record(event.ts_ns, event.cpu_id, event.kind, **event.detail)
    assert tracer.dropped > 0
    write_jsonl(path, [("sim", tracer)])

    analysis = analyze_streams(path, check_invariants=False)
    assert len(analysis["warnings"]) == 1
    assert "dropped (ring mode)" in analysis["warnings"][0]
    assert "truncated" in analysis["warnings"][0]
    text = format_analysis(analysis)
    assert text.startswith("WARNING:")


def test_analyze_streams_flags_corruption_and_serializes(tmp_path):
    corrupt = [
        ev(0, 0, "vmenter", vcpu="v0", slice_ns=30_000),
        ev(10, 0, "vmenter", vcpu="v0", slice_ns=30_000),
    ]
    analysis = analyze_streams([("bad", corrupt, {})])
    assert len(analysis["violations"]) == 1
    label, violation = analysis["violations"][0]
    assert label == "bad"
    assert violation.checker == "slice_pair_nesting"
    assert "INVARIANT VIOLATIONS: 1" in format_analysis(analysis)

    out = str(tmp_path / "analysis.json")
    write_analysis_json(out, analysis)
    with open(out) as handle:
        doc = json.load(handle)
    assert doc["violations"][0]["stream"] == "bad"
    assert doc["violations"][0]["checker"] == "slice_pair_nesting"
    assert doc["streams"]["bad"]["events"] == 2


def test_format_analysis_reports_clean_streams():
    analysis = analyze_streams([("sim", synthetic_stream(), {})])
    assert analysis["violations"] == []
    text = format_analysis(analysis)
    assert "wakeup->sched_in latency" in text
    assert "vmexit switch cost" in text
    assert "preprocessing window" in text
    assert "all checks passed (0 violations)" in text
