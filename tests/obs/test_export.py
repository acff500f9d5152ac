"""Tests for the Chrome-trace / JSONL / metrics exporters."""

import json

from repro.obs import (
    MetricsRegistry, Tracer, chrome_trace, write_chrome_trace, write_jsonl,
    write_metrics_json,
)


def make_tracer():
    tracer = Tracer(enabled=True)
    tracer.record(1_000, 0, "sched_in", thread="alpha")
    tracer.record(5_000, 0, "sched_out", thread="alpha", outcome="blocked")
    tracer.record(6_000, 0, "vmenter", vcpu="v0", slice_ns=50_000)
    tracer.record(9_000, 0, "vmexit", vcpu="v0", reason="halt")
    tracer.record(2_000, 1, "rq_depth", depth=3)
    tracer.record(7_000, 1, "ipi_send", dst=0, vector="resched", routed=False)
    return tracer


def test_slice_pairing_and_categories():
    doc = chrome_trace(make_tracer())
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {s["cat"] for s in slices} == {"kernel", "virt"}
    sched = next(s for s in slices if s["cat"] == "kernel")
    assert sched["name"] == "alpha"
    assert sched["ts"] == 1.0 and sched["dur"] == 4.0  # microseconds
    vm = next(s for s in slices if s["cat"] == "virt")
    assert vm["args"]["slice_ns"] == 50_000
    assert vm["args"]["reason"] == "halt"


def test_counter_and_instant_events():
    doc = chrome_trace(make_tracer())
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters[0]["args"] == {"depth": 3}
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert any(e["name"] == "ipi_send" and e["cat"] == "ipi" for e in instants)


def test_unmatched_end_degrades_to_instant():
    tracer = Tracer(enabled=True)
    tracer.record(5_000, 0, "vmexit", vcpu="v0", reason="halt")
    doc = chrome_trace(tracer)
    events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    assert len(events) == 1
    assert events[0]["ph"] == "i" and events[0]["name"] == "vmexit"


def test_open_slice_closed_at_trace_end():
    tracer = Tracer(enabled=True)
    tracer.record(1_000, 0, "vmenter", vcpu="v0")
    tracer.record(8_000, 1, "rq_depth", depth=1)
    doc = chrome_trace(tracer)
    vm = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert vm["args"]["open_at_trace_end"] is True
    assert vm["ts"] + vm["dur"] == 8.0  # clipped at the last event seen


def test_multi_stream_pids_and_drop_count():
    first = make_tracer()
    second = Tracer(cap=1, enabled=True)
    second.record(1, 0, "enqueue", thread="a")
    second.record(2, 0, "enqueue", thread="b")
    doc = chrome_trace([("naive", first), ("taichi", second)])
    assert {e["pid"] for e in doc["traceEvents"]} == {0, 1}
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert names == ["naive", "taichi"]
    assert doc["otherData"]["dropped_events"] == 1


def test_chrome_trace_round_trips_json(tmp_path):
    path = write_chrome_trace(tmp_path / "t.json", make_tracer())
    with open(path) as handle:
        doc = json.loads(handle.read())
    assert doc["displayTimeUnit"] == "ns"
    assert doc["traceEvents"]


def test_jsonl_one_object_per_event_plus_meta(tmp_path):
    tracer = make_tracer()
    path = write_jsonl(tmp_path / "t.jsonl", tracer)
    with open(path) as handle:
        lines = [json.loads(line) for line in handle]
    assert len(lines) == len(tracer) + 1  # trace_meta header line
    assert lines[0] == {"pid": 0, "stream": "trace", "kind": "trace_meta",
                        "args": {"events": len(tracer), "dropped": 0,
                                 "cap": 1_000_000, "mode": "ring"}}
    assert lines[1] == {"pid": 0, "stream": "trace", "ts_ns": 1_000,
                        "cpu": 0, "kind": "sched_in",
                        "args": {"thread": "alpha"}}


def test_jsonl_meta_reports_drops_per_stream(tmp_path):
    lossy = Tracer(cap=1, enabled=True)
    lossy.record(1, 0, "enqueue", thread="a")
    lossy.record(2, 0, "enqueue", thread="b")
    path = write_jsonl(tmp_path / "t.jsonl", [("full", make_tracer()),
                                              ("lossy", lossy)])
    with open(path) as handle:
        metas = {line["stream"]: line["args"]
                 for line in map(json.loads, handle)
                 if line["kind"] == "trace_meta"}
    assert metas["full"]["dropped"] == 0
    assert metas["lossy"] == {"events": 1, "dropped": 1, "cap": 1,
                              "mode": "ring"}


def test_metrics_json_handles_enum_keys(tmp_path):
    import enum

    class Reason(enum.Enum):
        HALT = "halt"

    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.add_source("s", lambda: {"reason": Reason.HALT, "obj": object()})
    path = write_metrics_json(tmp_path / "m.json", registry)
    with open(path) as handle:
        doc = json.load(handle)
    assert doc["counters"]["c"] == 1
    assert doc["sources"]["s"]["reason"] == "halt"


# -- span export ---------------------------------------------------------------


def make_span_tracer():
    tracer = Tracer(enabled=True)
    tracer.record(1_000, 0, "span.begin", span="pkt-1#0", request="pkt-1",
                  name="dp_request", channel="dp")
    tracer.record(1_500, 0, "span.begin", span="pkt-1#1", request="pkt-1",
                  name="stage", parent="pkt-1#0")
    tracer.record(2_000, 0, "span.end", span="pkt-1#1", request="pkt-1",
                  name="stage")
    tracer.record(4_000, 2, "span.end", span="pkt-1#0", request="pkt-1",
                  name="dp_request", duration_ns=3_000,
                  parts=[["accel_preprocess", 1_000, 2_000],
                         ["queued_behind", 2_000, 4_000]])
    return tracer


def test_span_pairs_become_async_events():
    doc = chrome_trace(make_span_tracer())
    begins = [e for e in doc["traceEvents"]
              if e["ph"] == "b" and e["cat"] == "span"]
    ends = [e for e in doc["traceEvents"]
            if e["ph"] == "e" and e["cat"] == "span"]
    # 2 spans + 2 critical-path parts, all keyed by the request id.
    assert len(begins) == 4 and len(ends) == 4
    assert {e["id"] for e in begins} == {"pkt-1"}
    root_end = next(e for e in ends if e["name"] == "dp_request")
    assert "parts" not in root_end["args"]          # parts become windows
    assert root_end["args"]["duration_ns"] == 3_000
    part_names = {e["name"] for e in begins} - {"dp_request", "stage"}
    assert part_names == {"accel_preprocess", "queued_behind"}


def test_root_span_emits_flow_arrow_between_cpus():
    doc = chrome_trace(make_span_tracer())
    flows = [e for e in doc["traceEvents"] if e.get("cat") == "span.flow"]
    assert [e["ph"] for e in flows] == ["s", "f"]
    start, finish = flows
    assert start["id"] == finish["id"] == "flow:pkt-1"
    assert start["tid"] != finish["tid"]            # cpu 0 -> cpu 2
    assert finish["bp"] == "e"
    # Child spans do not get flow arrows.
    assert len(flows) == 2


def test_other_data_streams_carry_trace_meta():
    tracer = make_tracer()
    doc = chrome_trace([("alpha", tracer), ("beta", make_span_tracer())])
    streams = doc["otherData"]["streams"]
    assert [s["stream"] for s in streams] == ["alpha", "beta"]
    assert streams[0]["pid"] == 0 and streams[1]["pid"] == 1
    for stream in streams:
        assert stream["events"] > 0
        assert "dropped" in stream
    assert doc["otherData"]["dropped_events"] == 0


def test_span_export_round_trips_json(tmp_path):
    path = tmp_path / "spans.trace.json"
    write_chrome_trace(str(path), make_span_tracer())
    doc = json.loads(path.read_text())
    assert any(e.get("cat") == "span" for e in doc["traceEvents"])
