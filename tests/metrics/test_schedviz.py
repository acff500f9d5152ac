"""Tests for the ASCII scheduling-trace renderer."""

import pytest

from repro.metrics import occupancy_spans, render_gantt
from repro.obs.tracer import Tracer


def make_timeline():
    timeline = Tracer(enabled=True)
    timeline.record(0, 0, "sched_in", thread="alpha")
    timeline.record(500, 0, "sched_out", thread="alpha", outcome="blocked")
    timeline.record(600, 0, "vmenter", vcpu="v0")
    timeline.record(900, 0, "vmexit", vcpu="v0", reason="halt")
    timeline.record(100, 1, "sched_in", thread="beta")
    timeline.record(1000, 1, "sched_out", thread="beta", outcome="exited")
    return timeline


def test_occupancy_spans_pairs_events():
    spans = occupancy_spans(make_timeline())
    assert spans[0] == [(0, 500, "a"), (600, 900, "v")]
    assert spans[1] == [(100, 1000, "b")]


def test_open_span_clipped_at_horizon():
    timeline = Tracer(enabled=True)
    timeline.record(100, 0, "sched_in", thread="x")
    spans = occupancy_spans(timeline, start_ns=0, end_ns=1000)
    assert spans[0] == [(100, 1000, "x")]


def test_open_span_survives_without_end_ns():
    # Regression: spans still open at the last event used to vanish
    # entirely when no end_ns horizon was given.
    timeline = Tracer(enabled=True)
    timeline.record(100, 0, "sched_in", thread="x")
    timeline.record(900, 1, "vmenter", vcpu="v0")
    spans = occupancy_spans(timeline)
    assert spans[0] == [(100, 900, "x")]
    assert spans[1] == [(900, 900, "v")]


def test_straddling_open_clamped_without_start_ns():
    # Regression: an open preceding the window was only handled when
    # start_ns was explicitly set.
    timeline = Tracer(enabled=True)
    timeline.record(100, 0, "sched_in", thread="x")
    timeline.record(700, 0, "sched_out", thread="x")
    assert occupancy_spans(timeline)[0] == [(100, 700, "x")]
    assert occupancy_spans(timeline, start_ns=300)[0] == [(300, 700, "x")]


def test_slice_nested_in_a_stint_keeps_both_and_draws_the_slice():
    # A vCPU slice runs inside the stint of the thread that lent its CPU.
    timeline = Tracer(enabled=True)
    timeline.record(0, 0, "sched_in", thread="dp")
    timeline.record(0, 0, "vmenter", vcpu="v0")
    timeline.record(600, 0, "vmexit", vcpu="v0", reason="halt")
    timeline.record(600, 0, "sched_out", thread="dp", outcome="blocked")
    timeline.record(900, 1, "enqueue", thread="x")
    assert occupancy_spans(timeline)[0] == [(0, 600, "v"), (0, 600, "d")]
    row = next(line for line in render_gantt(timeline, 0, 1000, width=10)
               .splitlines() if line.startswith("cpu 0"))
    assert row.endswith("vvvvvvv...")


def test_render_notes_dropped_events():
    timeline = Tracer(cap=4, enabled=True)
    for ts in range(0, 800, 100):
        timeline.record(ts, 0, "sched_in", thread="x")
    text = render_gantt(timeline, 0, 1000, width=50)
    assert "4 events dropped" in text
    assert "dropped" not in render_gantt(make_timeline(), 0, 1000, width=50)


def test_render_has_one_row_per_cpu():
    text = render_gantt(make_timeline(), 0, 1000, width=50)
    lines = text.splitlines()
    assert any(line.startswith("cpu 0") for line in lines)
    assert any(line.startswith("cpu 1") for line in lines)


def test_render_marks_threads_vcpus_and_idle():
    text = render_gantt(make_timeline(), 0, 1000, width=50)
    row0 = next(line for line in text.splitlines() if line.startswith("cpu 0"))
    assert "a" in row0
    assert "v" in row0
    assert "." in row0


def test_render_rejects_empty_window():
    with pytest.raises(ValueError):
        render_gantt(make_timeline(), 100, 100)


def test_executor_emits_trace_events():
    from repro.kernel import Compute, Kernel
    from repro.sim import Environment

    env = Environment()
    env.tracer.enable()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.spawn("worker", iter([Compute(1000)]))
    env.run()
    kinds = [event.kind for event in env.tracer]
    assert "sched_in" in kinds
    assert "sched_out" in kinds
