"""Tests for the gated tracer."""

from repro.obs import Tracer


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    assert not tracer.enabled
    tracer.record(10, 0, "sched_in", thread="a")
    assert len(tracer) == 0
    assert tracer.dropped == 0


def test_enable_disable_toggle_capture():
    tracer = Tracer()
    assert tracer.enable() is tracer
    tracer.record(10, 0, "sched_in", thread="a")
    tracer.disable()
    tracer.record(20, 0, "sched_out", thread="a")
    assert len(tracer) == 1
    assert tracer.events[0].kind == "sched_in"


def test_enabled_tracer_is_a_timeline():
    tracer = Tracer(enabled=True)
    tracer.record(10, 0, "enqueue", thread="a")
    tracer.record(20, 1, "enqueue", thread="b")
    assert len(tracer.filter(cpu_id=1)) == 1
    assert tracer.filter(kind="enqueue")[0].detail["thread"] == "a"


def test_ring_mode_evicts_oldest():
    tracer = Tracer(cap=3, enabled=True)
    for ts in range(5):
        tracer.record(ts, 0, "x", n=ts)
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert [event.ts_ns for event in tracer] == [2, 3, 4]


def test_instrumentation_sites_pay_only_the_guard(kernel):
    # The spine's contract: with the default (disabled) env tracer, a full
    # simulation leaves the trace empty.
    from repro.kernel import Compute

    kernel.spawn("worker", iter([Compute(1_000)]))
    kernel.env.run()
    assert len(kernel.env.tracer) == 0
    assert kernel.env.tracer.dropped == 0


def test_hooks_that_declare_kinds_see_only_those_kinds():
    tracer = Tracer()
    seen, everything = [], []
    tracer.add_hook(lambda event: seen.append(event.kind), kinds={"vmenter"})
    tracer.record(10, 0, "sched_in", thread="a")
    tracer.record(20, 0, "vmenter")
    assert seen == ["vmenter"] and len(tracer) == 0
    # A hook that declares nothing reads every kind, so all are built.
    hook = tracer.add_hook(lambda event: everything.append(event.kind))
    tracer.record(30, 0, "sched_in", thread="a")
    assert everything == ["sched_in"] and seen == ["vmenter", "sched_in"]
    tracer.remove_hook(hook)
    tracer.record(40, 0, "sched_out", thread="a")
    assert everything == ["sched_in"] and seen == ["vmenter", "sched_in"]
    # A retaining tracer builds and keeps every kind.
    tracer.enable()
    tracer.record(50, 0, "sched_out", thread="a")
    assert [event.kind for event in tracer] == ["sched_out"]
    assert seen[-1] == "sched_out"
