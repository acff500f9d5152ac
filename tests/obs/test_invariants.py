"""Invariant checkers against clean and deliberately corrupted streams."""

from repro.metrics.timeline import TimelineEvent
from repro.obs import InvariantEngine, check_events, default_checkers, observe
from repro.obs.invariants import (
    FaultRecoveryChecker,
    IdleYieldThreshold,
    IpiDeliveryBound,
    MonotonicTimestamps,
    RunQueueDepthConsistency,
    SingleCpuPerThread,
    SlicePairNesting,
)


def ev(ts, cpu, kind, **detail):
    return TimelineEvent(ts, cpu, kind, detail)


def names(violations):
    return [violation.checker for violation in violations]


# -- corrupted streams ---------------------------------------------------------


def test_lost_ipi_deliver_is_flagged():
    events = [
        ev(0, 0, "ipi_send", dst=1, vector="resched", routed=False),
        ev(500, 1, "ipi_deliver", vector="resched"),
        ev(1_000, 0, "ipi_send", dst=1, vector="resched", routed=False),
        # ... the matching ipi_deliver was lost ...
        ev(5_000_000, 1, "sched_in", thread="t0", rq=1),
    ]
    violations = check_events(events, checkers=[IpiDeliveryBound()])
    assert len(violations) == 1
    assert violations[0].checker == "ipi_delivery_bound"
    assert "never delivered" in violations[0].message
    assert violations[0].event.ts_ns == 1_000


def test_slow_ipi_deliver_is_flagged():
    events = [
        ev(0, 0, "ipi_send", dst=1, vector="resched", routed=False),
        ev(2_000_000, 1, "ipi_deliver", vector="resched"),
    ]
    violations = check_events(events, checkers=[IpiDeliveryBound()])
    assert len(violations) == 1
    assert "delivered" in violations[0].message


def test_deliver_without_send_is_legal_device_irq_path():
    events = [ev(100, 2, "ipi_deliver", vector="hw_probe")]
    assert check_events(events, checkers=[IpiDeliveryBound()]) == []


def test_unpaired_vmexit_is_flagged():
    events = [
        ev(0, 0, "vmenter", vcpu="v0", slice_ns=30_000),
        ev(30_000, 0, "vmexit", vcpu="v0", reason="slice_expired"),
        ev(31_000, 0, "vmexit", vcpu="v0", reason="slice_expired"),
    ]
    violations = check_events(events, checkers=[SlicePairNesting()])
    assert len(violations) == 1
    assert "unpaired vmexit" in violations[0].message


def test_nested_vmenter_and_identity_mismatch_are_flagged():
    nested = check_events([
        ev(0, 0, "vmenter", vcpu="v0"),
        ev(10, 0, "vmenter", vcpu="v1"),
    ], checkers=[SlicePairNesting()])
    assert len(nested) == 1
    assert "nested vmenter" in nested[0].message

    mismatch = check_events([
        ev(0, 0, "vmenter", vcpu="v0"),
        ev(10, 0, "vmexit", vcpu="v1", reason="slice_expired"),
    ], checkers=[SlicePairNesting()])
    assert len(mismatch) == 1
    assert "v1" in mismatch[0].message and "v0" in mismatch[0].message


def test_slice_open_at_stream_end_is_legal():
    events = [
        ev(0, 0, "sched_in", thread="t0", rq=0),
        ev(10, 0, "vmenter", vcpu="v0"),
    ]
    assert check_events(events, checkers=[SlicePairNesting()]) == []


def test_overlapping_sched_in_on_two_cpus_is_flagged():
    events = [
        ev(0, 0, "sched_in", thread="t0", rq=0),
        ev(100, 1, "sched_in", thread="t0", rq=1),
    ]
    violations = check_events(events, checkers=[SingleCpuPerThread()])
    assert len(violations) == 1
    assert "cpu 1" in violations[0].message  # names both CPUs involved
    assert "cpu 0" in violations[0].message


def test_thread_may_migrate_after_sched_out():
    events = [
        ev(0, 0, "sched_in", thread="t0", rq=0),
        ev(100, 0, "sched_out", thread="t0", outcome="preempt", ran_ns=100),
        ev(200, 1, "sched_in", thread="t0", rq=1),
    ]
    assert check_events(events, checkers=[SingleCpuPerThread()]) == []


def test_backwards_timestamp_is_flagged():
    events = [ev(100, 0, "enqueue", thread="t0"), ev(50, 0, "enqueue",
                                                     thread="t1")]
    violations = check_events(events, checkers=[MonotonicTimestamps()])
    assert names(violations) == ["monotonic_timestamps"]


def test_premature_idle_yield_is_flagged():
    events = [
        ev(0, 3, "vmexit", vcpu="dp0", reason="dp_idle"),
        # threshold 10 needs 10 * 200 ns of empty polling; 400 ns is too soon
        ev(400, 3, "dp_idle_yield", service="dp0", threshold=10),
    ]
    violations = check_events(events, checkers=[IdleYieldThreshold()])
    assert len(violations) == 1
    assert "2000 ns" in violations[0].message


def test_idle_yield_after_budget_is_legal():
    events = [
        ev(0, 3, "vmexit", vcpu="dp0", reason="dp_idle"),
        ev(2_000, 3, "dp_idle_yield", service="dp0", threshold=10),
    ]
    assert check_events(events, checkers=[IdleYieldThreshold()]) == []


def test_rq_depth_zero_after_enqueue_is_flagged():
    events = [
        ev(0, 0, "enqueue", thread="t0"),
        ev(0, 0, "rq_depth", depth=0),
    ]
    violations = check_events(events, checkers=[RunQueueDepthConsistency()])
    assert len(violations) == 1
    assert "enqueue" in violations[0].message

    negative = check_events([ev(0, 0, "rq_depth", depth=-1)],
                            checkers=[RunQueueDepthConsistency()])
    assert len(negative) == 1


# -- fault-aware streams -------------------------------------------------------


def test_injected_drop_before_send_is_forgiven():
    # The fault hook runs (and records the drop) before ``ipi_send`` is
    # traced, so the drop legitimately precedes its own send.
    events = [
        ev(0, 1, "fault.ipi_drop", dst=1, vector="resched"),
        ev(0, 0, "ipi_send", dst=1, vector="resched", routed=False),
    ]
    assert check_events(events, checkers=[IpiDeliveryBound()]) == []


def test_offline_drop_after_send_is_forgiven():
    events = [
        ev(0, 0, "ipi_send", dst=1, vector="resched", routed=False),
        ev(500, 1, "ipi.dropped", vector="resched", reason="offline"),
    ]
    assert check_events(events, checkers=[IpiDeliveryBound()]) == []


def test_drop_credit_is_consumed_once():
    # One drop forgives one send; a second undelivered send still flags.
    events = [
        ev(0, 1, "fault.ipi_drop", dst=1, vector="resched"),
        ev(0, 0, "ipi_send", dst=1, vector="resched", routed=False),
        ev(100, 0, "ipi_send", dst=1, vector="resched", routed=False),
        ev(5_000_000, 1, "sched_in", thread="t0", rq=1),
    ]
    violations = check_events(events, checkers=[IpiDeliveryBound()])
    assert len(violations) == 1
    assert violations[0].event.ts_ns == 100


def test_injected_delay_extends_the_delivery_bound():
    events = [
        ev(0, 0, "ipi_send", dst=1, vector="resched", routed=False),
        ev(0, 1, "fault.ipi_delay", dst=1, vector="resched",
           extra_ns=2_000_000),
        ev(2_500_000, 1, "ipi_deliver", vector="resched"),
    ]
    assert check_events(events, checkers=[IpiDeliveryBound()]) == []
    # Without the delay annotation the same stream is a violation.
    undelayed = [events[0], events[2]]
    assert len(check_events(undelayed, checkers=[IpiDeliveryBound()])) == 1


def test_paired_fault_inject_and_clear_is_clean():
    events = [
        ev(0, "-", "fault.injected", fault="ipi_drop-0.0",
           fault_kind="ipi_drop", until_ns=1_000),
        ev(1_000, "-", "fault.cleared", fault="ipi_drop-0.0",
           fault_kind="ipi_drop"),
    ]
    assert check_events(events, checkers=[FaultRecoveryChecker()]) == []


def test_double_injection_without_clear_is_flagged():
    events = [
        ev(0, "-", "fault.injected", fault="f1", fault_kind="ipi_drop",
           until_ns=1_000),
        ev(500, "-", "fault.injected", fault="f1", fault_kind="ipi_drop",
           until_ns=1_500),
    ]
    violations = check_events(events, checkers=[FaultRecoveryChecker()])
    assert any("injected twice" in v.message for v in violations)


def test_clear_without_injection_is_flagged():
    events = [ev(0, "-", "fault.cleared", fault="ghost",
                 fault_kind="ipi_drop")]
    violations = check_events(events, checkers=[FaultRecoveryChecker()])
    assert len(violations) == 1
    assert "never injected" in violations[0].message


def test_fault_never_cleared_is_flagged_after_its_window():
    events = [
        ev(0, "-", "fault.injected", fault="f1", fault_kind="probe_outage",
           until_ns=1_000),
        ev(5_000, 0, "enqueue", thread="t0"),
    ]
    violations = check_events(events, checkers=[FaultRecoveryChecker()])
    assert len(violations) == 1
    assert "never cleared" in violations[0].message


def test_fault_open_at_capture_end_is_legal():
    # The capture stopped inside the fault window: not a violation.
    events = [
        ev(0, "-", "fault.injected", fault="f1", fault_kind="probe_outage",
           until_ns=10_000),
        ev(5_000, 0, "enqueue", thread="t0"),
    ]
    assert check_events(events, checkers=[FaultRecoveryChecker()]) == []


# -- engine plumbing -----------------------------------------------------------


def test_engine_attaches_context_and_is_idempotent():
    engine = InvariantEngine(context_events=2)
    engine.observe(ev(0, 0, "enqueue", thread="a"))
    engine.observe(ev(10, 0, "enqueue", thread="b"))
    engine.observe(ev(5, 0, "enqueue", thread="c"))  # goes backwards
    first = engine.finish()
    assert len(first) == 1
    assert [event.detail["thread"] for event in first[0].context] == ["a", "b"]
    assert engine.finish() is first


def test_engine_caps_violations():
    engine = InvariantEngine(checkers=[MonotonicTimestamps()],
                             max_violations=3)
    engine.observe(ev(100, 0, "enqueue", thread="t"))
    for _ in range(10):
        engine.observe(ev(1, 0, "enqueue", thread="t"))
    assert len(engine.finish()) == 3
    assert engine.overflowed == 7


def test_default_checkers_cover_catalog():
    assert {checker.name for checker in default_checkers()} == {
        "monotonic_timestamps", "ipi_delivery_bound", "slice_pair_nesting",
        "single_cpu_per_thread", "idle_yield_threshold", "runqueue_depth",
        "fault_recovery", "alert_pairing", "span_pairing",
        "tenant_fair_share", "tenant_grant_conservation",
    }


# -- clean end-to-end run ------------------------------------------------------


def test_clean_fig4_run_has_zero_violations():
    from repro.experiments import run_experiment

    with observe(check_invariants=True) as session:
        run_experiment("fig4", scale=0.2, seed=0)
        violations = session.violations()
    assert session.invariant_engines          # checkers actually attached
    assert all(tracer.enabled for _label, tracer in session.streams)
    assert session.events()                   # fig4's own enable() retains
    assert violations == []
