"""Causal request tracing: attribution exactness, exemplars, pairing.

The load-bearing contract tested here is the exact partition: every
completed root span's ``parts`` timeline sums to its end-to-end duration
ns-exactly — including under fault injection, where delayed IPI delivery
must surface as a wider ``ipi_deliver`` segment, never as an
unexplained gap.
"""

import hashlib
import json
from itertools import count
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.cp import device_mgmt
from repro.hw import host
from repro.metrics.timeline import TimelineEvent
from repro.obs import check_events, observe, write_jsonl
from repro.obs.analysis import (
    critical_path_from_streams,
    find_request_tree,
    load_jsonl,
)
from repro.obs.invariants import SpanPairingChecker
from repro.obs.spans import (
    _HANDLED_KINDS,
    ExemplarReservoir,
    Span,
    SpanTracker,
    build_span_trees,
    dominant_segment,
    format_critical_path,
    format_waterfall,
    merge_parts,
    segment_totals,
)
from repro.obs.tracer import Tracer
from repro.scenario import Scenario, run_soak
from repro.sim.units import MILLISECONDS


class _Env:
    """A minimal environment stand-in: a clock and a tracer."""

    def __init__(self):
        self.now = 0
        self.tracer = Tracer(enabled=True)


def _tracker():
    env = _Env()
    tracker = SpanTracker(env)
    tracker.enable()
    return env, tracker


def _parts_sum(parts):
    return sum(hi - lo for _name, lo, hi in parts)


def _assert_exact(record):
    assert _parts_sum(record["parts"]) == record["duration_ns"]
    assert sum(record["segments"].values()) == record["duration_ns"]


# -- primitives ----------------------------------------------------------------


def test_merge_parts_coalesces_and_drops_empty():
    parts = merge_parts([["a", 0, 10], ["a", 10, 20], ["b", 20, 20],
                         ["b", 20, 30], ["a", 30, 40]])
    assert parts == [["a", 0, 20], ["b", 20, 30], ["a", 30, 40]]
    assert segment_totals(parts) == {"a": 30, "b": 10}


def test_dominant_segment_breaks_ties_deterministically():
    assert dominant_segment({"b": 10, "a": 10}) == ("a", 50.0)
    assert dominant_segment({}) == (None, 0.0)


def test_exemplar_reservoir_is_bounded_and_worst_first():
    reservoir = ExemplarReservoir(k=3)
    for i, duration in enumerate([50, 300, 100, 200, 400, 10]):
        reservoir.offer({"request": f"pkt-{i}", "duration_ns": duration})
    assert reservoir.offered == 6
    assert len(reservoir) == 3
    assert reservoir.worst_ids() == ["pkt-4", "pkt-1", "pkt-3"]


def test_exemplar_reservoir_ties_break_on_request_id():
    reservoir = ExemplarReservoir(k=2)
    for request in ("pkt-9", "pkt-2", "pkt-5"):
        reservoir.offer({"request": request, "duration_ns": 100})
    assert reservoir.worst_ids() == ["pkt-2", "pkt-5"]


@pytest.mark.parametrize("reader", [None, "trace", "hook"])
def test_a_root_that_cannot_enter_skips_attribution_only_when_unread(reader):
    env = _Env()
    env.tracer = Tracer(enabled=reader == "trace")
    if reader == "hook":
        env.tracer.add_hook(lambda event: None)
    tracker = SpanTracker(env, exemplar_k=2).enable()
    late = []  # hooked after enable(), so never part of the decision
    env.tracer.add_hook(lambda event: late.append(event.kind))
    records = []
    for i, duration in enumerate([50, 40, 10, 40, 60]):
        request = SimpleNamespace(span_id=None, t_accel_start=None,
                                  t_rx_ready=None)
        env.now = 1_000 * i
        tracker.begin_dp(request, 0)
        env.now += duration
        records.append(tracker.end_dp(request, 0))
    # 10 ns is shorter than both kept roots; the second 40 ties the kept
    # minimum, so its id decides and it is attributed.
    assert [record is None for record in records] == \
        [False, False, reader is None, False, False]
    assert tracker.worst_ids("dp") == ["pkt-5", "pkt-1"]
    assert tracker.roots_completed == tracker.reservoirs["dp"].offered == 5
    assert tracker.open_spans() == 0
    assert tracker._tree == {} and tracker._span_seq == {}
    assert late.count("span.end") == (0 if reader is None else 5)
    assert len(env.tracer) == (10 if reader == "trace" else 0)


@pytest.mark.parametrize("retain", [False, True])
def test_an_open_dp_root_keeps_the_activity_it_will_attribute(retain):
    # A root open across more vCPU slices than the per-CPU prune trigger:
    # its whole wait stays attributable whether its stream is unread or
    # retained, and both give the same record.
    env = _Env()
    env.tracer = Tracer(enabled=retain)
    tracker = SpanTracker(env).enable()
    request = SimpleNamespace(span_id=None, t_accel_start=None,
                              t_rx_ready=None)
    tracker.begin_dp(request, 0)
    assert tracker.open_spans() == 1
    slices = 600
    for i in range(slices):
        env.now = 100 * i + 10
        env.tracer.record(env.now, 0, "vmenter", vcpu="v0")
        env.now += 50
        env.tracer.record(env.now, 0, "vmexit", vcpu="v0", exit_cost_ns=0)
    env.now = 100 * slices
    record = tracker.end_dp(request, 0)
    assert tracker.open_spans() == 0
    assert record["request"] == "pkt-1"
    assert record["spans"] == [{"span": "pkt-1#0", "request": "pkt-1",
                                "parent": None, "name": "dp_request",
                                "begin_ns": 0, "end_ns": 100 * slices}]
    assert record["segments"] == {"sched_delay": 50 * slices,
                                  "vcpu_occupied": 50 * slices}


# -- flat-stream attribution ---------------------------------------------------


def test_attribute_vcpu_slice_splits_body_and_switch_tail():
    env, tracker = _tracker()
    env.tracer.record(200, 1, "vmenter", vcpu="vm0.vcpu0")
    env.tracer.record(1200, 1, "vmexit", vcpu="vm0.vcpu0",
                      exit_cost_ns=300)
    parts = tracker.attribute(1, 0, 2000, "queue_wait")
    assert parts == [["queue_wait", 0, 200],
                     ["vcpu_occupied", 200, 900],
                     ["vmexit_switch", 900, 1200],
                     ["queue_wait", 1200, 2000]]
    assert _parts_sum(parts) == 2000


def test_attribute_delayed_ipi_is_a_segment_not_a_gap():
    # A fault-delayed IPI: sent at t=100, delivered 5us later.  The whole
    # in-flight window must be claimed by ipi_deliver.
    env, tracker = _tracker()
    env.tracer.record(100, "-", "ipi_send", dst=0, vector="resched",
                      routed=False)
    env.tracer.record(5100, 0, "ipi_deliver", vector="resched")
    parts = tracker.attribute(0, 0, 6000, "sched_delay")
    assert parts == [["sched_delay", 0, 100],
                     ["ipi_deliver", 100, 5100],
                     ["sched_delay", 5100, 6000]]
    assert _parts_sum(parts) == 6000


def test_attribute_dropped_ipi_consumes_pending_send():
    env, tracker = _tracker()
    env.tracer.record(100, "-", "ipi_send", dst=0, vector="resched",
                      routed=False)
    env.tracer.record(150, 0, "fault.ipi_drop", vector="resched")
    # A later delivery must not pair with the dropped send.
    env.tracer.record(900, 0, "ipi_deliver", vector="resched")
    parts = tracker.attribute(0, 0, 1000, "sched_delay")
    assert parts == [["sched_delay", 0, 1000]]


def test_attribute_probe_irq_window_counts_as_ipi():
    env, tracker = _tracker()
    env.tracer.record(100, 0, "hwprobe_irq", latency_ns=400)
    parts = tracker.attribute(0, 0, 1000, "queue_wait")
    assert parts == [["queue_wait", 0, 100],
                     ["ipi_deliver", 100, 500],
                     ["queue_wait", 500, 1000]]


def test_attribute_overlap_deeper_activity_wins():
    # DP service time [0, 1000) with an IPI in flight [200, 400): the
    # IPI is deeper, so it claims its window.  The executor hands the
    # tracker the stint; a traced sched_out (here a stray one at 500) is
    # not read, so it cannot cut the stint short.
    env, tracker = _tracker()
    tracker.register_dp_thread("dp-net0")
    tracker.sched_in(0, "dp-net0", 0)
    env.tracer.record(200, "-", "ipi_send", dst=0, vector="resched",
                      routed=False)
    env.tracer.record(400, 0, "ipi_deliver", vector="resched")
    env.tracer.record(500, 0, "sched_out", thread="dp-net0")
    tracker.sched_out(0, "dp-net0", 1000)
    parts = tracker.attribute(0, 0, 1000, "sched_delay")
    assert parts == [["queued_behind", 0, 200],
                     ["ipi_deliver", 200, 400],
                     ["queued_behind", 400, 1000]]
    assert _parts_sum(parts) == 1000


def test_attribute_clips_open_intervals_to_window_end():
    env, tracker = _tracker()
    env.tracer.record(300, 2, "vmenter", vcpu="vm1.vcpu0")  # never exits
    parts = tracker.attribute(2, 0, 1000, "queue_wait")
    assert parts == [["queue_wait", 0, 300], ["vcpu_occupied", 300, 1000]]


def test_attribute_empty_window_is_empty():
    _env, tracker = _tracker()
    assert tracker.attribute(0, 500, 500, "x") == []
    assert tracker.attribute(0, 500, 400, "x") == []


def test_interval_pruning_keeps_memory_bounded():
    env, tracker = _tracker()
    for i in range(3000):
        env.now = i * 100
        env.tracer.record(i * 100, 0, "hwprobe_irq", latency_ns=10)
    # No open spans: old intervals are pruned against env.now.
    assert len(tracker._cpu_iv[0]) <= 600


# -- span emission and reconstruction ------------------------------------------


def test_span_events_reconstruct_into_a_tree():
    env, tracker = _tracker()
    root = tracker.begin("dp_request", channel="dp", request_id="pkt-1",
                         cpu_id=0)
    env.now = 50
    child = tracker.begin("stage", parent=root)
    env.now = 80
    tracker.end(child)
    env.now = 100
    record = tracker.end_root(root, [["wait", 0, 60], ["serve", 60, 100]])
    _assert_exact(record)
    assert record["dominant"] == "wait"

    events = list(env.tracer)
    assert check_events(events, checkers=[SpanPairingChecker()]) == []
    trees = build_span_trees(events)
    tree = trees[record["request"]]
    assert tree["complete"]
    assert tree["channel"] == "dp"
    assert tree["duration_ns"] == 100
    assert [s["name"] for s in tree["spans"]] == ["dp_request", "stage"]
    assert _parts_sum(tree["parts"]) == 100


def test_open_span_at_stream_end_is_legal_and_incomplete():
    env, tracker = _tracker()
    tracker.begin("dp_request", channel="dp", request_id="pkt-1", cpu_id=0)
    events = list(env.tracer)
    assert check_events(events, checkers=[SpanPairingChecker()]) == []
    (tree,) = build_span_trees(events).values()
    assert not tree["complete"]
    assert tracker.open_spans() == 1


def test_a_span_ends_in_the_trace_only_if_it_began_there():
    # A capture started mid-run (a public Tracer.enable() while roots are
    # open and unread) records neither end of those roots, nor the VM
    # phase children opened under an unrecorded root; a root begun after
    # it is recorded whole.  Every root still completes.
    env = _Env()
    env.tracer = Tracer()
    tracker = SpanTracker(env).enable()
    packet = SimpleNamespace(span_id=None, t_accel_start=None,
                             t_rx_ready=None)
    vm = SimpleNamespace(vm_id=7, span_id=None)
    tracker.begin_dp(packet, 0)
    tracker.vm_begin(vm)
    env.tracer.enable()
    env.now = 100
    tracker.vm_cp_started(vm)
    assert tracker.end_dp(packet, 0)["request"] == "pkt-1"
    tracker.vm_devices_ready(vm)
    later = SimpleNamespace(span_id=None, t_accel_start=None,
                            t_rx_ready=None)
    tracker.begin_dp(later, 0)
    env.now = 200
    tracker.end_dp(later, 0)
    assert tracker.vm_started(vm)["request"] == "vm7"
    events = list(env.tracer)
    assert check_events(events, checkers=[SpanPairingChecker()]) == []
    assert [(event.kind, event.detail["span"]) for event in events] == [
        ("span.begin", "pkt-2#0"), ("span.end", "pkt-2#0")]
    assert tracker.roots_completed == 3 and tracker.open_spans() == 0


def _ev(ts, kind, **detail):
    return TimelineEvent(ts, "-", kind, detail)


def test_span_pairing_checker_flags_violations():
    def violations(events):
        return check_events(events, checkers=[SpanPairingChecker()])

    begin = _ev(0, "span.begin", span="r#0", request="r", name="root")
    assert violations([begin, begin])  # begun twice
    assert violations([_ev(0, "span.begin", span="c#1", request="r",
                           name="child", parent="nope")])  # parent not open
    assert violations([
        begin,
        _ev(1, "span.begin", span="x#1", request="other", name="child",
            parent="r#0"),
    ])  # request mismatch across the tree
    assert violations([_ev(5, "span.end", span="ghost", request="r",
                           name="root")])  # end without begin
    assert violations([
        begin,
        _ev(1, "span.begin", span="r#1", request="r", name="child",
            parent="r#0"),
        _ev(2, "span.end", span="r#0", request="r", name="root"),
    ])  # parent ended while child open
    assert violations([
        begin,
        _ev(1, "span.begin", span="r#1", request="r", name="child",
            parent="r#0"),
        _ev(2, "span.end", span="r#1", request="r", name="child"),
        _ev(3, "span.end", span="r#0", request="r", name="root"),
    ]) == []


def test_span_pairing_checks_the_end_name_and_the_root_parts():
    def messages(*events):
        return [violation.message for violation in
                check_events(events, checkers=[SpanPairingChecker()])]

    begin = _ev(0, "span.begin", span="r#0", request="r", name="root")
    (renamed,) = messages(begin, _ev(5, "span.end", span="r#0",
                                     request="r", name="other"))
    assert "name='other'" in renamed and "name='root'" in renamed

    def root_end(*parts):
        return _ev(100, "span.end", span="r#0", request="r", name="root",
                   duration_ns=100, parts=[list(part) for part in parts])

    assert messages(begin, root_end(("wait", 0, 60), ("serve", 60, 90))) == [
        "span 'r#0' parts sum to 90 ns but its duration_ns is 100 ns"]
    assert messages(begin, root_end(("wait", 0, 60), ("serve", 60, 100))) \
        == []


# -- end-to-end through the soak driver ----------------------------------------


def _soak_summary(arm="taichi", faults=None, spans=True, seed=0,
                  duration_ms=120, check_invariants=False):
    scenario = Scenario(arm=arm, faults=faults)
    with observe(trace=True, check_invariants=check_invariants,
                 spans=spans) as session:
        summary = run_soak(scenario, seed=seed,
                           duration_ns=duration_ms * MILLISECONDS,
                           drain_ns=60 * MILLISECONDS, label="spans-test",
                           spans=spans)
    return summary, session


def test_soak_exemplars_sum_exactly_for_both_channels():
    summary, _session = _soak_summary(duration_ms=300)
    exemplars = summary["exemplars"]
    assert set(exemplars) >= {"dp", "vm"}
    for channel, records in exemplars.items():
        assert records, f"channel {channel} kept no exemplars"
        for record in records:
            _assert_exact(record)
            assert record["end_ns"] - record["begin_ns"] == \
                record["duration_ns"]
    assert summary["spans"]["completed"] > 0


def test_soak_exact_under_ipi_fault_injection():
    summary, session = _soak_summary(faults="ipi_storm", duration_ms=300,
                                     check_invariants=True)
    assert summary["faults"]["injected"] > 0
    for records in summary["exemplars"].values():
        for record in records:
            _assert_exact(record)
    assert session.violations() == []


def test_capture_round_trip_critical_path_and_waterfall(tmp_path):
    summary, session = _soak_summary()
    path = tmp_path / "spans.jsonl"
    write_jsonl(str(path), session.streams)

    streams = load_jsonl(str(path))
    trees, report = critical_path_from_streams(streams)
    assert "dp" in report
    block = report["dp"]
    assert block["complete"] == summary["spans"]["completed"]
    assert block["tail_dominant"] is not None
    total_pct = sum(seg["share_pct"] for seg in block["segments"].values())
    assert total_pct == pytest.approx(100.0, abs=0.5)
    # Reconstructed trees carry the same exactness guarantee.
    for exemplar in block["exemplars"]:
        tree = trees[exemplar["request"]]
        assert _parts_sum(tree["parts"]) == tree["duration_ns"]

    text = format_critical_path(report)
    assert "tail dominated by" in text
    worst = block["exemplars"][0]["request"]
    assert worst in text
    waterfall = format_waterfall(find_request_tree(str(path), worst))
    assert worst in waterfall and "critical path:" in waterfall


def _taichi_soak(workload=None, duration_ms=150):
    """A spans-on ``taichi`` soak with both VM id counters (the CP
    request's and the host's) counted from 1, so two soaks in one
    process name the same VMs alike."""
    with mock.patch.object(device_mgmt, "_vm_ids", count(1)), \
            mock.patch.object(host, "_vm_seq", count(1)):
        return run_soak(Scenario(arm="taichi", workload=workload or {}),
                        seed=0,
                        duration_ns=duration_ms * MILLISECONDS,
                        drain_ns=60 * MILLISECONDS, label="span-cost",
                        spans=True)


#: sha256 of :func:`_churn_soak`'s capture under ``observe(trace=True,
#: spans=True)``, written by ``write_jsonl``: every flat and span event,
#: span ids, detail keys and their order.
_CHURN_CAPTURE_SHA256 = (
    "32ccb80b98e14f86d478bcf16557a66ab0e03faefa3f77d990a70ba981a89284")


def _churn_soak():
    """A short spans-on ``taichi`` soak that starts a VM batch every
    20 ms, so VM trees open and close inside the window."""
    return _taichi_soak({"vm_period_ms": 20}, duration_ms=60)


def test_vm_churn_capture_bytes_are_pinned(tmp_path):
    with observe(trace=True, spans=True) as session:
        traced = _churn_soak()
    path = tmp_path / "churn.jsonl"
    write_jsonl(str(path), session.streams)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        _CHURN_CAPTURE_SHA256
    # An inline checker reads every span event and finds them paired,
    # and the exemplars it sees are the spans-only run's.
    with observe(check_invariants=True, spans=True) as checked_session:
        checked = _churn_soak()
    assert checked_session.violations() == []
    lean = _churn_soak()
    assert lean["exemplars"]["vm"] and lean["exemplars"]["dp"]
    assert checked["exemplars"] == lean["exemplars"] == traced["exemplars"]


def test_spans_only_soak_pays_for_what_it_keeps(monkeypatch):
    """The span-cost gate: a spans-only soak stores no trace, makes no
    ``Tracer.record`` call for a kind its tracker does not read, builds a
    ``Span`` only for an attributed DP root or a VM tree, and attributes
    under 1% of its roots, yet its summary (exemplars included) equals a
    traced soak's, which hands the tracker every event and attributes
    every packet."""
    trackers, attributed, observed = [], [], []
    recorded, built, ended, vm_trees = [], [], [], []
    enable, attribute = SpanTracker.enable, SpanTracker.attribute
    tracker_observe = SpanTracker.observe
    record, span_init = Tracer.record, Span.__init__
    end_root, vm_begin = SpanTracker.end_root, SpanTracker.vm_begin

    def counting_record(self, ts_ns, cpu_id, kind, **detail):
        recorded.append(kind)
        return record(self, ts_ns, cpu_id, kind, **detail)

    def counting_span_init(self, span_id, request_id, parent_id, name,
                           *args):
        built.append(name)
        span_init(self, span_id, request_id, parent_id, name, *args)

    def counting_end_root(self, span, parts):
        ended.append(span.channel)
        return end_root(self, span, parts)

    def counting_vm_begin(self, request):
        vm_trees.append(request)
        return vm_begin(self, request)

    def recording_enable(self, *args, **kwargs):
        trackers.append(self)
        return enable(self, *args, **kwargs)

    def counting_attribute(self, *args):
        attributed.append(self)
        return attribute(self, *args)

    def counting_observe(self, event):
        observed.append(event.kind)
        return tracker_observe(self, event)

    monkeypatch.setattr(SpanTracker, "enable", recording_enable)
    monkeypatch.setattr(SpanTracker, "attribute", counting_attribute)
    monkeypatch.setattr(SpanTracker, "observe", counting_observe)
    monkeypatch.setattr(Tracer, "record", counting_record)
    monkeypatch.setattr(Span, "__init__", counting_span_init)
    monkeypatch.setattr(SpanTracker, "end_root", counting_end_root)
    monkeypatch.setattr(SpanTracker, "vm_begin", counting_vm_begin)

    lean = _taichi_soak()
    (tracker,) = trackers
    completed = lean["spans"]["completed"]
    assert len(tracker.env.tracer) == 0 and tracker.env.tracer.dropped == 0
    assert 0 < len(attributed) < 0.01 * completed
    lean_observed = list(observed)
    assert lean_observed and set(lean_observed) <= _HANDLED_KINDS
    # The per-kind gate: no site calls record for a kind nobody reads,
    # and thread stints reach the tracker from the executor instead.
    assert recorded and set(recorded) <= _HANDLED_KINDS
    assert recorded.count("sched_in") == recorded.count("sched_out") == 0
    # Unread DP roots: a Span only for a root that enters the reservoir;
    # a VM tree is a root and three phase children.
    assert 0 < built.count("dp_request") == ended.count("dp")
    assert len(built) <= ended.count("dp") + 4 * len(vm_trees)

    attributed.clear()
    observed.clear()
    with observe(trace=True):
        traced = _taichi_soak()
    assert len(attributed) >= completed
    # One observe call per handled-kind event: the same handled events
    # as the traced soak, none of the others it hands over.
    handled = [kind for kind in observed if kind in _HANDLED_KINDS]
    assert lean_observed == handled
    assert len(observed) > len(handled)
    assert json.dumps(traced, sort_keys=True) == \
        json.dumps(lean, sort_keys=True)


def test_spans_only_soak_with_vm_startups_matches_traced(monkeypatch):
    """VMs start inside the window, so the watched-CP-thread path the
    executor feeds (provisioning-thread stints) is exercised: the
    spans-only summary, VM exemplars included, equals a traced one."""
    vm_trees = []
    vm_begin = SpanTracker.vm_begin

    def counting_vm_begin(self, request):
        vm_trees.append(request.vm_id)
        return vm_begin(self, request)

    monkeypatch.setattr(SpanTracker, "vm_begin", counting_vm_begin)
    workload = {"vm_period_ms": 25}
    lean = _taichi_soak(workload, duration_ms=100)
    assert vm_trees and lean["vms_started"] > 0
    records = lean["exemplars"]["vm"]
    assert records
    for record in records:
        _assert_exact(record)
        # Thread-running time is known only from the fed stints.
        assert record["segments"].get("cp_execute", 0) > 0
    with observe(trace=True):
        traced = _taichi_soak(workload, duration_ms=100)
    assert json.dumps(traced, sort_keys=True) == \
        json.dumps(lean, sort_keys=True)


def test_format_critical_path_empty_capture():
    assert "no spans" in format_critical_path({})


def test_bench_span_disabled_does_no_work():
    """The within-5%-when-disabled gate, asserted structurally.

    Two identical spans-off arms differ only by machine jitter (observed
    up to ~6% on shared runners), so a wall-clock delta gate flakes
    without measuring the code.  Instead prove the disabled path does
    zero per-event work: no tracer hook is registered, and after a real
    DP run under load the tracker holds no spans, no attribution
    intervals, and no exemplars — the only footprint is the
    unconditional per-service thread registration.
    """
    from repro.workloads.background import start_dp_background

    scenario = Scenario(arm="taichi")
    deployment = scenario.build(seed=0)
    env = deployment.env
    assert env.spans.enabled is False
    assert env.spans.observe not in env.tracer.hooks

    start_dp_background(deployment, utilization=0.4,
                        duration_ns=20 * MILLISECONDS)
    env.run(until=25 * MILLISECONDS)

    assert env.now > 0
    assert env.spans.enabled is False
    assert env.spans.observe not in env.tracer.hooks
    assert env.spans.roots_completed == 0
    assert env.spans.open_spans() == 0
    assert env.spans.reservoirs == {}
    assert env.spans.exemplars() == {}
    assert env.spans._cpu_iv == {}
    assert env.spans._tree == {}
    assert env.spans._request_seq == 0
    # DP services register their poller thread unconditionally so spans
    # may be enabled mid-run; that set is the disabled path's only state.
    assert env.spans._dp_threads
