"""Observer-cost gates: exact call counts, not wall-clock ratios.

The tracer, the span tracker, the telemetry bus and the tenancy manager
must cost the data path nothing when off, and a countable amount when
on.  A wall-clock ratio of two short soaks mostly measures host noise,
so these gates wrap each observer's entry points in call counters and
assert exact counts on a 60 + 20 ms ``taichi`` soak at seed 0.  The
span gate, ``test_spans_only_soak_pays_for_what_it_keeps``, lives with
the span tests in ``tests/obs/test_spans.py``; that observers leave the
simulated results unchanged is the observers and telemetry relations of
``tests/integration/test_contracts.py``.  Host time is measured only by
``bench/``.
"""

from contextlib import ExitStack
from unittest import mock

import pytest

from repro.core.vcpu_scheduler import VCPUScheduler
from repro.obs.spans import SpanTracker
from repro.obs.telemetry import SketchChannel, TelemetryBus, TelemetryConfig
from repro.obs.tracer import Tracer
from repro.scenario import Scenario, run_soak
from repro.sim.units import MILLISECONDS
from repro.tenancy.manager import TenancyManager
from repro.virt.grant import BackingGrant

#: Observer entry points: a soak with every observer off calls none.
OBSERVERS = (
    (Tracer, "record"), (SpanTracker, "observe"), (SpanTracker, "attribute"),
    (SpanTracker, "sched_in"), (SpanTracker, "sched_out"),
    (TelemetryBus, "tick"), (SketchChannel, "observe"),
    (TenancyManager, "may_back"), (TenancyManager, "choose"),
    (TenancyManager, "note_grant"), (TenancyManager, "tenant_of_cpu"),
    (TenancyManager, "tenant_of_vcpu"),
)
#: Scheduler landmarks the tenancy counts are held against: a slice
#: handler entry per candidate slice, one end resolution per slice run.
LANDMARKS = ((VCPUScheduler, "_slice_handler"),
             (BackingGrant, "resolve_end_reason"))

DURATION_MS, DRAIN_MS = 60, 20


def soak(scenario=None, **kwargs):
    """One 60 + 20 ms soak at seed 0 with every entry point counted.

    Returns ``(summary, calls)``; ``calls`` maps ``"Class.method"`` to
    how many times it ran.
    """
    with ExitStack() as stack:
        mocks = {
            f"{owner.__name__}.{name}": stack.enter_context(
                mock.patch.object(owner, name, autospec=True,
                                  side_effect=getattr(owner, name)))
            for owner, name in OBSERVERS + LANDMARKS
        }
        summary = run_soak(scenario or Scenario(arm="taichi"), seed=0,
                           duration_ns=DURATION_MS * MILLISECONDS,
                           drain_ns=DRAIN_MS * MILLISECONDS,
                           label="observer-cost", **kwargs)
    return summary, {name: m.call_count for name, m in mocks.items()}


def called(calls, owner):
    """The entry points of ``owner`` that ran, with their counts."""
    return {name: n for name, n in calls.items()
            if n and name.startswith(f"{owner.__name__}.")}


@pytest.fixture(scope="module")
def plain():
    return soak()


def test_plain_soak_calls_no_observer(plain):
    summary, calls = plain
    assert summary["dp_sample_count"] > 0
    assert "telemetry" not in summary and "tenants" not in summary
    for owner in (Tracer, SpanTracker, TelemetryBus, SketchChannel,
                  TenancyManager):
        assert called(calls, owner) == {}


def test_telemetry_ticks_once_per_interval(plain):
    plain_summary, _ = plain
    interval_ms = 10
    summary, calls = soak(telemetry=TelemetryConfig(interval_ms=interval_ms))
    intervals = (DURATION_MS + DRAIN_MS) // interval_ms
    assert summary["telemetry"]["intervals"] == intervals
    assert calls["TelemetryBus.tick"] == intervals
    # One sketch insert per probe sample or VM startup, and no other.
    samples = summary["dp_sample_count"] + len(summary["startup_samples_ms"])
    assert samples > 0
    assert calls["SketchChannel.observe"] == samples
    # The bus adds its interval timer to the engine, nothing else.
    events = plain_summary["engine"]["events_processed"]
    assert events <= summary["engine"]["events_processed"] \
        <= events + intervals + 1
    assert called(calls, Tracer) == {}


def test_tenancy_accounts_each_slice_once():
    summary, calls = soak(Scenario(arm="taichi",
                                   tenants=[{"tenant_id": "sole"}]))
    sole = summary["tenants"]["sole"]
    # The soak must donate slices, or every count below holds vacuously.
    assert sole["grants"] > 0 and sole["granted_ns"] > 0
    assert sole["granted_ns"] == summary["tenancy"]["total_granted_ns"]
    slices_run = calls["BackingGrant.resolve_end_reason"]
    assert calls["TenancyManager.note_grant"] == slices_run == sole["grants"]
    assert 0 < calls["TenancyManager.choose"] \
        <= calls["VCPUScheduler._slice_handler"]
    assert called(calls, Tracer) == {}
