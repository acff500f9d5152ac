"""SLO alerting: hysteresis, paired trace events, scenario round-trip."""

import pytest

from repro.obs.alerts import (
    DEFAULT_ALERT_RULES,
    AlertRule,
    SLOMonitor,
    normalize_alert_rules,
)
from repro.obs.invariants import AlertPairingChecker
from repro.obs import check_events
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import TelemetryBus
from repro.obs.tracer import Tracer


def _driven_monitor(rules, signal="probe_health", tracer=None):
    """A bus + monitor whose single gauge the test controls directly."""
    bus = TelemetryBus(registry=MetricsRegistry(), interval_ns=1_000)
    monitor = bus.subscribe(SLOMonitor(rules=rules, tracer=tracer))
    state = {"value": 1.0}
    bus.add_gauge(signal, lambda: state["value"])
    return bus, monitor, state


# -- rule schema ---------------------------------------------------------------


def test_rule_validation():
    with pytest.raises(ValueError, match="op"):
        AlertRule(name="r", signal="s", threshold=1.0, op="between")
    with pytest.raises(ValueError, match="hold"):
        AlertRule(name="r", signal="s", threshold=1.0, hold=0)
    with pytest.raises(ValueError, match="severity"):
        AlertRule(name="r", signal="s", threshold=1.0, severity="loud")
    with pytest.raises(ValueError, match="unknown keys"):
        AlertRule.from_dict({"name": "r", "signal": "s", "threshold": 1.0,
                             "window": 5})
    with pytest.raises(ValueError, match=r"alert rule 'r': missing required "
                       r"fields \['signal', 'threshold'\]"):
        AlertRule.from_dict({"name": "r"})
    with pytest.raises(ValueError, match="duplicate"):
        normalize_alert_rules([
            {"name": "r", "signal": "a", "threshold": 1.0},
            {"name": "r", "signal": "b", "threshold": 2.0},
        ])


def test_rule_dict_round_trip_is_sparse():
    rule = AlertRule(name="p99_high", signal="dp_rx_wait_us_p99",
                     threshold=300.0, severity="critical", min_count=8)
    data = rule.to_dict()
    assert "op" not in data and "hold" not in data  # defaults omitted
    assert data["severity"] == "critical"
    assert AlertRule.from_dict(data) == rule


def test_count_signal_derivation():
    assert AlertRule(name="r", signal="dp_rx_wait_us_p99",
                     threshold=1.0).count_signal() == "dp_rx_wait_us_count"
    assert AlertRule(name="r", signal="lat_p99.9",
                     threshold=1.0).count_signal() == "lat_count"
    assert AlertRule(name="r", signal="lat_mean",
                     threshold=1.0).count_signal() == "lat_count"
    assert AlertRule(name="r", signal="probe_health",
                     threshold=1.0).count_signal() is None


# -- hysteresis ----------------------------------------------------------------


def test_alert_needs_hold_consecutive_breaches():
    rules = [AlertRule(name="degraded", signal="probe_health",
                       threshold=1.0, op="lt", hold=2, clear_hold=2)]
    bus, monitor, state = _driven_monitor(rules)
    state["value"] = 0.0
    bus.tick(1_000)
    assert monitor.active == {}        # one breach < hold
    state["value"] = 1.0
    bus.tick(2_000)                    # healthy interval resets the streak
    state["value"] = 0.0
    bus.tick(3_000)
    assert monitor.active == {}
    bus.tick(4_000)                    # second consecutive breach
    assert "degraded" in monitor.active
    assert monitor.raised_total == 1


def test_alert_clears_after_clear_hold_and_tracks_peak():
    rules = [AlertRule(name="hot", signal="load", threshold=10.0,
                       hold=1, clear_hold=2)]
    bus, monitor, state = _driven_monitor(rules, signal="load")
    state["value"] = 15.0
    bus.tick(1_000)
    assert "hot" in monitor.active
    state["value"] = 40.0
    bus.tick(2_000)                    # deeper breach updates peak
    state["value"] = 5.0
    bus.tick(3_000)
    assert "hot" in monitor.active     # one healthy interval < clear_hold
    bus.tick(4_000)
    assert monitor.active == {}
    assert monitor.cleared_total == 1
    closed = monitor.history[0]
    assert closed["peak"] == 40.0
    assert closed["duration_ns"] == 3_000
    assert closed["raised_ns"] == 1_000


def test_missing_signal_freezes_streaks():
    rules = [AlertRule(name="hot", signal="absent", threshold=1.0, hold=2)]
    bus = TelemetryBus(registry=MetricsRegistry(), interval_ns=1_000)
    monitor = bus.subscribe(SLOMonitor(rules=rules))
    for index in range(5):
        bus.tick((index + 1) * 1_000)
    assert monitor.active == {}
    assert monitor.raised_total == 0


def test_min_count_guards_sparse_sketch_intervals():
    rules = [AlertRule(name="p99_high", signal="lat_p99", threshold=100.0,
                       hold=1, min_count=4)]
    bus = TelemetryBus(registry=MetricsRegistry(), interval_ns=1_000)
    monitor = bus.subscribe(SLOMonitor(rules=rules))
    bus.observe("lat", 500.0)          # one sample breaching hard
    bus.tick(1_000)
    assert monitor.active == {}        # suppressed: count 1 < min_count 4
    for _ in range(4):
        bus.observe("lat", 500.0)
    bus.tick(2_000)
    assert "p99_high" in monitor.active


def test_snapshot_carries_active_alert_names():
    rules = [AlertRule(name="degraded", signal="probe_health",
                       threshold=1.0, op="lt", hold=1)]
    bus, monitor, state = _driven_monitor(rules)
    state["value"] = 0.0
    snapshot = bus.tick(1_000)
    assert snapshot.alerts == ["degraded"]


# -- paired trace events -------------------------------------------------------


def test_transitions_emit_paired_events_passing_invariants():
    tracer = Tracer(enabled=True)
    rules = [AlertRule(name="degraded", signal="probe_health",
                       threshold=1.0, op="lt", hold=1, clear_hold=1)]
    bus, monitor, state = _driven_monitor(rules, tracer=tracer)
    state["value"] = 0.0
    bus.tick(1_000)
    state["value"] = 1.0
    bus.tick(2_000)

    kinds = [event.kind for event in tracer.events]
    assert kinds == ["alert.raised", "alert.cleared"]
    raised, cleared = tracer.events
    assert raised.cpu_id == "-"
    assert raised.detail["alert"] == "degraded"
    assert raised.detail["node"] == "node"
    assert cleared.detail["duration_ns"] == 1_000
    assert check_events(tracer.events,
                        checkers=[AlertPairingChecker()]) == []


def test_pairing_checker_flags_corrupted_streams():
    tracer = Tracer(enabled=True)
    tracer.record(0, "-", "alert.raised", alert="a", node="n0")
    tracer.record(10, "-", "alert.raised", alert="a", node="n0")
    double = check_events(tracer.events, checkers=[AlertPairingChecker()])
    assert len(double) == 1
    assert "raised twice" in double[0].message

    orphan = Tracer(enabled=True)
    orphan.record(0, "-", "alert.cleared", alert="ghost", node="n0")
    violations = check_events(orphan.events,
                              checkers=[AlertPairingChecker()])
    assert len(violations) == 1
    assert "never raised" in violations[0].message


def test_alert_active_at_stream_end_is_legal():
    tracer = Tracer(enabled=True)
    tracer.record(0, "-", "alert.raised", alert="a", node="n0")
    assert check_events(tracer.events,
                        checkers=[AlertPairingChecker()]) == []


def test_same_alert_name_on_two_nodes_is_independent():
    tracer = Tracer(enabled=True)
    tracer.record(0, "-", "alert.raised", alert="a", node="n0")
    tracer.record(5, "-", "alert.raised", alert="a", node="n1")
    tracer.record(10, "-", "alert.cleared", alert="a", node="n0")
    assert check_events(tracer.events,
                        checkers=[AlertPairingChecker()]) == []


# -- scenario + soak integration -----------------------------------------------


def test_faulted_soak_raises_and_clears_probe_alert():
    from repro.scenario.soak import run_soak
    from repro.scenario.spec import Scenario
    from repro.sim.units import MILLISECONDS

    scenario = Scenario(
        arm="taichi", faults="probe_outage", degradation=True,
        alerts=[{"name": "probe_degraded", "signal": "probe_health",
                 "threshold": 1.0, "op": "lt", "hold": 1,
                 "severity": "critical"}])
    summary = run_soak(scenario, seed=3, duration_ns=120 * MILLISECONDS,
                       drain_ns=20 * MILLISECONDS)
    alerts = summary["telemetry"]["alerts"]
    assert alerts["raised"] >= 1
    # The outage window ends inside the run, so the alert pairs up.
    assert alerts["cleared"] >= 1
    assert alerts["history"][0]["alert"] == "probe_degraded"
    assert alerts["history"][0]["duration_ns"] > 0


def test_default_rules_cover_paper_slos():
    names = {rule.name for rule in DEFAULT_ALERT_RULES}
    assert names == {"dp_rx_wait_p99_high", "startup_slo_attainment_low",
                     "probe_degraded"}
    monitor = SLOMonitor()          # defaults apply when rules omitted
    assert len(monitor.rules) == 3


# -- exemplar linkage + end-of-run closure -------------------------------------


class _FakeExemplars:
    def worst_ids(self, channel):
        return {"dp": ["pkt-7", "pkt-3"], "vm": ["vm2"]}.get(channel, [])


def test_channel_for_signal_mapping():
    from repro.obs.alerts import channel_for_signal

    assert channel_for_signal("dp_rx_wait_us_p99") == "dp"
    assert channel_for_signal("startup_slo_attainment_pct") == "vm"
    assert channel_for_signal("vm_startup_ms_p99") == "vm"
    assert channel_for_signal("probe_health") is None


def test_raised_alert_references_worst_exemplars():
    tracer = Tracer(enabled=True)
    rules = [AlertRule(name="p99_high", signal="dp_rx_wait_us_p99",
                       threshold=100.0, hold=1)]
    bus = TelemetryBus(registry=MetricsRegistry(), interval_ns=1_000)
    monitor = bus.subscribe(SLOMonitor(
        rules=rules, tracer=tracer, exemplar_provider=_FakeExemplars()))
    for _ in range(8):
        bus.observe("dp_rx_wait_us", 500.0)
    bus.tick(1_000)
    assert "p99_high" in monitor.active
    (raised,) = tracer.events
    assert raised.detail["exemplars"] == ["pkt-7", "pkt-3"]


def test_raised_alert_without_channel_has_no_exemplars():
    tracer = Tracer(enabled=True)
    rules = [AlertRule(name="degraded", signal="probe_health",
                       threshold=1.0, op="lt", hold=1)]
    bus, monitor, state = _driven_monitor(rules, tracer=tracer)
    monitor.exemplar_provider = _FakeExemplars()
    state["value"] = 0.0
    bus.tick(1_000)
    (raised,) = tracer.events
    assert "exemplars" not in raised.detail


def test_finish_emits_synthetic_clears_for_open_alerts():
    tracer = Tracer(enabled=True)
    rules = [AlertRule(name="degraded", signal="probe_health",
                       threshold=1.0, op="lt", hold=1)]
    bus, monitor, state = _driven_monitor(rules, tracer=tracer)
    state["value"] = 0.0
    bus.tick(1_000)
    assert "degraded" in monitor.active

    monitor.finish(now_ns=5_000)
    monitor.finish(now_ns=9_000)       # idempotent: no second clear
    kinds = [event.kind for event in tracer.events]
    assert kinds == ["alert.raised", "alert.cleared"]
    cleared = tracer.events[-1]
    assert cleared.detail["end_of_run"] is True
    assert cleared.detail["duration_ns"] == 4_000
    assert cleared.ts_ns == 5_000
    # The trace stream pairs up, but the summary still reports the
    # incident as open.
    assert check_events(tracer.events,
                        checkers=[AlertPairingChecker()]) == []
    assert monitor.summary()["active"] == ["degraded"]
    assert monitor.cleared_total == 0
    assert monitor.end_of_run_cleared == 1


def test_bus_close_finishes_subscribed_monitor():
    tracer = Tracer(enabled=True)
    rules = [AlertRule(name="degraded", signal="probe_health",
                       threshold=1.0, op="lt", hold=1)]
    bus, monitor, state = _driven_monitor(rules, tracer=tracer)
    state["value"] = 0.0
    bus.tick(1_000)
    bus.close(2_000)
    kinds = [event.kind for event in tracer.events]
    assert kinds.count("alert.cleared") == 1
    assert tracer.events[-1].detail["end_of_run"] is True
