"""TelemetryBus: interval snapshots, subscribers, exporters, soak wiring."""

import json

import pytest

from repro.metrics.sketch import QuantileSketch
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import (
    RingSeries,
    TelemetryBus,
    TelemetryConfig,
    TelemetryJsonlWriter,
    TelemetrySnapshot,
    load_telemetry_jsonl,
    openmetrics_text,
    parse_openmetrics,
    snapshot_openmetrics,
)


def _bus(**kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("interval_ns", 10_000_000)
    return TelemetryBus(**kwargs)


# -- tick mechanics ------------------------------------------------------------


def test_tick_emits_counter_deltas():
    bus = _bus()
    counter = bus.registry.counter("dp.idle_yields")
    counter.inc(5)
    first = bus.tick(10_000_000)
    assert first.counters["dp.idle_yields"].total == 5
    assert first.counters["dp.idle_yields"].delta == 5
    counter.inc(2)
    second = bus.tick(20_000_000)
    assert second.counters["dp.idle_yields"].total == 7
    assert second.counters["dp.idle_yields"].delta == 2
    assert second.seq == 1
    assert (second.t_start_ns, second.t_end_ns) == (10_000_000, 20_000_000)


def test_sketch_channels_drain_interval_deltas_keep_cumulative():
    bus = _bus()
    bus.observe("dp_rx_wait_us", 100.0)
    bus.observe("dp_rx_wait_us", 200.0)
    first = bus.tick(10_000_000)
    assert first.sketches["dp_rx_wait_us"].count == 2
    bus.observe("dp_rx_wait_us", 300.0)
    second = bus.tick(20_000_000)
    assert second.sketches["dp_rx_wait_us"].count == 1
    assert bus.channel("dp_rx_wait_us").cumulative.count == 3


def test_gauge_fns_sampled_every_tick():
    bus = _bus()
    state = {"depth": 3}
    bus.add_gauge("rq_depth", lambda: state["depth"])
    assert bus.tick(1).gauges["rq_depth"].value == 3
    state["depth"] = 9
    assert bus.tick(2).gauges["rq_depth"].value == 9


def test_collectors_run_before_sampling():
    bus = _bus()
    bus.add_collector(lambda now: bus.observe("lat", 50.0))
    snapshot = bus.tick(1)
    assert snapshot.sketches["lat"].count == 1


def test_subscribers_run_in_subscription_order():
    bus = _bus()
    order = []
    bus.subscribe(lambda snap: order.append("first"))

    class Sub:
        def on_snapshot(self, snap):
            order.append("second")

    bus.subscribe(Sub())
    bus.tick(1)
    assert order == ["first", "second"]
    with pytest.raises(TypeError, match="subscriber"):
        bus.subscribe(42)


def test_close_emits_final_partial_interval_once():
    bus = _bus()
    ring = bus.subscribe(RingSeries())
    bus.tick(10_000_000)
    bus.observe("lat", 1.0)
    bus.close(15_000_000)
    bus.close(15_000_000)  # idempotent
    assert len(ring) == 2
    assert ring.last().t_end_ns == 15_000_000


def test_signals_flatten_namespace():
    bus = _bus()
    bus.registry.counter("kernel.steals").inc(4)
    bus.add_gauge("probe_health", lambda: 1.0)
    bus.observe("dp_rx_wait_us", 100.0)
    signals = bus.tick(1).signals()
    assert signals["kernel.steals_delta"] == 4
    assert signals["kernel.steals_total"] == 4
    assert signals["probe_health"] == 1.0
    assert signals["dp_rx_wait_us_count"] == 1
    assert signals["dp_rx_wait_us_p99"] == pytest.approx(100.0, rel=0.02)


def test_snapshot_dict_round_trip():
    bus = _bus(node_id="n3")
    bus.registry.counter("c").inc()
    bus.add_gauge("g", lambda: 2.5)
    bus.observe("lat", 10.0)
    snapshot = bus.tick(5_000_000)
    restored = TelemetrySnapshot.from_dict(
        json.loads(json.dumps(snapshot.to_dict())))
    assert restored.to_dict() == snapshot.to_dict()
    assert restored.node_id == "n3"
    assert isinstance(restored.sketches["lat"], QuantileSketch)


def test_config_validation():
    with pytest.raises(ValueError, match="interval_ms"):
        TelemetryConfig(interval_ms=0)
    with pytest.raises(ValueError, match="interval_ns"):
        TelemetryBus(interval_ns=0)


# -- subscribers ---------------------------------------------------------------


def test_ring_series_drops_oldest_and_counts():
    bus = _bus()
    ring = bus.subscribe(RingSeries(cap=3))
    for index in range(5):
        bus.tick((index + 1) * 1_000)
    assert len(ring) == 3
    assert ring.total == 5
    assert ring.dropped == 2
    assert [snap.seq for snap in ring] == [2, 3, 4]


def test_ring_series_signal_extraction():
    bus = _bus()
    ring = bus.subscribe(RingSeries())
    state = {"v": 1.0}
    bus.add_gauge("g", lambda: state["v"])
    bus.tick(1_000)
    state["v"] = 2.0
    bus.tick(2_000)
    assert ring.series("g") == [(1_000, 1.0), (2_000, 2.0)]


def test_jsonl_writer_head_meta_and_round_trip(tmp_path):
    path = str(tmp_path / "node.telemetry.jsonl")
    bus = _bus(node_id="n0")
    bus.subscribe(TelemetryJsonlWriter(path, node_id="n0"))
    bus.registry.counter("c").inc(3)
    bus.observe("lat", 25.0)
    bus.tick(10_000_000)
    bus.close(20_000_000)

    with open(path) as handle:
        head = json.loads(handle.readline())
    assert head["kind"] == "telemetry_meta"
    assert head["args"]["snapshots"] == 2
    assert head["args"]["dropped"] == 0
    assert head["args"]["stream_type"] == "telemetry"

    node_id, snapshots, meta = load_telemetry_jsonl(path)
    assert node_id == "n0"
    assert len(snapshots) == 2
    assert snapshots[0].counters["c"].delta == 3
    assert meta["snapshots"] == 2


def test_jsonl_writer_ring_cap_counts_drops(tmp_path):
    path = str(tmp_path / "t.jsonl")
    writer = TelemetryJsonlWriter(path, cap=2)
    bus = _bus()
    bus.subscribe(writer)
    for index in range(5):
        bus.tick((index + 1) * 1_000)
    writer.finish()
    _, snapshots, meta = load_telemetry_jsonl(path)
    assert meta["dropped"] == 3
    assert [snap.seq for snap in snapshots] == [3, 4]


def test_analyze_warns_on_truncated_telemetry(tmp_path):
    from repro.obs.analysis import analyze_capture

    path = str(tmp_path / "t.jsonl")
    writer = TelemetryJsonlWriter(path, cap=2)
    bus = _bus()
    bus.subscribe(writer)
    for index in range(4):
        bus.tick((index + 1) * 1_000)
    writer.finish()
    analysis = analyze_capture(path)
    assert any("telemetry snapshots" in warning
               for warning in analysis["warnings"])
    assert not analysis["violations"]


# -- OpenMetrics ---------------------------------------------------------------


def test_openmetrics_text_families_and_eof():
    sketch = QuantileSketch().extend([10.0, 20.0, 30.0])
    text = openmetrics_text(
        counters={"dp.idle_yields": 12},
        gauges={"rq_depth": 4},
        sketches={"dp_rx_wait_us": sketch},
        labels={"node": "n0"},
    )
    assert text.endswith("# EOF\n")
    assert "# TYPE taichi_dp_idle_yields_total counter" in text
    assert 'taichi_dp_idle_yields_total{node="n0"} 12' in text
    assert "# TYPE taichi_rq_depth gauge" in text
    assert "# TYPE taichi_dp_rx_wait_us summary" in text
    assert 'quantile="0.99"' in text
    assert 'taichi_dp_rx_wait_us_count{node="n0"} 3' in text

    samples = parse_openmetrics(text)
    assert samples["taichi_dp_idle_yields_total"] == [({"node": "n0"}, 12.0)]
    quantiles = {labels["quantile"]: value
                 for labels, value in samples["taichi_dp_rx_wait_us"]}
    assert set(quantiles) == {"0.5", "0.9", "0.99"}


def test_parse_openmetrics_rejects_malformed():
    with pytest.raises(ValueError, match="EOF"):
        parse_openmetrics("taichi_x 1\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_openmetrics("not a metric line at all!\n# EOF")


def test_snapshot_openmetrics_uses_totals():
    bus = _bus(node_id="n1")
    counter = bus.registry.counter("c")
    counter.inc(5)
    bus.tick(1_000)
    counter.inc(1)
    snapshot = bus.tick(2_000)
    samples = parse_openmetrics(snapshot_openmetrics(snapshot))
    assert samples["taichi_c_total"] == [({"node": "n1"}, 6.0)]


# -- soak integration ----------------------------------------------------------


def test_soak_ships_sketches_matching_samples():
    from repro.metrics.sketch import QuantileSketch
    from repro.scenario.soak import run_soak
    from repro.scenario.spec import Scenario
    from repro.sim.units import MILLISECONDS

    summary = run_soak(Scenario(arm="taichi"), seed=4,
                       duration_ns=40 * MILLISECONDS,
                       drain_ns=20 * MILLISECONDS)
    sketch = QuantileSketch.from_dict(summary["dp_sketch"])
    assert sketch.count == summary["dp_slo_total"]
    exact = summary["dp_latency_us"]
    # Same distribution within the sketch's error bound (both sides see
    # every sample at this size — under the reservoir cap).
    assert sketch.percentile(50) == pytest.approx(exact["p50"], rel=0.05)
    startup = QuantileSketch.from_dict(summary["startup_sketch"])
    assert startup.count == summary["vms_started"]
