"""Tests for the metrics registry."""

from repro.obs import MetricsRegistry, format_metrics


def test_counter_get_or_create_and_inc():
    registry = MetricsRegistry()
    counter = registry.counter("dp.idle_yields")
    counter.inc()
    counter.inc(4)
    assert registry.counter("dp.idle_yields") is counter
    assert registry.snapshot()["counters"]["dp.idle_yields"] == 5


def test_sources_collected_lazily_and_deduped():
    registry = MetricsRegistry()
    calls = []

    def source():
        calls.append(1)
        return {"steals": 3}

    assert registry.add_source("kernel.os", source) == "kernel.os"
    assert registry.add_source("kernel.os", source) == "kernel.os#2"
    assert calls == []  # nothing collected yet
    snap = registry.snapshot()
    assert snap["sources"]["kernel.os"] == {"steals": 3}
    assert snap["sources"]["kernel.os#2"] == {"steals": 3}
    assert len(calls) == 2


def test_format_metrics_includes_instruments_and_engine_sources():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.add_source("sim.engine", lambda: {"events_processed": 9})
    registry.add_source("kernel.os", lambda: {"steals": 1})
    text = format_metrics(registry.snapshot())
    assert "c: 2" in text
    assert "sim.engine.events_processed: 9" in text
    assert "steals" not in text  # non-engine sources stay out of the summary
