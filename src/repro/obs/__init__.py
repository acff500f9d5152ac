"""``repro.obs`` — the unified observability spine.

A central :class:`Tracer` (structured, named events with a near-zero-
overhead disable gate) plus a :class:`MetricsRegistry` (counters and
lazily collected *sources*), threaded through
:class:`~repro.sim.environment.Environment` so every subsystem emits
through one spine.  Exporters turn captures into Chrome trace-event JSON
(Perfetto-loadable), JSONL streams, or text summaries.

Typical use from the experiments harness::

    from repro.obs import observe, write_chrome_trace, write_metrics_json

    with observe(trace=True) as session:
        result = run_experiment("fig4")
    write_chrome_trace("out.json", session.streams)
    write_metrics_json("metrics.json", session.metrics)

See ``docs/observability.md`` for the event taxonomy and formats.
"""

from repro.obs.alerts import (
    DEFAULT_ALERT_RULES,
    AlertRule,
    SLOMonitor,
    normalize_alert_rules,
)
from repro.obs.analysis import (
    InvariantEngine,
    analyze_capture,
    analyze_events,
    analyze_streams,
    check_events,
    format_analysis,
    load_jsonl,
    write_analysis_json,
)
from repro.obs.export import (
    chrome_trace,
    format_metrics,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.invariants import Violation, default_checkers
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.session import ObservabilitySession, current, observe
from repro.obs.spans import (
    ExemplarReservoir,
    SpanTracker,
    build_span_trees,
    critical_path_report,
    format_critical_path,
    format_waterfall,
)
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
from repro.obs.tracer import Tracer

__all__ = [
    "AlertRule",
    "Counter",
    "DEFAULT_ALERT_RULES",
    "ExemplarReservoir",
    "InvariantEngine",
    "MetricsRegistry",
    "ObservabilitySession",
    "RingSeries",
    "SLOMonitor",
    "SpanTracker",
    "TelemetryBus",
    "TelemetryConfig",
    "TelemetryJsonlWriter",
    "TelemetrySnapshot",
    "Tracer",
    "Violation",
    "analyze_capture",
    "analyze_events",
    "analyze_streams",
    "build_span_trees",
    "check_events",
    "chrome_trace",
    "critical_path_report",
    "current",
    "default_checkers",
    "format_analysis",
    "format_critical_path",
    "format_metrics",
    "format_waterfall",
    "load_jsonl",
    "load_telemetry_jsonl",
    "normalize_alert_rules",
    "observe",
    "openmetrics_text",
    "parse_openmetrics",
    "snapshot_openmetrics",
    "write_analysis_json",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
]
