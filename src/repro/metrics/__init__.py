"""Measurement utilities: streaming stats, percentiles, histograms, CDFs."""

from repro.metrics.stats import (
    Cdf,
    Histogram,
    LatencyRecorder,
    RateMeter,
    WelfordStats,
    attainment_pct,
    overhead_pct,
    percentile,
    percentiles,
    ratio,
    summarize,
)
from repro.metrics.schedviz import occupancy_spans, render_gantt
from repro.metrics.sketch import (
    CounterSample,
    GaugeSample,
    QuantileSketch,
    is_sketch_dict,
    merge_sketch_dicts,
)
from repro.metrics.timeline import TimelineEvent

__all__ = [
    "occupancy_spans",
    "render_gantt",
    "Cdf",
    "CounterSample",
    "GaugeSample",
    "QuantileSketch",
    "is_sketch_dict",
    "merge_sketch_dicts",
    "Histogram",
    "LatencyRecorder",
    "RateMeter",
    "TimelineEvent",
    "WelfordStats",
    "attainment_pct",
    "overhead_pct",
    "percentile",
    "percentiles",
    "ratio",
    "summarize",
]
