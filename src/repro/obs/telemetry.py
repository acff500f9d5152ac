"""Streaming telemetry: interval snapshots over the metrics spine.

PRs 1-2 made observability *post-hoc*: counters and raw sample arrays
are harvested once at end-of-run.  That shape collapses at fleet scale
(shipping every sample) and gives nothing for a control plane to
subscribe to.  This module is the streaming layer on top of the same
spine:

* a :class:`TelemetryBus` owns per-signal sketch *channels*
  (:class:`~repro.metrics.sketch.QuantileSketch`), gauge callbacks, and
  the counter baseline; a sim-time sampling process calls :meth:`tick`
  every interval;
* each tick produces one :class:`TelemetrySnapshot` — counter deltas,
  gauge readings, and *sketch deltas* (the interval's sketch, reset
  after emission) — and fans it out to subscribers in subscription
  order;
* subscribers are plain callables or objects with ``on_snapshot``:
  :class:`RingSeries` (bounded in-memory series),
  :class:`TelemetryJsonlWriter` (JSONL time-series with the
  ``trace_meta``-style drop-accounting head line), the OpenMetrics text
  exporter (:func:`openmetrics_text`), and
  :class:`~repro.obs.alerts.SLOMonitor`.

Every snapshot is O(1) in sample count: a node that served a million
requests in an interval ships the same few hundred bytes as a node that
served ten.  Cumulative channel sketches (``channel.cumulative``) are
what fleet summaries ship instead of raw sample arrays.

Determinism: ticks run on simulated time, counter/gauge reads never
invoke registry sources (no wall-clock), and sketch serialization is
byte-stable — a telemetry capture is a pure function of (scenario,
seed, interval).
"""

import json
import re
from collections import deque
from dataclasses import dataclass

from repro.metrics.sketch import (
    CounterSample,
    DEFAULT_ALPHA,
    GaugeSample,
    QuantileSketch,
)
from repro.sim.units import MILLISECONDS


#: Snapshots a driver's in-memory :class:`RingSeries` keeps.
RING_CAP = 512

#: Snapshot lines a driver's :class:`TelemetryJsonlWriter` writes.
JSONL_CAP = 100_000


@dataclass
class TelemetryConfig:
    """Driver-facing telemetry knobs (run_soak / fleet payloads).

    ``jsonl_path`` enables the JSONL series writer; ``alerts`` (AlertRule
    list or dicts) arms an :class:`~repro.obs.alerts.SLOMonitor` on the
    bus.
    """

    interval_ms: float = 10.0
    jsonl_path: str = None
    node_id: str = "node"
    alerts: list = None

    def __post_init__(self):
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")

    @property
    def interval_ns(self):
        return int(self.interval_ms * MILLISECONDS)


class TelemetrySnapshot:
    """One emitted interval: counter deltas, gauges, sketch deltas.

    ``alerts`` is filled in by an :class:`~repro.obs.alerts.SLOMonitor`
    subscriber (monitors subscribe before exporters), so exported series
    are self-describing about which alerts were active each interval.
    """

    __slots__ = ("node_id", "seq", "t_start_ns", "t_end_ns", "counters",
                 "gauges", "sketches", "alerts")

    def __init__(self, node_id, seq, t_start_ns, t_end_ns, counters,
                 gauges, sketches, alerts=None):
        self.node_id = node_id
        self.seq = seq
        self.t_start_ns = t_start_ns
        self.t_end_ns = t_end_ns
        self.counters = counters       # {name: CounterSample}
        self.gauges = gauges           # {name: GaugeSample}
        self.sketches = sketches       # {channel: QuantileSketch (delta)}
        self.alerts = list(alerts) if alerts else []

    def signals(self, qs=(50, 90, 99, 99.9)):
        """Flat ``{signal_name: value}`` namespace for alert rules.

        * gauges: verbatim (``probe_health``, ``rq_depth`` ...);
        * counters: ``<name>_delta`` and ``<name>_total``;
        * sketch channels: ``<channel>_p50`` / ``_p90`` / ``_p99`` /
          ``_p99.9`` plus ``<channel>_count`` and ``<channel>_mean``
          over the *interval* delta (percentile signals are absent for
          an interval with zero samples).
        """
        out = {}
        for name, sample in self.gauges.items():
            out[name] = sample.value
        for name, sample in self.counters.items():
            out[f"{name}_delta"] = sample.delta
            out[f"{name}_total"] = sample.total
        for name, sketch in self.sketches.items():
            out[f"{name}_count"] = sketch.count
            if sketch.count:
                out[f"{name}_mean"] = sketch.mean
                for q in qs:
                    out[f"{name}_p{q:g}"] = sketch.percentile(q)
        return out

    def to_dict(self):
        return {
            "kind": "telemetry",
            "stream": self.node_id,
            "seq": self.seq,
            "t_start_ns": self.t_start_ns,
            "t_end_ns": self.t_end_ns,
            "counters": {name: sample.to_dict()
                         for name, sample in sorted(self.counters.items())},
            "gauges": {name: sample.to_dict()
                       for name, sample in sorted(self.gauges.items())},
            "sketches": {name: sketch.to_dict()
                         for name, sketch in sorted(self.sketches.items())},
            "alerts": list(self.alerts),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            node_id=data.get("stream", "node"),
            seq=int(data["seq"]),
            t_start_ns=int(data["t_start_ns"]),
            t_end_ns=int(data["t_end_ns"]),
            counters={name: CounterSample.from_dict(name, sample)
                      for name, sample in data.get("counters", {}).items()},
            gauges={name: GaugeSample.from_dict(name, value)
                    for name, value in data.get("gauges", {}).items()},
            sketches={name: QuantileSketch.from_dict(sketch)
                      for name, sketch in data.get("sketches", {}).items()},
            alerts=data.get("alerts", []),
        )

    def __repr__(self):
        return (f"<TelemetrySnapshot {self.node_id!r} seq={self.seq} "
                f"[{self.t_start_ns}..{self.t_end_ns}] ns>")


class SketchChannel:
    """One latency signal: an interval (delta) sketch plus a cumulative one.

    Producers call :meth:`observe` per sample; the bus drains the
    interval sketch into each snapshot.  ``cumulative`` is what run
    summaries ship in place of raw sample arrays — it accumulates
    identically whether or not the bus ever ticks.
    """

    __slots__ = ("name", "alpha", "cumulative", "interval")

    def __init__(self, name, alpha=DEFAULT_ALPHA):
        self.name = name
        self.alpha = alpha
        self.cumulative = QuantileSketch(alpha)
        self.interval = QuantileSketch(alpha)

    def observe(self, value):
        self.cumulative.add(value)
        self.interval.add(value)

    def drain(self):
        """The interval sketch since the last drain; resets the delta."""
        delta, self.interval = self.interval, QuantileSketch(self.alpha)
        return delta

    def __repr__(self):
        return f"<SketchChannel {self.name!r} n={self.cumulative.count}>"


class TelemetryBus:
    """Samples the metrics spine on sim-time intervals and fans out.

    Wire-up order matters only for subscribers: they run in subscription
    order, so monitors that annotate the snapshot (SLOMonitor) subscribe
    before exporters that serialize it.
    """

    def __init__(self, registry=None, interval_ns=10 * MILLISECONDS,
                 node_id="node", alpha=DEFAULT_ALPHA):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.registry = registry
        self.interval_ns = int(interval_ns)
        self.node_id = node_id
        self.alpha = alpha
        self.channels = {}
        self.subscribers = []
        self.collectors = []       # fn(now_ns) run at the top of each tick
        self.gauge_fns = {}        # name -> fn() sampled every tick
        self.snapshots_emitted = 0
        self._seq = 0
        self._last_tick_ns = 0
        self._counter_base = {}
        self._closed = False

    # -- Wiring --------------------------------------------------------------------

    def channel(self, name, alpha=None):
        """Get-or-create the sketch channel ``name``."""
        existing = self.channels.get(name)
        if existing is None:
            existing = SketchChannel(name, alpha=alpha or self.alpha)
            self.channels[name] = existing
        return existing

    def observe(self, channel_name, value):
        """Record one sample into ``channel_name`` (creates the channel)."""
        self.channel(channel_name).observe(value)

    def add_gauge(self, name, fn):
        """Register ``fn() -> number`` sampled at every tick."""
        self.gauge_fns[name] = fn
        return fn

    def add_collector(self, fn):
        """Register ``fn(now_ns)`` run before sampling at every tick —
        the hook for pull-style producers (e.g. scanning for newly
        completed VM startups) that have no push path."""
        self.collectors.append(fn)
        return fn

    def subscribe(self, subscriber):
        """Subscribe a callable or an object with ``on_snapshot``."""
        fn = getattr(subscriber, "on_snapshot", subscriber)
        if not callable(fn):
            raise TypeError(
                f"subscriber must be callable or have on_snapshot, got "
                f"{type(subscriber).__name__}")
        self.subscribers.append((subscriber, fn))
        return subscriber

    # -- Sampling ------------------------------------------------------------------

    def attach(self, env):
        """Spawn the sim-time sampling process on ``env``; returns it."""
        if self.registry is None:
            self.registry = env.metrics
        self._last_tick_ns = env.now

        def sampler():
            while True:
                yield env.timeout(self.interval_ns)
                self.tick(env.now)

        return env.process(sampler(), name=f"telemetry-{self.node_id}")

    def tick(self, now_ns):
        """Collect one interval snapshot and fan it out; returns it."""
        for collector in self.collectors:
            collector(now_ns)
        counters = {}
        if self.registry is not None:
            for name, value in self.registry.counter_values().items():
                base = self._counter_base.get(name, 0)
                counters[name] = CounterSample(name, value, value - base)
                self._counter_base[name] = value
        gauges = {name: GaugeSample(name, fn())
                  for name, fn in sorted(self.gauge_fns.items())}
        sketches = {name: channel.drain()
                    for name, channel in sorted(self.channels.items())}
        snapshot = TelemetrySnapshot(
            node_id=self.node_id, seq=self._seq,
            t_start_ns=self._last_tick_ns, t_end_ns=int(now_ns),
            counters=counters, gauges=gauges, sketches=sketches)
        self._seq += 1
        self._last_tick_ns = int(now_ns)
        self.snapshots_emitted += 1
        for _, fn in self.subscribers:
            fn(snapshot)
        return snapshot

    def close(self, now_ns):
        """Emit a final partial interval (if time passed) and finish
        subscribers that care (e.g. the JSONL writer flushes)."""
        if self._closed:
            return
        self._closed = True
        if now_ns > self._last_tick_ns:
            self.tick(now_ns)
        for subscriber, _ in self.subscribers:
            finish = getattr(subscriber, "finish", None)
            if callable(finish):
                finish()

    def __repr__(self):
        return (f"<TelemetryBus {self.node_id!r} every {self.interval_ns} ns, "
                f"{len(self.channels)} channels, "
                f"{len(self.subscribers)} subscribers>")


# -- Subscribers -------------------------------------------------------------------


class RingSeries:
    """Bounded in-memory snapshot series (flight-recorder semantics)."""

    def __init__(self, cap=RING_CAP):
        self.cap = int(cap)
        self.snapshots = deque(maxlen=self.cap)
        self.total = 0
        self.dropped = 0

    def on_snapshot(self, snapshot):
        if len(self.snapshots) >= self.cap:
            self.dropped += 1
        self.snapshots.append(snapshot)
        self.total += 1

    def last(self):
        return self.snapshots[-1] if self.snapshots else None

    def series(self, signal):
        """``[(t_end_ns, value)]`` of one signal across retained snapshots."""
        out = []
        for snapshot in self.snapshots:
            value = snapshot.signals().get(signal)
            if value is not None:
                out.append((snapshot.t_end_ns, value))
        return out

    def __len__(self):
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)


class TelemetryJsonlWriter(RingSeries):
    """JSONL time-series writer with the ``trace_meta`` head convention.

    Snapshots are retained in its :class:`RingSeries` ring until
    :meth:`finish` so the file can *start* with a ``telemetry_meta``
    bookkeeping line (snapshot/drop counts, cap, mode) — the telemetry
    twin of the trace exporter's ``trace_meta``, letting
    ``taichi-experiments analyze`` flag a truncated capture instead of
    silently profiling a partial series.
    """

    def __init__(self, path, cap=JSONL_CAP, node_id="node"):
        super().__init__(cap)
        self.path = path
        self.node_id = node_id
        self._written = False

    def meta(self):
        return {
            "snapshots": len(self.snapshots),
            "dropped": self.dropped,
            "cap": self.cap,
            "mode": "ring",
            "stream_type": "telemetry",
        }

    def finish(self):
        """Write the capture; idempotent; returns the path."""
        if self._written:
            return self.path
        self._written = True
        with open(self.path, "w") as handle:
            handle.write(json.dumps({
                "pid": 0,
                "stream": self.node_id,
                "kind": "telemetry_meta",
                "args": self.meta(),
            }))
            handle.write("\n")
            for snapshot in self.snapshots:
                handle.write(json.dumps(snapshot.to_dict()))
                handle.write("\n")
        return self.path


def load_telemetry_jsonl(path):
    """Parse a :class:`TelemetryJsonlWriter` capture.

    Returns ``(node_id, snapshots, meta)`` — snapshots as
    :class:`TelemetrySnapshot`, ``meta`` the head line's bookkeeping
    (``{}`` when absent).
    """
    node_id = None
    snapshots = []
    meta = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("kind")
            if kind == "telemetry_meta":
                meta = obj.get("args", {})
                node_id = node_id or obj.get("stream")
            elif kind == "telemetry":
                snapshot = TelemetrySnapshot.from_dict(obj)
                node_id = node_id or snapshot.node_id
                snapshots.append(snapshot)
    return node_id or "node", snapshots, meta


# -- OpenMetrics / Prometheus text exposition --------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name):
    """Dotted spine names -> Prometheus-legal metric names."""
    out = _NAME_SANITIZE.sub("_", name.replace(".", "_"))
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _labels(labels):
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def openmetrics_text(counters=None, gauges=None, sketches=None, labels=None,
                     prefix="taichi", qs=(0.5, 0.9, 0.99)):
    """Render telemetry state as OpenMetrics/Prometheus text exposition.

    * counters (``{name: int}``) -> ``<prefix>_<name>_total`` counter;
    * gauges (``{name: number}``) -> ``<prefix>_<name>`` gauge;
    * sketches (``{name: QuantileSketch}``) -> a summary family:
      ``quantile``-labeled samples plus ``_count`` and ``_sum``.

    Ends with ``# EOF`` per the OpenMetrics spec.
    """
    lines = []
    for name, value in sorted((counters or {}).items()):
        metric = f"{prefix}_{_metric_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{_labels(labels)} {_fmt(value)}")
    for name, value in sorted((gauges or {}).items()):
        metric = f"{prefix}_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{_labels(labels)} {_fmt(value)}")
    for name, sketch in sorted((sketches or {}).items()):
        metric = f"{prefix}_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for q in qs:
            value = sketch.percentile(q * 100.0)
            if value is None:
                continue
            q_labels = dict(labels or {})
            q_labels["quantile"] = f"{q:g}"
            lines.append(f"{metric}{_labels(q_labels)} {_fmt(value)}")
        lines.append(f"{metric}_count{_labels(labels)} {sketch.count}")
        lines.append(f"{metric}_sum{_labels(labels)} {_fmt(sketch.sum)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def snapshot_openmetrics(snapshot, prefix="taichi"):
    """Render one :class:`TelemetrySnapshot` (totals, not deltas)."""
    return openmetrics_text(
        counters={name: sample.total
                  for name, sample in snapshot.counters.items()},
        gauges={name: sample.value
                for name, sample in snapshot.gauges.items()},
        sketches=snapshot.sketches,
        labels={"node": snapshot.node_id},
        prefix=prefix,
    )


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def parse_openmetrics(text):
    """Strict-enough parser for the exposition format (tests and CI).

    Returns ``{metric_name: [(labels_dict, float_value)]}``; raises
    ``ValueError`` on a malformed sample line or a missing ``# EOF``
    terminator.
    """
    samples = {}
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise ValueError("OpenMetrics text must end with '# EOF'")
    for line in lines[:-1]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed OpenMetrics sample line: {line!r}")
        labels = dict(_LABEL_PAIR.findall(match.group("labels") or ""))
        value = float(match.group("value"))
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples
