"""Trace analysis: scheduling-latency profiles and switch-cost accounting.

This is the read side of the observability spine: it consumes
:class:`~repro.metrics.timeline.TimelineEvent` streams — live tracers, an
:class:`~repro.obs.session.ObservabilitySession`'s streams, or a JSONL
capture written by :func:`~repro.obs.export.write_jsonl` — and computes
the quantities behind the paper's Figures 4-6 and Table 2:

* per-thread wakeup (``enqueue``) to ``sched_in`` latency distributions;
* per-CPU busy occupancy and per-vCPU backed time;
* vmexit switch-cost accounting split by exit reason and premature flag
  (the ~2 us vCPU context switch the paper cites);
* IPI send-to-deliver latency;
* preprocessing-window hit/miss rates (probe-IRQ exits that arrived in
  time vs. premature revocations).

One :class:`InvariantEngine` pass pairs a stream once
(:mod:`~repro.obs.intervals`) and feeds the pairs to the profile and to
the :mod:`~repro.obs.invariants` catalog; it runs inline as a tracer
hook (``observe(check_invariants=True)``) or over a capture
(``taichi-experiments analyze <trace.jsonl>``).
"""

import json
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.metrics.stats import summarize
from repro.metrics.timeline import TimelineEvent
from repro.obs.intervals import Pairer
from repro.obs.invariants import default_checkers

_PROFILE_QS = (50, 90, 99)


def load_jsonl(path):
    """Parse a ``write_jsonl`` capture into ``[(label, events, meta)]``.

    ``meta`` is the stream's ``trace_meta`` bookkeeping (event/drop
    counts) when present, else ``{}``.  Events keep JSONL field types:
    ``cpu_id`` is whatever JSON preserved (stringified ids stay strings).
    """
    streams = {}
    order = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            key = (obj.get("pid", 0), obj.get("stream", "trace"))
            if key not in streams:
                streams[key] = {"events": [], "meta": {}}
                order.append(key)
            if obj.get("kind") in ("trace_meta", "telemetry_meta"):
                streams[key]["meta"] = obj.get("args", {})
                continue
            if obj.get("kind") == "telemetry":
                # Telemetry snapshot series interleave with trace captures
                # in the same dir; the event profiler skips them (use
                # repro.obs.telemetry.load_telemetry_jsonl to read them)
                # but their meta line still feeds the drop warnings.
                continue
            streams[key]["events"].append(TimelineEvent(
                int(obj["ts_ns"]), obj.get("cpu"), obj["kind"],
                obj.get("args", {}),
            ))
    return [(label, streams[key]["events"], streams[key]["meta"])
            for key in order for _, label in (key,)]


#: Kinds tallied by one detail field: kind -> field.
_TALLIES = {"dp_idle_yield": "service", "alert.raised": "alert",
            "fault.injected": "fault_kind", "fault.handled": "mechanism"}


def _pct(ns, span_ns):
    return round(100.0 * ns / span_ns, 3) if span_ns else 0.0


def _by_key(counts):
    return dict(sorted(counts.items(), key=lambda item: str(item[0])))


class Profile:
    """The scheduling-profile reducers of one stream: each event with
    the interval the pairer opened or closed on it, then :meth:`report`.
    """

    def __init__(self):
        self.kinds = Counter()
        self.first_ts = None
        self.last_ts = 0
        self.tallies = {kind: Counter() for kind in _TALLIES}
        self._woken = {}           # thread -> enqueue ts
        self.wakeups = []
        self.wakeups_by_thread = {}  # thread -> [latency_ns]
        self.busy_ns = Counter()   # cpu -> stint ns
        self.vcpus = {}            # vcpu -> {"slices", "backed_ns"}
        self.slice_ns = []
        self.switch_ns = []
        self.by_reason = {}        # reason -> {"count","premature","total_ns"}
        self.ipi_ns = []
        self.orphan_delivers = 0

    def observe(self, event, interval):
        kind = event.kind
        ts = event.ts_ns
        self.kinds[kind] += 1
        if self.first_ts is None:
            self.first_ts = ts
        if ts > self.last_ts:
            self.last_ts = ts
        if kind in _TALLIES:
            self.tallies[kind][event.detail.get(_TALLIES[kind], "?")] += 1
        elif kind == "enqueue":
            self._woken[event.detail.get("thread")] = ts
        elif kind == "sched_in":
            thread = event.detail.get("thread")
            woken = self._woken.pop(thread, None)
            if woken is not None:
                self.wakeups.append(ts - woken)
                self.wakeups_by_thread.setdefault(thread, []).append(
                    ts - woken)
        if interval is None or interval.end is not event:
            return
        begin = interval.begin
        what = interval.what
        if what == "stint":
            if begin is not None:
                self.busy_ns[event.cpu_id] += ts - begin.ts_ns
        elif what == "slice":
            self._vmexit(event, begin)
        elif what == "flight":
            if begin is None:
                self.orphan_delivers += 1
            else:
                self.ipi_ns.append(ts - begin.ts_ns)

    def _vcpu(self, vcpus, vcpu):
        return vcpus.setdefault(vcpu, {"slices": 0, "backed_ns": 0})

    def _vmexit(self, event, begin):
        detail = event.detail
        stats = self._vcpu(self.vcpus, detail.get("vcpu"))
        stats["slices"] += 1
        if begin is not None:
            self.slice_ns.append(event.ts_ns - begin.ts_ns)
            stats["backed_ns"] += event.ts_ns - begin.ts_ns
        cost = detail.get("enter_cost_ns", 0) + detail.get("exit_cost_ns", 0)
        self.switch_ns.append(cost)
        bucket = self.by_reason.setdefault(
            detail.get("reason", "?"),
            {"count": 0, "premature": 0, "total_ns": 0})
        bucket["count"] += 1
        bucket["total_ns"] += cost
        if detail.get("premature"):
            bucket["premature"] += 1

    def report(self, still_open, dropped=0):
        """The profile dict; slices and stints in ``still_open`` occupy
        their CPU until the last timestamp seen."""
        kinds = self.kinds
        last_ts = self.last_ts
        span_ns = max(last_ts - (self.first_ts or 0), 0)
        busy_ns = Counter(self.busy_ns)
        vcpus = {vcpu: dict(stats) for vcpu, stats in self.vcpus.items()}
        in_flight = 0
        for interval in still_open:
            if interval.what == "stint":
                busy_ns[interval.key] += last_ts - interval.begin.ts_ns
            elif interval.what == "slice":
                self._vcpu(vcpus, interval.begin.detail.get("vcpu"))[
                    "backed_ns"] += last_ts - interval.begin.ts_ns
            elif interval.what == "flight":
                in_flight += 1
        probe = self.by_reason.get("hw_probe_irq", {})
        probe_exits = probe.get("count", 0)
        misses = probe.get("premature", 0)
        tallies = self.tallies
        return {
            "events": sum(kinds.values()),
            "dropped": int(dropped),
            "span_ns": span_ns,
            "kinds": dict(sorted(kinds.items())),
            "wakeup_to_sched_in_ns": summarize(self.wakeups, qs=_PROFILE_QS),
            "wakeup_to_sched_in_by_thread": {
                thread: summarize(samples, qs=_PROFILE_QS)
                for thread, samples in _by_key(self.wakeups_by_thread).items()
            },
            "cpu_occupancy": {
                cpu: {"busy_ns": busy, "busy_pct": _pct(busy, span_ns)}
                for cpu, busy in _by_key(busy_ns).items()
            },
            "vcpu_occupancy": {
                vcpu: {**stats,
                       "backed_pct": _pct(stats["backed_ns"], span_ns)}
                for vcpu, stats in _by_key(vcpus).items()
            },
            "switch_cost_ns": summarize(self.switch_ns, qs=_PROFILE_QS),
            "switch_by_reason": {
                reason: {
                    "count": bucket["count"],
                    "premature": bucket["premature"],
                    "total_cost_ns": bucket["total_ns"],
                    "mean_cost_ns": round(
                        bucket["total_ns"] / bucket["count"], 1),
                }
                for reason, bucket in sorted(self.by_reason.items())
            },
            "slice_duration_ns": summarize(self.slice_ns, qs=_PROFILE_QS),
            "ipi_latency_ns": {
                **summarize(self.ipi_ns, qs=_PROFILE_QS),
                "unmatched_sends": in_flight,
                "unmatched_delivers": self.orphan_delivers,
            },
            "preprocessing_window": {
                "probe_exits": probe_exits,
                "hits": probe_exits - misses,
                "misses": misses,
                "hit_rate": (round((probe_exits - misses) / probe_exits, 4)
                             if probe_exits else None),
            },
            "dp_idle_yields": {
                "total": kinds["dp_idle_yield"],
                "by_service": _by_key(tallies["dp_idle_yield"]),
            },
            "alerts": {
                "raised": kinds["alert.raised"],
                "cleared": kinds["alert.cleared"],
                "by_alert": _by_key(tallies["alert.raised"]),
            },
            "faults": {
                "injected": kinds["fault.injected"],
                "cleared": kinds["fault.cleared"],
                "by_kind": _by_key(tallies["fault.injected"]),
                "handled": kinds["fault.handled"],
                "handled_by_mechanism": _by_key(tallies["fault.handled"]),
                "ipi_drops_injected": kinds["fault.ipi_drop"],
                "ipi_drops_offline": kinds["ipi.dropped"],
                "probe_irqs_suppressed": kinds["fault.probe_suppress"],
                "probe_irqs_spurious": kinds["fault.probe_spurious"],
            },
        }


@dataclass
class InvariantEngine:
    """One pass over one event stream: pairs it once
    (:class:`~repro.obs.intervals.Pairer`) and runs the checkers and the
    scheduling :class:`Profile` over the pairs.

    Feed events through :meth:`observe` (usable directly as a tracer
    hook), then call :meth:`finish` once for end-of-stream checks and
    :meth:`report` for the profile.  Keeps a short ring of recent events
    and attaches it to each violation as context.
    """

    checkers: list = None
    context_events: int = 4
    max_violations: int = 1_000

    violations: list = field(default_factory=list, init=False)
    overflowed: int = field(default=0, init=False)

    def __post_init__(self):
        if self.checkers is None:
            self.checkers = default_checkers()
        self.pairer = Pairer()
        self.profile = Profile()
        self._recent = deque(maxlen=self.context_events)
        self._finished = False

    def observe(self, event):
        interval = self.pairer.feed(event)
        self.profile.observe(event, interval)
        for checker in self.checkers:
            for violation in checker.observe(event, interval, self.pairer):
                if not violation.context:
                    violation.context = tuple(self._recent)
                self._add(violation)
        self._recent.append(event)

    def finish(self):
        """End-of-stream checks; idempotent.  Returns all violations."""
        if not self._finished:
            self._finished = True
            still_open = self.pairer.finish()
            for checker in self.checkers:
                for violation in checker.finish(self.profile.last_ts,
                                                still_open):
                    self._add(violation)
        return self.violations

    def report(self, dropped=0):
        """The stream's scheduling profile (see :func:`analyze_events`)."""
        return self.profile.report(self.pairer.finish(), dropped=dropped)

    def _add(self, violation):
        if len(self.violations) >= self.max_violations:
            self.overflowed += 1
            return
        self.violations.append(violation)


def _engine(events, checkers):
    engine = InvariantEngine(checkers=checkers)
    for event in events:
        engine.observe(event)
    return engine


def check_events(events, checkers=None):
    """Post-hoc convenience: run checkers over ``events``, return violations."""
    return _engine(events, checkers).finish()


def analyze_events(events, dropped=0):
    """Single-pass scheduling profile of one event stream; returns a dict."""
    return _engine(events, []).report(dropped=dropped)


def _normalize(streams):
    """Accept session streams [(label, tracer)], [(label, events, meta)],
    a bare tracer, or a JSONL path."""
    if isinstance(streams, str):
        return load_jsonl(streams)
    if hasattr(streams, "record"):
        streams = [("trace", streams)]
    normalized = []
    for entry in streams:
        if len(entry) == 3:
            label, events, meta = entry
        else:
            label, tracer = entry
            summary_fn = getattr(tracer, "summary", None)
            meta = summary_fn() if callable(summary_fn) else {}
            events = list(tracer)
        normalized.append((label, list(events), dict(meta)))
    return normalized


def analyze_streams(streams, check_invariants=True, checkers=None):
    """Profile every stream (and optionally check invariants).

    ``streams`` may be an :class:`ObservabilitySession`'s ``.streams``,
    ``[(label, events, meta)]`` triples, a single tracer, or a path to a
    JSONL capture.  Returns ``{"streams", "warnings", "violations"}``
    where ``violations`` is ``[(stream_label, Violation)]``.
    """
    reports = {}
    warnings = []
    violations = []
    for label, events, meta in _normalize(streams):
        dropped = int(meta.get("dropped", 0) or 0)
        engine = _engine(events, checkers if check_invariants else [])
        reports[label] = engine.report(dropped=dropped)
        if dropped:
            mode = meta.get("mode", "ring")
            if meta.get("stream_type") == "telemetry" or "snapshots" in meta:
                warnings.append(
                    f"stream {label!r}: {dropped} telemetry snapshots "
                    f"dropped ({mode} mode) — the series is truncated and "
                    "interval-derived rates understate the full run")
            else:
                warnings.append(
                    f"stream {label!r}: {dropped} events dropped ({mode} "
                    "mode) — the profile covers a truncated stream and "
                    "pairing violations may be capture artifacts")
        violations.extend((label, violation) for violation in engine.finish())
    return {"streams": reports, "warnings": warnings,
            "violations": violations}


def analyze_capture(path, check_invariants=True, checkers=None):
    """Analyze a JSONL capture file (the ``analyze`` CLI entry point)."""
    return analyze_streams(load_jsonl(path), check_invariants=check_invariants,
                           checkers=checkers)


def critical_path_from_streams(streams, exemplar_k=None):
    """Span trees + per-channel critical-path report over any stream form.

    ``streams`` accepts everything :func:`analyze_streams` does.  Returns
    ``(trees, report)`` — see :func:`repro.obs.spans.build_span_trees`
    and :func:`repro.obs.spans.critical_path_report`.
    """
    from repro.obs import spans as spans_mod

    trees = {}
    for _label, events, _meta in _normalize(streams):
        trees.update(spans_mod.build_span_trees(events))
    kwargs = {} if exemplar_k is None else {"exemplar_k": exemplar_k}
    return trees, spans_mod.critical_path_report(trees, **kwargs)


def find_request_tree(streams, request_id):
    """The reconstructed span tree for one request id, or None."""
    trees, _report = critical_path_from_streams(streams)
    return trees.get(request_id)


# -- Report formatting ---------------------------------------------------------


def _us(ns):
    return f"{ns / 1000.0:.2f}us"


def _fmt_summary(summary):
    if summary.get("count", 0) == 0:
        return "(no samples)"
    parts = [f"n={summary['count']}"]
    for key in ("min", "p50", "p90", "p99", "max"):
        if key in summary:
            parts.append(f"{key}={_us(summary[key])}")
    if "mean" in summary:
        parts.insert(1, f"mean={_us(summary['mean'])}")
    return " ".join(parts)


def format_stream_report(label, report):
    """Render one stream's profile as indented text lines."""
    lines = [f"== stream {label!r}: {report['events']} events over "
             f"{_us(report['span_ns'])}"
             + (f" ({report['dropped']} dropped)" if report["dropped"] else "")]
    lines.append("  wakeup->sched_in latency: "
                 + _fmt_summary(report["wakeup_to_sched_in_ns"]))
    by_thread = report["wakeup_to_sched_in_by_thread"]
    for thread, summary in list(by_thread.items())[:12]:
        lines.append(f"    {thread}: {_fmt_summary(summary)}")
    if len(by_thread) > 12:
        lines.append(f"    ... {len(by_thread) - 12} more threads")

    occupancy = report["cpu_occupancy"]
    if occupancy:
        rendered = ", ".join(f"cpu {cpu}={data['busy_pct']:.1f}%"
                             for cpu, data in occupancy.items())
        lines.append(f"  cpu occupancy: {rendered}")
    vcpus = report["vcpu_occupancy"]
    if vcpus:
        rendered = ", ".join(
            f"{vcpu}={data['slices']} slices/{_us(data['backed_ns'])}"
            for vcpu, data in vcpus.items())
        lines.append(f"  vcpu backing: {rendered}")

    lines.append("  vmexit switch cost: "
                 + _fmt_summary(report["switch_cost_ns"]))
    for reason, bucket in report["switch_by_reason"].items():
        premature = (f", {bucket['premature']} premature"
                     if bucket["premature"] else "")
        lines.append(f"    {reason}: {bucket['count']} exits, mean "
                     f"{_us(bucket['mean_cost_ns'])}{premature}")
    lines.append("  vcpu slice duration: "
                 + _fmt_summary(report["slice_duration_ns"]))

    ipi = report["ipi_latency_ns"]
    extra = ""
    if ipi.get("unmatched_sends"):
        extra = f" ({ipi['unmatched_sends']} sends in flight at stream end)"
    lines.append("  ipi send->deliver: " + _fmt_summary(ipi) + extra)

    window = report["preprocessing_window"]
    if window["probe_exits"]:
        lines.append(
            f"  preprocessing window: {window['hits']}/{window['probe_exits']}"
            f" probe exits in time (hit rate {window['hit_rate']:.2%},"
            f" {window['misses']} premature)")
    dp = report["dp_idle_yields"]
    if dp["total"]:
        rendered = ", ".join(f"{service}={count}"
                             for service, count in dp["by_service"].items())
        lines.append(f"  dp idle yields: {dp['total']} ({rendered})")

    spans_begun = report["kinds"].get("span.begin", 0)
    if spans_begun:
        lines.append(f"  spans: {spans_begun} begun / "
                     f"{report['kinds'].get('span.end', 0)} ended "
                     "(use --critical-path for per-request attribution)")

    alerts = report.get("alerts", {})
    if alerts.get("raised"):
        rendered = ", ".join(f"{name}={count}"
                             for name, count in alerts["by_alert"].items())
        lines.append(f"  alerts: {alerts['raised']} raised / "
                     f"{alerts['cleared']} cleared ({rendered})")

    faults = report.get("faults", {})
    if faults.get("injected") or faults.get("handled"):
        rendered = ", ".join(f"{kind}={count}"
                             for kind, count in faults["by_kind"].items())
        lines.append(f"  faults: {faults['injected']} injected / "
                     f"{faults['cleared']} cleared ({rendered})")
        if faults["handled"]:
            rendered = ", ".join(
                f"{mechanism}={count}" for mechanism, count
                in faults["handled_by_mechanism"].items())
            lines.append(f"  degradation responses: {faults['handled']} "
                         f"({rendered})")
        drops = []
        if faults["ipi_drops_injected"]:
            drops.append(f"{faults['ipi_drops_injected']} injected")
        if faults["ipi_drops_offline"]:
            drops.append(f"{faults['ipi_drops_offline']} offline")
        if drops:
            lines.append(f"  ipi drops: {', '.join(drops)}")
        if faults["probe_irqs_suppressed"] or faults["probe_irqs_spurious"]:
            lines.append(
                f"  probe faults: {faults['probe_irqs_suppressed']} IRQs "
                f"suppressed, {faults['probe_irqs_spurious']} spurious")
    return "\n".join(lines)


def format_analysis(analysis, max_violations=20):
    """Render a full :func:`analyze_streams` result as text."""
    lines = []
    for warning in analysis["warnings"]:
        lines.append(f"WARNING: {warning}")
    for label, report in analysis["streams"].items():
        lines.append(format_stream_report(label, report))
    violations = analysis["violations"]
    if violations:
        lines.append(f"INVARIANT VIOLATIONS: {len(violations)}")
        for label, violation in violations[:max_violations]:
            lines.append(f"  stream {label!r}:")
            for row in str(violation).splitlines():
                lines.append(f"  {row}")
        if len(violations) > max_violations:
            lines.append(f"  ... {len(violations) - max_violations} more")
    else:
        lines.append("invariants: all checks passed (0 violations)")
    return "\n".join(lines)


def analysis_to_json(analysis):
    """JSON-safe version of an :func:`analyze_streams` result."""
    out = {
        "streams": analysis["streams"],
        "warnings": list(analysis["warnings"]),
        "violations": [
            {"stream": label, **violation.to_dict()}
            for label, violation in analysis["violations"]
        ],
    }
    if "critical_path" in analysis:
        # Attached by the CLI's --critical-path pass; plain data already.
        out["critical_path"] = analysis["critical_path"]
    return out


def write_analysis_json(path, analysis):
    """Serialize :func:`analysis_to_json` to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(analysis_to_json(analysis), handle, indent=2, default=str)
    return path
