"""Fleet-level telemetry: merge per-node snapshot series, render `top`.

When ``taichi-experiments fleet --telemetry-dir DIR`` runs, every node
writes its own interval snapshot series (``<node>.telemetry.jsonl``,
via :class:`~repro.obs.telemetry.TelemetryJsonlWriter`).  This module is
the fleet-side read path:

* :func:`load_fleet_telemetry` finds and parses the per-node series;
* :func:`merge_interval_series` folds them into one fleet-wide series —
  counters sum, sketch deltas merge (in sorted node order, so the merged
  series is deterministic), gauges keep min/mean/max across nodes;
* :func:`write_fleet_telemetry` persists the merged series
  (``merged.jsonl``) plus a final-state OpenMetrics exposition
  (``fleet.openmetrics``) next to the per-node files;
* :func:`render_top` is ``taichi-experiments top``: a per-node fleet
  health table (tail latency, SLO attainment, probe health, active
  alerts) from a telemetry dir or a fleet JSON report.
"""

import glob
import json
import os

from repro.metrics.sketch import QuantileSketch
from repro.obs.telemetry import load_telemetry_jsonl, openmetrics_text

_SUFFIX = ".telemetry.jsonl"


def load_fleet_telemetry(telemetry_dir):
    """``{node_id: (snapshots, meta)}`` from a fleet telemetry dir.

    Nodes come back in sorted node-id order — the canonical merge order.
    """
    out = {}
    for path in sorted(glob.glob(os.path.join(telemetry_dir,
                                              "*" + _SUFFIX))):
        node_id, snapshots, meta = load_telemetry_jsonl(path)
        out[node_id] = (snapshots, meta)
    return dict(sorted(out.items()))


def merge_interval_series(by_node):
    """Merge per-node snapshot series into one fleet series, by ``seq``.

    ``by_node`` maps node id to a snapshot list (or the ``(snapshots,
    meta)`` pairs :func:`load_fleet_telemetry` returns).  For each
    interval index present anywhere: counter totals/deltas sum across
    nodes, sketch deltas merge, and each gauge becomes a
    ``{"min", "mean", "max", "nodes"}`` spread (a fleet has no single
    run-queue depth).  Alerts union, tagged with their node.  Returns a
    list of plain dicts (``kind: "telemetry"``, ``stream: "fleet"``).
    """
    series = {}
    for node_id in sorted(by_node):
        snapshots = by_node[node_id]
        if isinstance(snapshots, tuple):
            snapshots = snapshots[0]
        for snapshot in snapshots:
            series.setdefault(snapshot.seq, []).append((node_id, snapshot))

    merged = []
    for seq in sorted(series):
        members = series[seq]
        counters = {}
        sketches = {}
        gauges = {}
        alerts = []
        t_start = min(snapshot.t_start_ns for _, snapshot in members)
        t_end = max(snapshot.t_end_ns for _, snapshot in members)
        for node_id, snapshot in members:
            for name, sample in snapshot.counters.items():
                bucket = counters.setdefault(name, {"total": 0, "delta": 0})
                bucket["total"] += sample.total
                bucket["delta"] += sample.delta
            for name, sketch in snapshot.sketches.items():
                if name in sketches:
                    sketches[name].merge(sketch)
                else:
                    sketches[name] = QuantileSketch.from_dict(
                        sketch.to_dict())
            for name, sample in snapshot.gauges.items():
                gauges.setdefault(name, []).append(sample.value)
            alerts.extend(f"{node_id}:{alert}" for alert in snapshot.alerts)
        merged.append({
            "kind": "telemetry",
            "stream": "fleet",
            "seq": seq,
            "t_start_ns": t_start,
            "t_end_ns": t_end,
            "nodes": len(members),
            "counters": {name: bucket
                         for name, bucket in sorted(counters.items())},
            "gauges": {
                name: {
                    "min": min(values),
                    "mean": sum(values) / len(values),
                    "max": max(values),
                    "nodes": len(values),
                }
                for name, values in sorted(gauges.items())
            },
            "sketches": {name: sketch.to_dict()
                         for name, sketch in sorted(sketches.items())},
            "alerts": alerts,
        })
    return merged


def write_fleet_telemetry(telemetry_dir, report=None):
    """Write ``merged.jsonl`` and ``fleet.openmetrics`` into the dir.

    The OpenMetrics exposition is the fleet's *final* state: cumulative
    counters summed over the merged series' deltas, last-interval gauge
    means, and the full-run merged sketches (all interval deltas folded
    together).  When ``report`` is given, its fleet-aggregate sketches
    (which cover every sample, not just ticked intervals) take
    precedence for the summary families.  Returns the merged series.
    """
    by_node = load_fleet_telemetry(telemetry_dir)
    merged = merge_interval_series(by_node)

    merged_path = os.path.join(telemetry_dir, "merged.jsonl")
    with open(merged_path, "w") as handle:
        handle.write(json.dumps({
            "pid": 0,
            "stream": "fleet",
            "kind": "telemetry_meta",
            "args": {
                "snapshots": len(merged),
                "dropped": sum(
                    int(meta.get("dropped", 0) or 0)
                    for _, meta in by_node.values()),
                "nodes": len(by_node),
                "mode": "merged",
                "stream_type": "telemetry",
            },
        }))
        handle.write("\n")
        for snapshot in merged:
            handle.write(json.dumps(snapshot))
            handle.write("\n")

    counters = {}
    gauges = {}
    sketches = {}
    for snapshot in merged:
        for name, bucket in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + bucket["delta"]
        for name, spread in snapshot["gauges"].items():
            gauges[name] = spread["mean"]
        for name, data in snapshot["sketches"].items():
            sketch = QuantileSketch.from_dict(data)
            if name in sketches:
                sketches[name].merge(sketch)
            else:
                sketches[name] = sketch
    if report is not None:
        fleet = report.get("aggregate", {}).get("fleet", {})
        for key, family in (("dp_sketch", "dp_rx_wait_us"),
                            ("startup_sketch", "vm_startup_ms")):
            data = fleet.get(key)
            if data:
                sketches[family] = QuantileSketch.from_dict(data)
    text = openmetrics_text(counters=counters, gauges=gauges,
                            sketches=sketches, labels={"fleet": "all"})
    with open(os.path.join(telemetry_dir, "fleet.openmetrics"),
              "w") as handle:
        handle.write(text)
    return merged


# -- `top`: the fleet health table ---------------------------------------------


def _node_row_from_snapshots(node_id, snapshots):
    """One health row from a node's snapshot series (last state wins)."""
    last = snapshots[-1] if snapshots else None
    dp = QuantileSketch.merged(
        snapshot.sketches["dp_rx_wait_us"] for snapshot in snapshots
        if "dp_rx_wait_us" in snapshot.sketches)
    gauges = last.signals() if last is not None else {}
    return {
        "node": node_id,
        "dp_p50_us": dp.percentile(50),
        "dp_p99_us": dp.percentile(99),
        "dp_slo_pct": gauges.get("dp_slo_attainment_pct"),
        "startup_slo_pct": gauges.get("startup_slo_attainment_pct"),
        "rq_depth": gauges.get("rq_depth"),
        "probe": ("ok" if gauges.get("probe_health", 1.0) >= 1.0
                  else "DEGRADED"),
        "engine": "-",  # snapshot series carry no engine self-profile
        "alerts": ",".join(last.alerts) if last is not None and last.alerts
        else "-",
    }


def _node_row_from_summary(node):
    """One health row from a fleet-report node summary."""
    dp = node.get("dp_latency_us", {})
    telemetry = node.get("telemetry") or {}
    alert_summary = telemetry.get("alerts") or {}
    active = alert_summary.get("active") or []
    return {
        "node": node["node_id"],
        "dp_p50_us": dp.get("p50"),
        "dp_p99_us": dp.get("p99"),
        "dp_slo_pct": node.get("dp_slo_attainment_pct"),
        "startup_slo_pct": node.get("startup_slo_attainment_pct"),
        "rq_depth": None,
        "probe": "ok",
        "engine": _engine_cell(node.get("engine")),
        "alerts": ",".join(active) if active else "-",
    }


def _engine_cell(engine):
    """Compact engine self-profile: events processed + fast-forward share.

    Reports predating the ``engine`` summary block render ``-``.
    """
    if not engine:
        return "-"
    processed = engine.get("events_processed", 0)
    ratio = engine.get("skipped_ratio", 0.0)
    return f"{_si(processed)}ev {ratio * 100.0:.0f}%ff"


def _si(n):
    if n >= 1_000_000:
        return f"{n / 1e6:.1f}M"
    if n >= 1_000:
        return f"{n / 1e3:.1f}k"
    return str(n)


def _tenant_rows(nodes):
    """Per-tenant health rows from node summaries carrying tenant blocks.

    Single-tenant nodes have no ``tenants`` block and contribute no rows,
    so the ``top`` output for pre-tenancy reports is unchanged.
    """
    rows = []
    for node in nodes:
        for tid in sorted(node.get("tenants") or {}):
            block = node["tenants"][tid]
            dp = block.get("dp_latency_us", {})
            rows.append({
                "node": node["node_id"],
                "tenant": tid,
                "weight": block.get("weight"),
                "dp_p99_us": dp.get("p99"),
                "dp_slo_pct": block.get("dp_slo_attainment_pct"),
                "startup_slo_pct": block.get("startup_slo_attainment_pct"),
            })
    return rows


def render_top(source):
    """The ``taichi-experiments top`` view: fleet health as a text table.

    Given a fleet JSON report from a spans-on run, a second table lists
    the fleet-wide worst requests (the pooled tail exemplars) under the
    health rows — node, request id, duration, dominant segment.  A
    degraded report (nodes failed terminally) adds a failed-node table
    with each node's failure kind, attempt count and error.
    """
    from repro.experiments.report import format_table

    worst_requests = {}
    failed_nodes = []
    coverage = None
    tenant_rows = []
    if os.path.isdir(source):
        by_node = load_fleet_telemetry(source)
        if not by_node:
            raise ValueError(f"no *{_SUFFIX} series found in {source!r}")
        rows = [_node_row_from_snapshots(node_id, snapshots)
                for node_id, (snapshots, _) in by_node.items()]
    else:
        with open(source) as handle:
            report = json.load(handle)
        nodes = report.get("nodes")
        if not nodes and report.get("tenants") and report.get("node_id"):
            # A bare multi-tenant soak summary: render it as a one-node
            # fleet so per-tenant rows are inspectable without a fleet
            # wrapper.  (Tenant-less summaries keep the old error.)
            nodes = [report]
            report = {}
        aggregate = report.get("aggregate") or {}
        failed_nodes = aggregate.get("failed_nodes") or []
        coverage = aggregate.get("coverage")
        if not nodes and not failed_nodes:
            raise ValueError(f"{source!r} is not a fleet report (no nodes)")
        rows = [_node_row_from_summary(node) for node in nodes or []]
        tenant_rows = _tenant_rows(nodes or [])
        worst_requests = aggregate.get("worst_requests") or {}
    worst = max(
        (row for row in rows if row["dp_p99_us"] is not None),
        key=lambda row: row["dp_p99_us"], default=None)
    alerting = [row["node"] for row in rows if row["alerts"] != "-"]
    degraded = [row["node"] for row in rows if row["probe"] != "ok"]
    lines = [f"== fleet top: {len(rows)} nodes =="]
    if rows:
        lines.append(format_table(rows))
    if tenant_rows:
        lines.append(f"== tenants: {len(tenant_rows)} rows ==")
        lines.append(format_table(tenant_rows))
    if worst is not None:
        lines.append(f"worst dp p99: {worst['node']} "
                     f"({worst['dp_p99_us']:.1f}us)")
    if degraded:
        lines.append(f"probe degraded: {', '.join(degraded)}")
    if failed_nodes:
        lines.append(
            f"== failed nodes: {len(failed_nodes)}"
            + (f" (coverage {coverage['fraction'] * 100.0:.1f}%)"
               if coverage else "") + " ==")
        lines.append(format_table([
            {"node": failure["node_id"], "kind": failure["kind"],
             "attempts": failure["attempts"],
             "error": failure["error"][:60]}
            for failure in failed_nodes
        ]))
    if alerting:
        lines.append(f"alerting: {', '.join(alerting)}")
    elif not degraded and not failed_nodes:
        lines.append("all nodes healthy")
    if worst_requests:
        request_rows = [
            {
                "channel": channel,
                "node": record["node_id"],
                "request": record["request"],
                "duration_ms": record["duration_ns"] / 1e6,
                "dominant": (f"{record['dominant']} "
                             f"({record['dominant_pct']:.0f}%)"),
            }
            for channel in sorted(worst_requests)
            for record in worst_requests[channel]
        ]
        lines.append(f"== worst requests: {len(request_rows)} ==")
        lines.append(format_table(request_rows))
    return "\n".join(lines)


def load_merged_series(telemetry_dir):
    """Parse ``merged.jsonl`` snapshot dicts (the head meta line is
    skipped; :func:`load_fleet_telemetry`-style callers read it there)."""
    path = os.path.join(telemetry_dir, "merged.jsonl")
    out = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                data = json.loads(line)
                if data.get("kind") == "telemetry":
                    out.append(data)
    return out

