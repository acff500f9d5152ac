"""Merge per-node summaries into fleet-wide results.

The merge never averages per-node percentiles: averaging a p99 across
nodes is not the fleet p99 (the tail of the worst node dominates).
Every node summary and every tenant block ships mergeable
:class:`~repro.metrics.sketch.QuantileSketch` snapshots of its dp
rx-wait and VM-startup distributions, and :func:`_merge_slo` merges them
*in spec order* (the float ``sum`` makes merge order observable) and
queries the merged sketch: O(buckets) per node instead of O(samples),
with quantiles within the sketch's relative-error bound ``alpha`` of the
pooled-raw order statistics.

SLO attainment pools exact within/total counts (nodes ship them as
scalars), so attainment is exact.  Four views come out: ``fleet``
(whole rack/pod), ``classes`` (per deployment class — the Wave-style
comparison), ``tenants`` (per tenant id) and ``worst_nodes`` (who to
page; ties break on node_id so reports stay deterministic).
"""

from repro.metrics.sketch import merge_sketch_dicts
from repro.metrics.stats import attainment_pct

_DP_QS = (50, 90, 99, 99.9)
_STARTUP_QS = (50, 90, 99)


def _merge_slo(blocks):
    """The merged SLO keys of node summaries or tenant blocks, in order."""
    def total(key):
        return sum(block[key] for block in blocks)

    dp = merge_sketch_dicts([block["dp_sketch"] for block in blocks])
    startup = merge_sketch_dicts([block["startup_sketch"]
                                  for block in blocks])
    return {
        "dp_latency_us": dp.summary(qs=_DP_QS),
        "dp_slo_attainment_pct": attainment_pct(total("dp_within_slo"),
                                                total("dp_slo_total")),
        "dp_sketch": dp.to_dict(),
        "startup_ms": startup.summary(qs=_STARTUP_QS),
        "startup_slo_attainment_pct": attainment_pct(
            total("startup_within_slo"), total("startup_slo_total")),
        "startup_sketch": startup.to_dict(),
        "vms_started": total("vms_started"),
        "vms_requested": total("vms_requested"),
    }


def aggregate_nodes(nodes):
    """One aggregate block over a list of node summaries."""
    return {
        "nodes": len(nodes),
        "node_ids": [node["node_id"] for node in nodes],
        **_merge_slo(nodes),
        "faults_injected": sum(node["faults"]["injected"] for node in nodes),
        "invariant_violations":
            sum(node["invariants"]["violations"] for node in nodes),
        "invariants_ok": all(node["invariants"]["ok"] for node in nodes),
    }


def aggregate_tenants(nodes):
    """Merge per-tenant blocks across nodes: one block per tenant id.

    Nodes without tenant blocks contribute nothing — a mixed fleet
    aggregates the tenants of the multi-tenant nodes only.
    """
    by_tenant = {}
    for node in nodes:
        for tid, block in (node.get("tenants") or {}).items():
            by_tenant.setdefault(tid, []).append(block)
    return {
        tid: {
            "nodes": len(blocks),
            "weight": blocks[0]["weight"],
            **_merge_slo(blocks),
            "granted_ns": sum(block["granted_ns"] for block in blocks),
        }
        for tid, blocks in sorted(by_tenant.items())
    }


def worst_nodes(nodes):
    """The pageable offenders: worst DP p99, worst startup attainment."""
    with_dp = [node for node in nodes
               if node["dp_latency_us"].get("count", 0)]
    with_startups = [node for node in nodes if node["vms_started"]]
    worst = {}
    if with_dp:
        node = max(with_dp, key=lambda n: (n["dp_latency_us"]["p99"],
                                           n["node_id"]))
        worst["dp_p99"] = {"node_id": node["node_id"],
                           "value_us": node["dp_latency_us"]["p99"]}
    if with_startups:
        node = min(with_startups,
                   key=lambda n: (n["startup_slo_attainment_pct"],
                                  n["node_id"]))
        worst["startup_attainment"] = {
            "node_id": node["node_id"],
            "value_pct": node["startup_slo_attainment_pct"],
        }
    return worst


#: Fleet-wide worst-request table depth (per channel).
_WORST_REQUESTS_K = 8


def worst_requests(nodes, k=_WORST_REQUESTS_K):
    """Pool per-node tail exemplars into the fleet worst-request table.

    Only nodes that ran with spans on ship an ``exemplars`` block; the
    pool keeps the compact fields (who, where, how long, what dominated)
    and drops the per-request span trees — the node summary still has
    those.  Sort is ``(-duration_ns, node_id, request)`` so the table is
    deterministic at any ``--jobs`` level.
    """
    pooled = {}
    for node in nodes:
        for channel, records in (node.get("exemplars") or {}).items():
            bucket = pooled.setdefault(channel, [])
            for record in records:
                bucket.append({
                    "node_id": node["node_id"],
                    "request": record["request"],
                    "duration_ns": record["duration_ns"],
                    "dominant": record["dominant"],
                    "dominant_pct": record["dominant_pct"],
                    "segments": dict(record["segments"]),
                })
    out = {}
    for channel in sorted(pooled):
        bucket = sorted(
            pooled[channel],
            key=lambda r: (-r["duration_ns"], r["node_id"], r["request"]))
        out[channel] = bucket[:k]
    return out


def aggregate_fleet(nodes, failures=None, expected_nodes=None):
    """The full fleet report block: fleet + per-class + worst nodes.

    ``failures`` (a list of normalized failure envelopes — node id,
    kind, attempts, error, traceback tail) makes the aggregate accept a
    *partial* fleet: every statistic and SLO-attainment figure is
    computed over the surviving nodes only, and the block gains a
    ``failed_nodes`` table (sorted by node id), ``degraded: true`` and
    a ``coverage`` fraction against ``expected_nodes`` (defaults to
    survivors + failures).  A failure-free fleet emits none of these
    keys, keeping healthy reports byte-identical to pre-durability
    ones.
    """
    classes = {}
    for node in nodes:
        classes.setdefault(node["deployment"], []).append(node)
    out = {
        "fleet": aggregate_nodes(nodes),
        "classes": {name: aggregate_nodes(members)
                    for name, members in sorted(classes.items())},
        "worst_nodes": worst_nodes(nodes),
    }
    requests = worst_requests(nodes)
    if requests:
        # Only present on spans-on fleets, keeping spans-off reports
        # byte-identical to pre-span ones.
        out["worst_requests"] = requests
    tenants = aggregate_tenants(nodes)
    if tenants:
        # Only present when some node ran multi-tenant, keeping
        # single-tenant fleet reports byte-identical to pre-tenancy ones.
        out["tenants"] = tenants
    failures = list(failures or ())
    if failures:
        expected = (int(expected_nodes) if expected_nodes is not None
                    else len(nodes) + len(failures))
        out["degraded"] = True
        out["coverage"] = {
            "expected": expected,
            "completed": len(nodes),
            "fraction": len(nodes) / expected if expected else 0.0,
        }
        out["failed_nodes"] = sorted(
            (dict(failure) for failure in failures),
            key=lambda failure: failure["node_id"])
    return out
