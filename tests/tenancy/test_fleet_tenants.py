"""Fleet-level tenancy: cross-node aggregation and the ``top`` view."""

import os

from repro.fleet import (
    FleetRunner,
    FleetSpec,
    NodeSpec,
    aggregate_fleet,
    aggregate_tenants,
    render_top,
    write_fleet_json,
)
from repro.scenario import Scenario, run_soak
from repro.sim.units import MILLISECONDS
from tests.tenancy.test_tenancy_soak import TENANTS


def _node_summary(label, seed, tenants=TENANTS):
    scenario = Scenario(arm="taichi", tenants=tenants)
    summary = run_soak(scenario, seed=seed, duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS, label=label)
    # run_node's fleet envelope, which aggregate_fleet expects.
    summary["invariants"] = {"checked": False, "violations": 0, "ok": True}
    return summary


def _tenant_spec(n_nodes=2, **kwargs):
    scenario = Scenario(arm="taichi", tenants=TENANTS)
    nodes = [NodeSpec(node_id=f"node-{index:02d}", scenario=scenario)
             for index in range(n_nodes)]
    kwargs.setdefault("duration_ms", 30.0)
    kwargs.setdefault("drain_ms", 15.0)
    return FleetSpec(name="tenant-fleet", nodes=nodes, **kwargs)


def test_aggregate_tenants_pools_counts_and_merges_sketches():
    a = _node_summary("a", seed=3)
    b = _node_summary("b", seed=4)
    merged = aggregate_tenants([a, b])
    assert sorted(merged) == ["bronze", "gold"]
    for tid, block in merged.items():
        assert block["nodes"] == 2
        assert block["granted_ns"] == (a["tenants"][tid]["granted_ns"]
                                       + b["tenants"][tid]["granted_ns"])
        assert block["vms_started"] == (a["tenants"][tid]["vms_started"]
                                        + b["tenants"][tid]["vms_started"])
        # Merged-sketch count equals the pooled per-node sample count.
        assert block["dp_latency_us"]["count"] == (
            a["tenants"][tid]["dp_sample_count"]
            + b["tenants"][tid]["dp_sample_count"])
    assert merged["gold"]["weight"] == 3.0


def test_aggregate_tenants_skips_tenantless_nodes():
    multi = _node_summary("multi", seed=3)
    single = run_soak(Scenario(arm="taichi"), seed=5,
                      duration_ns=30 * MILLISECONDS,
                      drain_ns=15 * MILLISECONDS, label="single")
    merged = aggregate_tenants([multi, single])
    # The single-tenant node contributes no rows: per-tenant node counts
    # stay at 1 and the merge equals the multi-tenant node alone.
    assert all(block["nodes"] == 1 for block in merged.values())
    assert merged == aggregate_tenants([multi])
    assert aggregate_tenants([single]) == {}


def test_fleet_report_tenants_key_only_when_present():
    multi = _node_summary("multi", seed=3)
    single = _node_summary("single", seed=5, tenants=None)
    assert "tenants" in aggregate_fleet([multi])
    # Single-tenant fleets stay byte-identical to pre-tenancy reports.
    assert "tenants" not in aggregate_fleet([single])


def test_fleet_runner_tenant_fleet_end_to_end(tmp_path):
    report = FleetRunner(_tenant_spec(), jobs=1, scale=1.0).run()
    for node in report["nodes"]:
        assert set(node["tenants"]) == {"gold", "bronze"}
    fleet_tenants = report["aggregate"]["tenants"]
    assert fleet_tenants["gold"]["nodes"] == 2
    assert fleet_tenants["gold"]["granted_ns"] == sum(
        node["tenants"]["gold"]["granted_ns"] for node in report["nodes"])

    # `top` over the fleet JSON renders a per-tenant table.
    json_path = os.path.join(tmp_path, "fleet.json")
    write_fleet_json(json_path, report)
    text = render_top(json_path)
    assert "== tenants: 4 rows ==" in text
    assert "gold" in text and "bronze" in text
