"""The multi-tenant soak: summary shape, ledgers, telemetry."""

from repro.scenario import Scenario, run_soak
from repro.sim.units import MILLISECONDS
from repro.tenancy import verify_tenant_summary

TENANTS = [
    {"tenant_id": "gold", "weight": 3.0,
     "workload": {"dp_utilization": 0.4, "n_monitors": 3,
                  "rolling_tasks": 3}},
    {"tenant_id": "bronze", "traffic": "spiky",
     "workload": {"dp_utilization": 0.4, "n_monitors": 3,
                  "rolling_tasks": 3}},
]


def _soak(duration_ms=30, **kwargs):
    scenario = Scenario(arm="taichi", tenants=TENANTS, **kwargs)
    return run_soak(scenario, seed=11,
                    duration_ns=duration_ms * MILLISECONDS,
                    drain_ns=15 * MILLISECONDS, label="tenant-soak")


def test_run_soak_delegates_and_keeps_single_tenant_shape():
    summary = _soak()
    # Every single-tenant summary key survives (fleet/top compatibility)...
    assert summary["node_id"] == "tenant-soak"
    assert summary["dp_sample_count"] > 0
    assert set(summary["dp_latency_us"]) >= {"count", "p50", "p99"}
    assert "dp_sketch" in summary and "startup_sketch" in summary
    # ... plus the tenant view.
    assert set(summary["tenants"]) == {"gold", "bronze"}
    assert summary["tenancy"]["isolation"] is True
    assert summary["tenancy"]["total_granted_ns"] > 0


def test_single_tenant_summary_carries_no_tenant_keys():
    summary = run_soak(Scenario(arm="taichi"), seed=11,
                       duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS)
    assert "tenants" not in summary
    assert "tenancy" not in summary


def test_one_declared_tenant_owns_the_whole_board():
    summary = run_soak(Scenario(arm="taichi", tenants=[{"tenant_id": "solo"}]),
                       seed=11, duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS)
    block = summary["tenants"]["solo"]
    assert block["services"] == 8
    assert block["dp_sample_count"] == summary["dp_sample_count"]
    assert block["vms_requested"] == summary["vms_requested"]
    assert block["granted_ns"] == summary["tenancy"]["total_granted_ns"]
    assert verify_tenant_summary(summary) == []


def test_slo_counts_stay_exact_past_the_sample_reservoir(monkeypatch):
    # Past the reservoir cap only percentiles come from a sample; the
    # pool and the tenant still score every probe.
    monkeypatch.setattr("repro.scenario.soak._SAMPLE_CAP", 64)
    summary = run_soak(Scenario(arm="taichi", tenants=[{"tenant_id": "solo"}]),
                       seed=11, duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS)
    for block in (summary, summary["tenants"]["solo"]):
        assert block["dp_sample_count"] > 64
        assert block["dp_slo_total"] == block["dp_sample_count"]
        assert block["dp_slo_attainment_pct"] <= 100.0
    assert verify_tenant_summary(summary) == []


def test_tenant_blocks_account_for_all_samples_and_grants():
    summary = _soak()
    blocks = summary["tenants"].values()
    assert sum(b["dp_sample_count"] for b in blocks) \
        == summary["dp_sample_count"]
    assert sum(b["granted_ns"] for b in blocks) \
        == summary["tenancy"]["total_granted_ns"]
    for block in blocks:
        assert block["dp_within_slo"] <= block["dp_slo_total"]
        assert block["vms_started"] <= block["vms_requested"]
        # Sketches, never raw sample arrays, in tenant blocks.
        assert "dp_samples_us" not in block


def test_weighted_shares_favor_the_heavier_tenant():
    # Identical backlogged workloads, 3:1 weights: the weighted-fair pick
    # must grant the heavier tenant strictly more donated time.
    summary = _soak()
    gold = summary["tenants"]["gold"]
    bronze = summary["tenants"]["bronze"]
    assert gold["granted_ns"] > bronze["granted_ns"]


def test_verify_tenant_summary_clean_and_detects_corruption():
    summary = _soak()
    assert verify_tenant_summary(summary) == []

    doctored = {**summary,
                "tenancy": {**summary["tenancy"],
                            "total_granted_ns":
                            summary["tenancy"]["total_granted_ns"] + 1}}
    problems = verify_tenant_summary(doctored)
    assert any("conserve" in problem for problem in problems)

    assert verify_tenant_summary({"node_id": "x"}) \
        == ["summary carries no tenant blocks"]


def test_isolation_off_still_conserves_ledgers():
    summary = _soak(tenant_isolation=False)
    assert summary["tenancy"]["isolation"] is False
    assert sum(b["granted_ns"] for b in summary["tenants"].values()) \
        == summary["tenancy"]["total_granted_ns"]


def test_faulted_tenant_soak_reports_injections():
    summary = _soak(faults="probe_outage", degradation=True,
                    duration_ms=60)
    assert summary["faults"]["injected"] > 0
    assert verify_tenant_summary(summary) == []


def test_per_tenant_gauges_drive_alert_rules():
    # A rule keyed ``tenant.<id>.*`` needs no alert-code support — the
    # per-tenant gauges exist under exactly that name.
    scenario = Scenario(arm="taichi", tenants=TENANTS, alerts=[
        {"name": "gold_touchy", "signal": "tenant.gold.dp_slo_attainment_pct",
         "threshold": 200.0, "op": "lt", "hold": 1},
    ])
    summary = run_soak(scenario, seed=11, duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS, label="tenant-alerts")
    alerts = summary["telemetry"]["alerts"]
    assert alerts["raised"] >= 1
