"""``taichi-experiments top``: per-tenant rows, single-tenant fallback."""

import json
import os

import pytest

from repro.fleet import FleetRunner, render_top, uniform_spec, \
    write_fleet_json
from repro.scenario import Scenario, run_soak
from repro.sim.units import MILLISECONDS
from tests.tenancy.test_tenancy_soak import TENANTS


def _write(tmp_path, name, payload):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def test_top_renders_tenant_rows_from_bare_soak_summary(tmp_path):
    # A multi-tenant soak summary renders without a fleet wrapper: one
    # health row for the node, one tenant row per tenant.
    summary = run_soak(Scenario(arm="taichi", tenants=TENANTS), seed=11,
                       duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS, label="board-07")
    path = _write(tmp_path, "soak.json", summary)
    text = render_top(path)
    assert "== fleet top: 1 nodes ==" in text
    assert "== tenants: 2 rows ==" in text
    assert "gold" in text and "bronze" in text
    # The tenant table carries the per-tenant SLO columns (the table
    # formatter prints floats to one decimal).
    gold = summary["tenants"]["gold"]
    assert f"{gold['dp_slo_attainment_pct']:.1f}" in text


def test_top_single_tenant_output_is_byte_identical(tmp_path):
    # Satellite contract: pre-tenancy reports render byte-for-byte the
    # same — no tenant table, no new columns on the health rows.
    spec = uniform_spec("tiny", "taichi", 2, duration_ms=40.0,
                        drain_ms=20.0)
    report = FleetRunner(spec, jobs=1, scale=0.5).run()
    path = _write(tmp_path, "fleet.json", report)
    text = render_top(path)
    assert "tenant" not in text
    # Strip the tenant-aware code path's inputs and re-render: the text
    # must not change, proving the tenant branch contributes zero bytes.
    for node in report["nodes"]:
        assert "tenants" not in node
    assert render_top(path) == text


def test_top_tenantless_soak_summary_keeps_old_error(tmp_path):
    summary = run_soak(Scenario(arm="taichi"), seed=11,
                       duration_ns=30 * MILLISECONDS,
                       drain_ns=15 * MILLISECONDS, label="plain")
    path = _write(tmp_path, "plain.json", summary)
    with pytest.raises(ValueError, match="not a fleet report"):
        render_top(path)


def test_write_fleet_json_round_trips_tenant_blocks(tmp_path):
    from repro.fleet import FleetSpec, NodeSpec

    scenario = Scenario(arm="taichi", tenants=TENANTS)
    spec = FleetSpec(name="t", nodes=[NodeSpec("n0", scenario=scenario)],
                     duration_ms=30.0, drain_ms=15.0)
    report = FleetRunner(spec, jobs=1, scale=1.0).run()
    path = os.path.join(tmp_path, "fleet.json")
    write_fleet_json(path, report)
    with open(path) as handle:
        revived = json.load(handle)
    assert revived["aggregate"]["tenants"].keys() == {"gold", "bronze"}
    assert (revived["nodes"][0]["tenants"]["gold"]["granted_ns"]
            == report["nodes"][0]["tenants"]["gold"]["granted_ns"])
