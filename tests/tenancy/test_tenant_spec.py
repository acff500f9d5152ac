"""TenantSpec validation.

Every rejection must *name the offending tenant* — a fleet spec can carry
hundreds of tenant entries, and an anonymous "weight must be positive" is
useless at that scale.
"""

import pytest

from repro.scenario import Scenario
from repro.tenancy import MIN_SHARE, TenantSpec, normalize_tenants


# -- single-spec validation ----------------------------------------------------


def test_minimal_spec_defaults():
    spec = TenantSpec(tenant_id="a")
    assert spec.weight == 1.0
    assert spec.dp_slo_us is None
    assert spec.probe_threshold is None
    assert spec.traffic is None
    assert spec.workload is None


def test_rejects_empty_tenant_id():
    with pytest.raises(ValueError, match="non-empty string"):
        TenantSpec(tenant_id="")


def test_rejections_name_the_tenant():
    with pytest.raises(ValueError, match="tenant 'edgy'.*weight"):
        TenantSpec(tenant_id="edgy", weight=-2)
    with pytest.raises(ValueError, match="tenant 'edgy'.*dp_slo_us"):
        TenantSpec(tenant_id="edgy", dp_slo_us=0)
    with pytest.raises(ValueError, match="tenant 'edgy'.*probe_threshold"):
        TenantSpec(tenant_id="edgy", probe_threshold=0)
    with pytest.raises(ValueError, match="tenant 'edgy'.*traffic"):
        TenantSpec(tenant_id="edgy", traffic="tsunami")
    with pytest.raises(ValueError, match="tenant 'edgy'.*invalid workload"):
        TenantSpec(tenant_id="edgy", workload={"dp_utilization": 7.0})


def test_from_dict_rejects_unknown_fields_naming_the_tenant():
    with pytest.raises(ValueError, match="'mystery'.*cpu_quota"):
        TenantSpec.from_dict({"tenant_id": "mystery", "cpu_quota": 4})
    # Without an id there is still a stable label to grep for.
    with pytest.raises(ValueError, match="<unnamed>.*cpu_quota"):
        TenantSpec.from_dict({"cpu_quota": 4})


def test_from_dict_requires_tenant_id():
    with pytest.raises(ValueError, match="missing 'tenant_id'"):
        TenantSpec.from_dict({"weight": 2.0})


def test_workload_dict_is_revived():
    spec = TenantSpec(tenant_id="a", workload={"dp_utilization": 0.5})
    assert spec.workload.dp_utilization == 0.5


# -- list-level validation -----------------------------------------------------


def test_normalize_rejects_non_list_and_empty():
    with pytest.raises(ValueError, match="must be a list"):
        normalize_tenants({"tenant_id": "a"})
    with pytest.raises(ValueError, match="at least one tenant"):
        normalize_tenants([])


def test_duplicate_ids_are_rejected_by_name():
    with pytest.raises(ValueError, match="duplicate tenant id 'twin'"):
        normalize_tenants([{"tenant_id": "twin"}, {"tenant_id": "twin"}])


def test_vanishing_share_is_rejected_by_name():
    tenants = [{"tenant_id": "whale", "weight": 1000.0},
               {"tenant_id": "plankton", "weight": 1.0}]
    with pytest.raises(ValueError, match="'plankton'.*cannot be honored"):
        normalize_tenants(tenants)
    # Exactly at the floor is accepted.
    ok = normalize_tenants([
        {"tenant_id": "whale", "weight": 1 / MIN_SHARE - 1},
        {"tenant_id": "plankton", "weight": 1.0},
    ])
    assert [spec.tenant_id for spec in ok] == ["whale", "plankton"]


def test_declaration_order_is_preserved():
    specs = normalize_tenants([
        {"tenant_id": "z"}, {"tenant_id": "a"}, {"tenant_id": "m"},
    ])
    assert [spec.tenant_id for spec in specs] == ["z", "a", "m"]


# -- scenario integration -------------------------------------------------------


def test_scenario_rejects_bad_tenants_naming_the_tenant():
    with pytest.raises(ValueError, match="duplicate tenant id 'twin'"):
        Scenario(arm="taichi", tenants=[{"tenant_id": "twin"},
                                        {"tenant_id": "twin"}])
