"""Multi-tenant boards: SmartNIC-as-a-pool with isolation guarantees.

Tenants are first-class scenario objects (:class:`TenantSpec` lists on
``Scenario.tenants``); the :class:`TenancyManager` partitions a built
board's DP services and vCPUs by weight and hooks the Tai Chi scheduler
for weighted-fair, isolation-respecting backing;
:func:`repro.scenario.run_soak` drives per-tenant load and reports
per-tenant SLO blocks; :func:`verify_tenant_summary` cross-checks a
summary's grant ledgers and declared SLOs.
"""

from repro.tenancy.manager import TenancyManager, TenantRuntime, \
    verify_tenant_summary, weighted_partition
from repro.tenancy.spec import MIN_SHARE, TenantSpec, normalize_tenants

__all__ = [
    "MIN_SHARE",
    "TenancyManager",
    "TenantRuntime",
    "TenantSpec",
    "normalize_tenants",
    "verify_tenant_summary",
    "weighted_partition",
]
