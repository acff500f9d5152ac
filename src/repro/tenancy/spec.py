"""Tenant specifications: the multi-tenant board as declarative data.

A hyperscale SmartNIC is shared: several tenants' DP services, CP task
streams and VM fleets ride one board.  A :class:`TenantSpec` declares one
tenant — its id, its weight (the share of the board's pCPU/vCPU/service
pool it is entitled to), optional per-tenant SLO targets, an optional
probe-threshold seed, and optional workload/traffic overrides.  A list of
them plugs into :class:`~repro.scenario.spec.Scenario` (``tenants=...``)
with the same JSON round-trip contract as every other scenario field.

Validation errors always *name the offending tenant* — a fleet spec can
carry hundreds of tenant entries, and "weight must be positive" without a
tenant id is useless at that scale.
"""

from dataclasses import dataclass, fields

from repro.scenario.spec import TRAFFIC_PROFILES, WorkloadMix
from repro.spec_fields import check_fields, check_int, check_number

#: Shares below this fraction of the total weight cannot be honored: the
#: partitioner hands out whole vCPUs and DP services, so a 0.1 % tenant
#: on an 8-CPU board would round to the same share as a 10 % one.
MIN_SHARE = 0.01


@dataclass
class TenantSpec:
    """One tenant's declarative slice of a board.

    ``weight`` is relative: a tenant's entitled share is its weight over
    the sum of all tenants' weights.  ``dp_slo_us`` (optional) is the
    tenant's own rx-wait SLO target; ``probe_threshold`` (optional) seeds
    the software workload probe's empty-poll threshold on the tenant's DP
    services; ``traffic``/``workload`` (optional) override the scenario's
    board-wide defaults for this tenant's background load, CP hum and
    VM-creation storms.
    """

    tenant_id: str
    weight: float = 1.0
    dp_slo_us: float = None
    probe_threshold: int = None
    traffic: str = None
    workload: WorkloadMix = None

    def __post_init__(self):
        if not isinstance(self.tenant_id, str) or not self.tenant_id:
            raise ValueError(
                f"tenant_id must be a non-empty string, "
                f"got {self.tenant_id!r}")
        owner = f"tenant {self.tenant_id!r}"
        self.weight = float(check_number(owner, "weight", self.weight))
        if self.weight <= 0:
            raise ValueError(
                f"{owner}: weight must be a positive finite number, "
                f"got {self.weight!r}")
        if self.dp_slo_us is not None:
            self.dp_slo_us = float(
                check_number(owner, "dp_slo_us", self.dp_slo_us))
            if self.dp_slo_us <= 0:
                raise ValueError(
                    f"{owner}: dp_slo_us must be a positive number, "
                    f"got {self.dp_slo_us!r}")
        if self.probe_threshold is not None:
            self.probe_threshold = check_int(owner, "probe_threshold",
                                             self.probe_threshold)
            if self.probe_threshold < 1:
                raise ValueError(
                    f"tenant {self.tenant_id!r}: probe_threshold must be "
                    f">= 1, got {self.probe_threshold}")
        if self.traffic is not None and (
                not isinstance(self.traffic, str)
                or self.traffic not in TRAFFIC_PROFILES):
            raise ValueError(
                f"tenant {self.tenant_id!r}: unknown traffic profile "
                f"{self.traffic!r}; choose from {sorted(TRAFFIC_PROFILES)}")
        if self.workload is not None:
            try:
                self.workload = WorkloadMix.from_value(self.workload)
            except ValueError as exc:
                raise ValueError(
                    f"{owner}: invalid workload: {exc}") from None

    def to_dict(self):
        data = {"tenant_id": self.tenant_id, "weight": self.weight}
        if self.dp_slo_us is not None:
            data["dp_slo_us"] = self.dp_slo_us
        if self.probe_threshold is not None:
            data["probe_threshold"] = self.probe_threshold
        if self.traffic is not None:
            data["traffic"] = self.traffic
        if self.workload is not None:
            data["workload"] = self.workload.to_dict()
        return data

    @classmethod
    def from_dict(cls, data):
        if isinstance(data, TenantSpec):
            return data
        if not isinstance(data, dict):
            raise ValueError(
                f"tenant spec must be a dict or TenantSpec, "
                f"got {type(data).__name__}")
        tenant_id = data.get("tenant_id")
        check_fields(f"tenant {tenant_id if tenant_id else '<unnamed>'!r}",
                     data, [f.name for f in fields(cls)])
        if not tenant_id:
            raise ValueError("tenant spec is missing 'tenant_id'")
        return cls(**data)


def normalize_tenants(tenants):
    """Validate a scenario's tenant list; returns ``[TenantSpec]`` in
    declaration order (the order every partition and merge preserves).

    Rejects duplicate ids and weights that do not sum sanely (a share
    below :data:`MIN_SHARE` of the total rounds to nothing on a board's
    whole-CPU partition).  Every error names the offending tenant.
    """
    if not isinstance(tenants, (list, tuple)):
        raise ValueError(
            f"tenants must be a list of tenant specs, "
            f"got {type(tenants).__name__}")
    specs = [TenantSpec.from_dict(tenant) for tenant in tenants]
    if not specs:
        raise ValueError("tenants must declare at least one tenant")
    seen = set()
    for spec in specs:
        if spec.tenant_id in seen:
            raise ValueError(
                f"duplicate tenant id {spec.tenant_id!r}: each tenant "
                f"must be declared exactly once")
        seen.add(spec.tenant_id)
    total = sum(spec.weight for spec in specs)
    for spec in specs:
        share = spec.weight / total
        if share < MIN_SHARE:
            raise ValueError(
                f"tenant {spec.tenant_id!r}: weight {spec.weight:g} is "
                f"{share * 100.0:.2f}% of the total {total:g} — shares "
                f"below {MIN_SHARE * 100.0:.0f}% cannot be honored by the "
                f"whole-CPU partition")
    return specs
