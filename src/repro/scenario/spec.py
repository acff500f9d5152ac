"""The declarative scenario: arm × workload × traffic × faults, as data.

A :class:`Scenario` is one cell of the evaluation matrix the paper's
figures walk — which scheduler arm runs, with which knobs, under which
:class:`WorkloadMix` and traffic profile, optionally riding out a
:class:`~repro.faults.plan.FaultPlan` with the degradation layer armed.
Like :class:`~repro.faults.plan.FaultPlan` and ``FleetSpec`` it is plain
data with a JSON round-trip, so a scenario can live in a file, ship in a
fleet spec, or be built inline by an experiment.

Construction (:meth:`Scenario.build`) flows through
:func:`repro.scenario.arms.build`; the full production-soak simulation
shape lives in :mod:`repro.scenario.soak` and is shared by the fleet
runner and the soak experiments.
"""

import json
from dataclasses import dataclass, field

from repro.baselines import TaiChiDeployment
from repro.faults.plan import FaultPlan, PRESETS as FAULT_PRESETS
from repro.scenario.arms import (
    TAICHI_POST_KNOBS,
    arm_names,
    build,
    knob_to_jsonable,
    validate_knobs,
)
from repro.spec_fields import (
    check_bool,
    check_int,
    check_number,
    check_spec_fields,
)

#: Traffic profile name -> burstiness knob of the DP background generator
#: (duty-cycle peak-to-mean; see ``start_dp_background``).
TRAFFIC_PROFILES = {
    "steady": 0.2,
    "bursty": 0.5,
    "spiky": 0.75,
}


@dataclass
class WorkloadMix:
    """Per-board load knobs: DP pressure, CP hum, and VM-creation density."""

    dp_utilization: float = 0.30
    n_monitors: int = 4
    rolling_tasks: int = 3
    probe_period_us: float = 400.0
    vm_period_ms: float = 120.0
    vm_batch_min: int = 4
    vm_batch_max: int = 10
    vm_vblks: int = 4

    def __post_init__(self):
        for name in ("dp_utilization", "probe_period_us", "vm_period_ms"):
            check_number("workload", name, getattr(self, name))
        for name in ("n_monitors", "rolling_tasks", "vm_batch_min",
                     "vm_batch_max", "vm_vblks"):
            setattr(self, name, check_int("workload", name,
                                          getattr(self, name)))
        if not 0.0 < self.dp_utilization < 1.0:
            raise ValueError(
                f"dp_utilization must be in (0, 1), got {self.dp_utilization}")
        if self.n_monitors < 0 or self.rolling_tasks < 0:
            raise ValueError("n_monitors/rolling_tasks must be >= 0")
        if self.probe_period_us <= 0:
            raise ValueError("probe_period_us must be positive")
        if self.vm_period_ms <= 0:
            raise ValueError("vm_period_ms must be positive")
        if not 0 < self.vm_batch_min <= self.vm_batch_max:
            raise ValueError(
                "need 0 < vm_batch_min <= vm_batch_max, got "
                f"{self.vm_batch_min}..{self.vm_batch_max}")
        if self.vm_vblks < 0:
            raise ValueError("vm_vblks must be >= 0")

    def to_dict(self):
        return {
            "dp_utilization": self.dp_utilization,
            "n_monitors": self.n_monitors,
            "rolling_tasks": self.rolling_tasks,
            "probe_period_us": self.probe_period_us,
            "vm_period_ms": self.vm_period_ms,
            "vm_batch_min": self.vm_batch_min,
            "vm_batch_max": self.vm_batch_max,
            "vm_vblks": self.vm_vblks,
        }

    @classmethod
    def from_value(cls, value):
        """Coerce a WorkloadMix or its dict; anything else is rejected."""
        if isinstance(value, cls):
            return value
        if not isinstance(value, dict):
            raise ValueError(
                f"workload must be a WorkloadMix or its dict, got "
                f"{type(value).__name__}")
        return cls(**check_spec_fields("workload", value, cls))


@dataclass
class Scenario:
    """One declarative system-under-test + workload configuration.

    ``arm`` is a ``DEPLOYMENTS`` name (or alias, e.g. ``baseline``);
    ``knobs`` are the arm's constructor knobs, validated at spec time.
    ``dp_boost``/``degradation`` require a Tai Chi-family arm.
    ``faults`` is a preset name, a FaultPlan dict, or a
    :class:`FaultPlan`; drivers scale it alongside their duration.
    ``alerts`` is a list of :class:`~repro.obs.alerts.AlertRule` dicts
    (SLO rules as data) that arm an SLO monitor on the soak driver's
    telemetry bus.
    """

    arm: str = "taichi"
    traffic: str = "bursty"
    workload: WorkloadMix = field(default_factory=WorkloadMix)
    knobs: dict = field(default_factory=dict)
    dp_boost: int = 0
    degradation: bool = False
    faults: object = None
    alerts: list = None
    tenants: list = None
    tenant_isolation: bool = True

    def __post_init__(self):
        if self.arm not in arm_names():
            raise ValueError(
                f"arm: unknown deployment class {self.arm!r}; "
                f"choose from {arm_names()}")
        if (not isinstance(self.traffic, str)
                or self.traffic not in TRAFFIC_PROFILES):
            raise ValueError(
                f"unknown traffic profile {self.traffic!r}; "
                f"choose from {sorted(TRAFFIC_PROFILES)}")
        self.workload = WorkloadMix.from_value(self.workload)
        if not isinstance(self.knobs, dict):
            raise ValueError(
                f"knobs must be a dict, got {type(self.knobs).__name__}")
        fields_in_knobs = sorted(TAICHI_POST_KNOBS & set(self.knobs))
        if fields_in_knobs:
            raise ValueError(
                f"scenario: knobs {fields_in_knobs} are Scenario fields; "
                f"set them there, not in knobs")
        cls = validate_knobs(self.arm, self.knobs)
        self.dp_boost = check_int("scenario", "dp_boost", self.dp_boost)
        for name in ("degradation", "tenant_isolation"):
            check_bool("scenario", name, getattr(self, name))
        if self.dp_boost < 0:
            raise ValueError("dp_boost must be >= 0")
        taichi_family = issubclass(cls, TaiChiDeployment)
        if self.dp_boost and not taichi_family:
            raise ValueError(
                f"dp_boost requires a Tai Chi deployment class, "
                f"got {self.arm!r}")
        if self.degradation and not taichi_family:
            raise ValueError(
                f"degradation requires a Tai Chi deployment class, "
                f"got {self.arm!r}")
        if isinstance(self.faults, str):
            if self.faults not in FAULT_PRESETS:
                raise ValueError(
                    f"faults: unknown fault preset {self.faults!r}; "
                    f"choose from {sorted(FAULT_PRESETS)}")
        elif isinstance(self.faults, dict):
            self.faults = FaultPlan.from_dict(self.faults)
        elif self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                "faults must be a preset name, a FaultPlan dict, or a "
                f"FaultPlan, got {type(self.faults).__name__}")
        if self.alerts is not None:
            from repro.obs.alerts import normalize_alert_rules

            if not isinstance(self.alerts, (list, tuple)):
                raise ValueError(
                    f"alerts must be a list of rule dicts, got "
                    f"{type(self.alerts).__name__}")
            self.alerts = normalize_alert_rules(self.alerts)
        if self.tenants is not None:
            # Lazy import: repro.tenancy.spec imports this module.
            from repro.tenancy.spec import normalize_tenants

            self.tenants = normalize_tenants(self.tenants)

    # -- Faults -------------------------------------------------------------------

    def fault_plan(self, scale=1.0):
        """Resolve ``faults`` to a :class:`FaultPlan` (or None), scaled."""
        if self.faults is None:
            return None
        plan = (FaultPlan.preset(self.faults)
                if isinstance(self.faults, str) else self.faults)
        if scale != 1.0:
            plan = plan.scaled(scale)
        return plan

    # -- Construction -------------------------------------------------------------

    def build(self, seed=0, fault_scale=1.0):
        """Construct this scenario's deployment with :func:`build`.

        When the scenario carries faults the deployment is built inside
        an ``active_fault_plan`` scope so it arms an injector; otherwise
        any externally active plan (``run --faults``) stays in effect.
        """
        knobs = dict(self.knobs)
        if self.dp_boost:
            knobs["dp_boost"] = self.dp_boost
        if self.degradation:
            knobs["degradation"] = True
        plan = self.fault_plan(fault_scale)
        if plan is None:
            return build(self.arm, seed=seed, **knobs)
        from repro.faults.session import active_fault_plan

        with active_fault_plan(plan):
            return build(self.arm, seed=seed, **knobs)

    # -- JSON round-trip ----------------------------------------------------------

    def to_dict(self):
        data = {
            "arm": self.arm,
            "traffic": self.traffic,
            "workload": self.workload.to_dict(),
        }
        if self.knobs:
            data["knobs"] = {key: knob_to_jsonable(value)
                             for key, value in self.knobs.items()}
        if self.dp_boost:
            data["dp_boost"] = self.dp_boost
        if self.degradation:
            data["degradation"] = True
        if self.faults is not None:
            data["faults"] = (self.faults if isinstance(self.faults, str)
                              else self.faults.to_dict())
        if self.alerts is not None:
            data["alerts"] = [rule.to_dict() for rule in self.alerts]
        if self.tenants is not None:
            data["tenants"] = [tenant.to_dict() for tenant in self.tenants]
            if not self.tenant_isolation:
                data["tenant_isolation"] = False
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(**check_spec_fields("scenario", data, cls))

    def to_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_json(cls, path):
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self):
        return (f"<Scenario arm={self.arm!r} traffic={self.traffic!r} "
                f"dp_boost={self.dp_boost} faults={bool(self.faults)}>")


def load_scenario(spec):
    """Resolve a CLI scenario argument: arm name or Scenario JSON path."""
    if isinstance(spec, Scenario):
        return spec
    if isinstance(spec, dict):
        return Scenario.from_dict(spec)
    if spec in arm_names():
        return Scenario(arm=spec)
    if isinstance(spec, str) and spec.endswith(".json"):
        return Scenario.from_json(spec)
    raise ValueError(
        f"expected an arm name ({arm_names()}) or a .json Scenario "
        f"file, got {spec!r}")
