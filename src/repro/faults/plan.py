"""Declarative fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries — *what* goes
wrong, *when*, and with which parameters — decoupled from the
:class:`~repro.faults.injector.FaultInjector` that knows *how* to perturb a
live deployment.  Plans are plain data: they round-trip through JSON
(``taichi-experiments run --faults <spec.json>``) and ship with named
presets (``--faults storm``).

All times are simulation nanoseconds measured from environment start.
:meth:`FaultPlan.scaled` shrinks/stretches every timestamp, duration and
period by one factor so the same storm fits a CI-scale run.
"""

import json
from dataclasses import dataclass, field

from repro.sim.units import MICROSECONDS, MILLISECONDS, SECONDS
from repro.spec_fields import (
    check_fields,
    check_int,
    check_name,
    check_spec_fields,
)

#: Recognized fault kinds and the parameters each understands.
FAULT_KINDS = {
    "ipi_drop": ("prob",),
    "ipi_delay": ("prob", "delay_ns"),
    "probe_outage": (),
    "probe_flaky": ("spurious_period_ns", "suppress_prob"),
    "accel_stall": (),
    "vcpu_cost_spike": ("factor",),
    "cpu_offline": ("cpu",),
    "dp_stall": ("stall_ns", "service"),
}

#: Kinds whose effect is a one-shot injection rather than a window.
INSTANT_KINDS = frozenset({"dp_stall"})


@dataclass
class FaultSpec:
    """One fault: ``kind`` active from ``at_ns`` for ``duration_ns``.

    ``repeat``/``period_ns`` turn a single window into a storm of
    identical windows.  ``params`` carries kind-specific knobs (see
    :data:`FAULT_KINDS`).
    """

    kind: str
    at_ns: int
    duration_ns: int = 0
    repeat: int = 1
    period_ns: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(FAULT_KINDS)}")
        owner = f"fault {self.kind!r}"
        for name in ("at_ns", "duration_ns", "repeat", "period_ns"):
            setattr(self, name, check_int(owner, name, getattr(self, name)))
        if not isinstance(self.params, dict):
            raise ValueError(
                f"{owner}: params must be a dict, got "
                f"{type(self.params).__name__}")
        if self.at_ns < 0:
            raise ValueError("at_ns must be >= 0")
        if self.duration_ns < 0:
            raise ValueError("duration_ns must be >= 0")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if self.repeat > 1 and self.period_ns <= 0:
            raise ValueError("repeat > 1 requires a positive period_ns")
        allowed = set(FAULT_KINDS[self.kind])
        unknown = set(self.params) - allowed
        if unknown:
            raise ValueError(
                f"fault {self.kind!r} does not take parameters "
                f"{sorted(unknown)}; allowed: {sorted(allowed)}")
        if self.kind not in INSTANT_KINDS and self.duration_ns == 0:
            raise ValueError(f"fault {self.kind!r} needs a duration_ns")

    def occurrences(self):
        """Start times of every window this spec expands to."""
        return [self.at_ns + i * self.period_ns for i in range(self.repeat)]

    def to_dict(self):
        data = {"kind": self.kind, "at_ns": self.at_ns}
        if self.duration_ns:
            data["duration_ns"] = self.duration_ns
        if self.repeat != 1:
            data["repeat"] = self.repeat
            data["period_ns"] = self.period_ns
        if self.params:
            data["params"] = dict(self.params)
        return data


@dataclass
class FaultPlan:
    """An ordered set of fault specs plus a name for reports."""

    faults: list
    name: str = "custom"

    def __post_init__(self):
        check_name("fault plan", "name", self.name)
        if not isinstance(self.faults, (list, tuple)):
            raise ValueError(
                f"fault plan {self.name!r}: faults must be a list, got "
                f"{type(self.faults).__name__}")
        self.faults = [
            spec if isinstance(spec, FaultSpec) else FaultSpec(
                **check_spec_fields(
                    f"fault plan {self.name!r} fault #{index}", spec,
                    FaultSpec))
            for index, spec in enumerate(self.faults)
        ]

    def scaled(self, factor, min_at_ns=3 * MILLISECONDS,
               min_duration_ns=1 * MILLISECONDS):
        """A copy with every time knob multiplied by ``factor``.

        Floors keep a heavily shrunk plan meaningful: windows never start
        inside the deployment warmup and never collapse to zero length.
        Magnitude parameters (probabilities, cost factors, per-IPI delay)
        are left untouched — only *when*, not *how hard*.
        """
        factor = float(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        scaled = []
        for spec in self.faults:
            params = dict(spec.params)
            if "stall_ns" in params:
                params["stall_ns"] = max(
                    int(params["stall_ns"] * factor), 100 * MICROSECONDS)
            scaled.append(FaultSpec(
                kind=spec.kind,
                at_ns=max(int(spec.at_ns * factor), min_at_ns),
                duration_ns=(max(int(spec.duration_ns * factor),
                                 min_duration_ns)
                             if spec.duration_ns else 0),
                repeat=spec.repeat,
                period_ns=(max(int(spec.period_ns * factor),
                               min_duration_ns)
                           if spec.period_ns else 0),
                params=params,
            ))
        return FaultPlan(faults=scaled, name=self.name)

    def to_dict(self):
        return {"name": self.name,
                "faults": [spec.to_dict() for spec in self.faults]}

    def to_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_dict(cls, data):
        check_fields("fault plan", data, ("faults", "name"))
        return cls(faults=data.get("faults", []),
                   name=data.get("name", "custom"))

    @classmethod
    def from_json(cls, path):
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def preset(cls, name):
        try:
            factory = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown fault preset {name!r}; "
                f"choose from {sorted(PRESETS)}") from None
        return factory()

    def __len__(self):
        return len(self.faults)

    def __repr__(self):
        return f"<FaultPlan {self.name!r} faults={len(self.faults)}>"


def _storm():
    """The default fault storm: every seam hit over a ~1 s horizon."""
    return FaultPlan(name="storm", faults=[
        # The probe goes dark: V-state packets stop firing preempt IRQs,
        # so donated slices run to (adaptive, growing) expiry.
        FaultSpec("probe_outage", at_ns=100 * MILLISECONDS,
                  duration_ns=250 * MILLISECONDS),
        # Then it comes back lying: spurious preempt IRQs and suppressed
        # real ones.
        FaultSpec("probe_flaky", at_ns=450 * MILLISECONDS,
                  duration_ns=150 * MILLISECONDS,
                  params={"spurious_period_ns": 10 * MICROSECONDS,
                          "suppress_prob": 0.25}),
        # Cross-boundary IPIs get lossy — hotplug boot IPIs included.
        FaultSpec("ipi_drop", at_ns=100 * MILLISECONDS,
                  duration_ns=700 * MILLISECONDS, params={"prob": 0.6}),
        FaultSpec("ipi_delay", at_ns=850 * MILLISECONDS,
                  duration_ns=200 * MILLISECONDS,
                  params={"prob": 0.5, "delay_ns": 30 * MICROSECONDS}),
        # Two CP pCPUs flap offline/online; every re-online rides boot
        # IPIs through the lossy window above, so without retry a CP pCPU
        # can stay down for the rest of the storm.
        FaultSpec("cpu_offline", at_ns=150 * MILLISECONDS,
                  duration_ns=60 * MILLISECONDS, repeat=3,
                  period_ns=200 * MILLISECONDS, params={"cpu": "cp"}),
        FaultSpec("cpu_offline", at_ns=250 * MILLISECONDS,
                  duration_ns=60 * MILLISECONDS, repeat=2,
                  period_ns=250 * MILLISECONDS, params={"cpu": "cp:-2"}),
        # vCPU switches get 8x more expensive for a stretch.
        FaultSpec("vcpu_cost_spike", at_ns=300 * MILLISECONDS,
                  duration_ns=100 * MILLISECONDS, params={"factor": 8.0}),
        # The accelerator pipeline wedges briefly, twice.
        FaultSpec("accel_stall", at_ns=700 * MILLISECONDS,
                  duration_ns=int(1.5 * MILLISECONDS), repeat=2,
                  period_ns=100 * MILLISECONDS),
        # A DP service hangs in a non-preemptible routine, twice.
        FaultSpec("dp_stall", at_ns=500 * MILLISECONDS, repeat=2,
                  period_ns=150 * MILLISECONDS,
                  params={"stall_ns": 1 * MILLISECONDS, "service": 0}),
    ])


def _ipi_storm():
    return FaultPlan(name="ipi_storm", faults=[
        FaultSpec("ipi_drop", at_ns=50 * MILLISECONDS,
                  duration_ns=400 * MILLISECONDS, params={"prob": 0.6}),
        FaultSpec("ipi_delay", at_ns=500 * MILLISECONDS,
                  duration_ns=300 * MILLISECONDS,
                  params={"prob": 0.6, "delay_ns": 50 * MICROSECONDS}),
        FaultSpec("cpu_offline", at_ns=100 * MILLISECONDS,
                  duration_ns=50 * MILLISECONDS, repeat=4,
                  period_ns=120 * MILLISECONDS, params={"cpu": "cp"}),
    ])


def _probe_outage():
    return FaultPlan(name="probe_outage", faults=[
        FaultSpec("probe_outage", at_ns=50 * MILLISECONDS,
                  duration_ns=int(0.8 * SECONDS)),
    ])


PRESETS = {
    "storm": _storm,
    "ipi_storm": _ipi_storm,
    "probe_outage": _probe_outage,
}


def load_plan(spec):
    """Resolve a CLI ``--faults`` argument: preset name or JSON path."""
    if spec in PRESETS:
        return FaultPlan.preset(spec)
    if spec.endswith(".json"):
        return FaultPlan.from_json(spec)
    raise ValueError(
        f"--faults expects a preset ({sorted(PRESETS)}) or a .json "
        f"FaultPlan file, got {spec!r}")
