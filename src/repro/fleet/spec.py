"""Declarative fleet scenarios: which boards, running what, under what.

A :class:`FleetSpec` describes a rack or pod of SmartNIC boards the way a
:class:`~repro.faults.plan.FaultPlan` describes a storm: plain data that
round-trips through JSON (``taichi-experiments fleet <spec.json>``) and
ships with named presets (``rack``, ``pod``).  Each :class:`NodeSpec`
is a node id plus a :class:`~repro.scenario.spec.Scenario`: an arm, a
workload mix, a traffic profile, and optionally a per-node fault plan —
so one spec can express OSMOSIS-style mixed-tenant racks (latency-sharp
nodes next to throughput hogs next to a node riding out a probe outage).

Seeds are never stored per node: the runner derives every node's seed
from the fleet root via :func:`repro.sim.rng.derive_seed`, which is what
makes results byte-identical at any ``--jobs`` level.
"""

import json
from dataclasses import dataclass, field, replace

from repro.fleet.durability import RetryPolicy, normalize_chaos
from repro.scenario.spec import Scenario, WorkloadMix
from repro.spec_fields import (
    check_bool,
    check_int,
    check_name,
    check_number,
    check_spec_fields,
)


@dataclass
class NodeSpec:
    """One SmartNIC board in the fleet: an id plus a :class:`Scenario`."""

    node_id: str
    scenario: Scenario = field(default_factory=Scenario)

    def __post_init__(self):
        check_name("node", "node_id", self.node_id)
        if isinstance(self.scenario, dict):
            self.scenario = Scenario.from_dict(self.scenario)
        if not isinstance(self.scenario, Scenario):
            raise ValueError(
                f"node {self.node_id!r}: scenario must be a Scenario or its "
                f"dict, got {type(self.scenario).__name__}")

    def to_dict(self):
        return {"node_id": self.node_id,
                "scenario": self.scenario.to_dict()}

    @classmethod
    def from_dict(cls, data):
        node_id = data.get("node_id") if isinstance(data, dict) else None
        owner = "node" if node_id is None else f"node {node_id!r}"
        return cls(**check_spec_fields(owner, data, cls))

    def __repr__(self):
        return f"<NodeSpec {self.node_id!r} {self.scenario!r}>"


@dataclass
class FleetSpec:
    """A whole rack/pod: nodes plus the fleet-level clock and SLO knobs.

    ``duration_ms``/``drain_ms`` are per-node simulated time (the runner
    scales both); ``dp_slo_us`` is the fleet-wide data-plane latency SLO
    each probe sample is scored against.  The VM-startup SLO lives with
    each node's device manager, as in the single-board experiments.

    ``telemetry_interval_ms`` is the per-node snapshot cadence
    when the runner is given a telemetry directory.  ``spans`` turns on
    causal request tracing on every node: each summary then carries its
    tail exemplars and the fleet aggregate a ``worst_requests`` table.

    ``retry`` is the fleet's durability contract — a
    :class:`~repro.fleet.durability.RetryPolicy` (or its dict) giving
    every node its attempt budget, backoff and per-attempt timeout.
    ``chaos`` injects worker faults for durability testing:
    ``{node_id: N}`` fails that node's first N attempts (``-1`` = every
    attempt; dict form adds ``"kind": "exception" | "crash"``).  Both
    are plain data and round-trip through spec JSON.
    """

    name: str
    nodes: list
    seed: int = 0
    duration_ms: float = 400.0
    drain_ms: float = 200.0
    dp_slo_us: float = 300.0
    telemetry_interval_ms: float = 10.0
    spans: bool = False
    retry: object = None
    chaos: object = None

    def __post_init__(self):
        check_name("fleet", "name", self.name)
        owner = f"fleet {self.name!r}"
        if not isinstance(self.nodes, (list, tuple)):
            raise ValueError(
                f"{owner}: nodes must be a list, got "
                f"{type(self.nodes).__name__}")
        self.nodes = [
            node if isinstance(node, NodeSpec) else NodeSpec.from_dict(node)
            for node in self.nodes
        ]
        if not self.nodes:
            raise ValueError("nodes: a fleet needs at least one node")
        seen = set()
        for node in self.nodes:
            if node.node_id in seen:
                raise ValueError(f"duplicate node_id {node.node_id!r}")
            seen.add(node.node_id)
        self.seed = check_int(owner, "seed", self.seed)
        for name in ("duration_ms", "drain_ms", "dp_slo_us",
                     "telemetry_interval_ms"):
            check_number(owner, name, getattr(self, name))
        check_bool(owner, "spans", self.spans)
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.drain_ms < 0:
            raise ValueError("drain_ms must be >= 0")
        if self.dp_slo_us <= 0:
            raise ValueError("dp_slo_us must be positive")
        if self.telemetry_interval_ms <= 0:
            raise ValueError("telemetry_interval_ms must be positive")
        if self.retry is not None:
            self.retry = RetryPolicy.from_value(self.retry)
        self.chaos = normalize_chaos(self.chaos)

    def with_seed(self, seed):
        """A copy rooted at a different seed (CLI ``--seed`` override)."""
        return replace(self, seed=int(seed), nodes=list(self.nodes))

    def subset(self, n_nodes):
        """A copy keeping only the first ``n_nodes`` (CLI ``--nodes``)."""
        n_nodes = int(n_nodes)
        if not 0 < n_nodes <= len(self.nodes):
            raise ValueError(
                f"--nodes must be in 1..{len(self.nodes)}, got {n_nodes}")
        return replace(self, nodes=list(self.nodes[:n_nodes]))

    def to_dict(self):
        data = {
            "name": self.name,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "drain_ms": self.drain_ms,
            "dp_slo_us": self.dp_slo_us,
            "nodes": [node.to_dict() for node in self.nodes],
        }
        if self.telemetry_interval_ms != 10.0:
            data["telemetry_interval_ms"] = self.telemetry_interval_ms
        if self.spans:
            data["spans"] = True
        if self.retry is not None:
            data["retry"] = self.retry.to_dict()
        if self.chaos:
            data["chaos"] = {node_id: dict(entry)
                             for node_id, entry in self.chaos.items()}
        return data

    def to_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_dict(cls, data):
        return cls(**check_spec_fields("fleet", data, cls))

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
                f"unknown fleet preset {name!r}; "
                f"choose from {sorted(PRESETS)}") from None
        return factory()

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        return f"<FleetSpec {self.name!r} nodes={len(self.nodes)}>"


def uniform_spec(name, deployment, n_nodes, seed=0, duration_ms=400.0,
                 drain_ms=200.0, dp_slo_us=300.0, traffic="bursty",
                 dp_boost=0, **workload):
    """A homogeneous fleet: every node the same class and mix.

    The scale-out experiment builds two of these (all-Tai Chi vs.
    all-static) over the *same* node ids so both arms draw identical
    per-node seeds.
    """
    scenario = Scenario(arm=deployment, traffic=traffic,
                        workload=WorkloadMix(**workload), dp_boost=dp_boost)
    nodes = [NodeSpec(f"node-{index:02d}", scenario)
             for index in range(n_nodes)]
    return FleetSpec(name=name, nodes=nodes, seed=seed,
                     duration_ms=duration_ms, drain_ms=drain_ms,
                     dp_slo_us=dp_slo_us)


def _rack():
    """8 boards, mixed tenants: the default top-of-rack scenario.

    Six Tai Chi nodes spanning the traffic profiles (one boosted, one
    riding out a probe outage behind the degradation layer) plus two
    static-partition stragglers for per-class comparison.
    """
    profiles = ["steady", "bursty", "spiky"]
    nodes = []
    for index in range(6):
        mix = WorkloadMix(
            dp_utilization=(0.20, 0.30, 0.45)[index % 3],
            vm_period_ms=(150.0, 100.0)[index % 2],
        )
        nodes.append(NodeSpec(f"rack-{index:02d}", Scenario(
            arm="taichi",
            traffic=profiles[index % 3],
            workload=mix,
            dp_boost=2 if index == 4 else 0,
            degradation=index == 5,
            faults="probe_outage" if index == 5 else None,
        )))
    for index in range(6, 8):
        nodes.append(NodeSpec(f"rack-{index:02d}", Scenario(
            arm="static",
            traffic=profiles[index % 3],
            workload=WorkloadMix(dp_utilization=0.30),
        )))
    return FleetSpec(name="rack", nodes=nodes)


def _pod():
    """64 boards: 8 racks with rack-to-rack drift, 3:1 Tai Chi:static."""
    profiles = ["steady", "bursty", "spiky"]
    nodes = []
    for rack_index in range(8):
        for slot in range(8):
            index = rack_index * 8 + slot
            static = slot >= 6  # two static stragglers per rack
            mix = WorkloadMix(
                dp_utilization=0.20 + 0.05 * (rack_index % 4),
                vm_period_ms=90.0 + 20.0 * (slot % 3),
                vm_batch_max=8 + 2 * (rack_index % 2),
            )
            nodes.append(NodeSpec(f"pod-{rack_index}-{slot}", Scenario(
                arm="static" if static else "taichi",
                traffic=profiles[(rack_index + slot) % 3],
                workload=mix,
                degradation=(not static) and slot == 5,
                faults="probe_outage" if (not static and slot == 5
                                          and rack_index % 4 == 0) else None,
            )))
    return FleetSpec(name="pod", nodes=nodes)


PRESETS = {
    "rack": _rack,
    "pod": _pod,
}


def load_fleet_spec(spec):
    """Resolve a CLI ``fleet`` argument: preset name or JSON path."""
    if spec in PRESETS:
        return FleetSpec.preset(spec)
    if spec.endswith(".json"):
        return FleetSpec.from_json(spec)
    raise ValueError(
        f"fleet expects a preset ({sorted(PRESETS)}) or a .json "
        f"FleetSpec file, got {spec!r}")
