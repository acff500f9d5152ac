"""``repro.fleet`` — parallel multi-board scale-out.

Every experiment elsewhere in this repo simulates exactly one SmartNIC;
the paper's headline claim is a hyperscale *fleet* (Section 6.6: three
years in production, no I/O SLO violations fleet-wide).  This subsystem
closes that gap: a declarative :class:`FleetSpec` describes a rack/pod
of boards (per-node deployment class, workload mix, traffic profile,
optional fault plan), :class:`FleetRunner` fans the nodes out across a
process pool, and :mod:`repro.fleet.aggregate` merges the per-node
summaries into fleet-wide percentiles, SLO-attainment rates and
per-deployment-class comparisons.

Typical use from the CLI::

    taichi-experiments fleet rack --jobs 4 --out fleet.md

or programmatically::

    from repro.fleet import FleetSpec, run_fleet

    report = run_fleet(FleetSpec.preset("rack"), jobs=4, scale=0.25)
    print(report["aggregate"]["fleet"]["dp_latency_us"]["p99"])

See ``docs/fleet.md`` for the scenario format and determinism contract.
"""

from repro.fleet.aggregate import (
    aggregate_fleet,
    aggregate_nodes,
    aggregate_tenants,
    worst_nodes,
)
from repro.fleet.durability import (
    CheckpointError,
    FleetCheckpoint,
    FleetRunFailed,
    InjectedWorkerFault,
    RetryPolicy,
    verify_fleet_report,
)
from repro.fleet.node import node_seed, run_node
from repro.fleet.pool import Outcome, pool_outcomes
from repro.fleet.report import (
    canonical_report,
    fleet_markdown,
    format_fleet_text,
    write_fleet_json,
    write_fleet_md,
)
from repro.fleet.runner import FleetRunner, run_fleet
from repro.fleet.telemetry import (
    load_fleet_telemetry,
    load_merged_series,
    merge_interval_series,
    render_top,
    write_fleet_telemetry,
)
from repro.fleet.spec import (
    FleetSpec,
    NodeSpec,
    PRESETS,
    load_fleet_spec,
    uniform_spec,
)

__all__ = [
    "CheckpointError",
    "FleetCheckpoint",
    "FleetRunFailed",
    "FleetRunner",
    "FleetSpec",
    "InjectedWorkerFault",
    "NodeSpec",
    "Outcome",
    "PRESETS",
    "RetryPolicy",
    "aggregate_fleet",
    "aggregate_nodes",
    "aggregate_tenants",
    "canonical_report",
    "fleet_markdown",
    "format_fleet_text",
    "load_fleet_spec",
    "load_fleet_telemetry",
    "load_merged_series",
    "merge_interval_series",
    "node_seed",
    "pool_outcomes",
    "render_top",
    "run_fleet",
    "run_node",
    "uniform_spec",
    "verify_fleet_report",
    "worst_nodes",
    "write_fleet_json",
    "write_fleet_telemetry",
    "write_fleet_md",
]
