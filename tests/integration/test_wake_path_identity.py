"""Byte-identity guard for the DP wake path and wake placement.

Each case runs a short simulation over one path the idle wait, the rx
doorbell or affinity-indexed placement touches, and compares the sha256
of its canonical JSON summary (``engine`` and ``timing`` blocks dropped,
as the repository benchmark does) against a digest recorded before the
wake path was rewritten.  A mismatch means the rewrite changed simulated
behaviour, not just host time.  The digests are fixed: never regenerate
them to make a failing case pass.
"""

import hashlib
import json

import pytest

from repro.core import DynamicRepartitioner
from repro.scenario import Scenario, build, run_soak
from repro.sim.units import MILLISECONDS
from repro.workloads.background import (
    start_cp_background, start_dp_background,
)

VOLATILE_KEYS = frozenset({"engine", "timing"})

TENANTS = [
    {"tenant_id": "gold", "weight": 3.0, "traffic": "bursty",
     "workload": {"dp_utilization": 0.4, "n_monitors": 3,
                  "rolling_tasks": 3, "vm_period_ms": 15.0}},
    {"tenant_id": "bronze", "traffic": "bursty",
     "workload": {"dp_utilization": 0.4, "n_monitors": 3,
                  "rolling_tasks": 3, "vm_period_ms": 15.0}},
]

#: case -> (Scenario kwargs, seed)
SOAKS = {
    # Default VM storms (seed 4 starts one inside 40 ms): every VM
    # attaches eNICs whose queues the DP services adopt, so the poll set
    # grows over the run.
    "taichi-storms": (dict(arm="taichi", traffic="steady"), 4),
    # CPU hotplug through INIT/STARTUP boot IPIs under the degradation
    # layer.
    "fault-storm": (dict(arm="taichi", faults="storm", degradation=True), 1),
    # cp_to_dp after warmup: a fresh DP service joins mid-run.
    "dp-boost": (dict(arm="taichi", dp_boost=1), 1),
    "two-tenants-bursty": (dict(arm="taichi", tenants=TENANTS), 1),
}

#: Recorded on the commit before the doorbell and the placement cache.
DIGESTS = {
    "taichi-storms":
        "80532d02e14391e08216ae8df5b376395051fab8e20cb9f97ea92f7f204b03a1",
    "fault-storm":
        "7572a5a028fcbf66c7e24a03dd8d22b1472c6e9ebd851e4fe5e691a603109987",
    "dp-boost":
        "caf3835e868562c1e112214587eced51aad138b2f71639ac44ca6bf5550da048",
    "two-tenants-bursty":
        "f18a23c316f121f4ef5bd4d92ad6029eb5114ecf9710efb84b4f9a6a031c5be5",
    "dp-to-cp":
        "b02cd35f95ab7d60cb3f22b8ebf41a56b73f76e8e589f8b3a5cc058670e8428e",
}


def _strip(value):
    if isinstance(value, dict):
        return {key: _strip(item) for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    return value


def digest(summary):
    canonical = json.dumps(_strip(summary), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def soak_summary(case):
    kwargs, seed = SOAKS[case]
    return run_soak(Scenario(**kwargs), seed=seed,
                    duration_ns=40 * MILLISECONDS,
                    drain_ns=10 * MILLISECONDS, fault_scale=0.1)


def repartition_summary():
    """Retire one DP CPU mid-traffic: the survivor adopts its queues,
    then the retired service shuts down."""
    deployment = build("taichi", seed=2)
    start_cp_background(deployment, n_monitors=3, rolling_tasks=2)
    start_dp_background(deployment, utilization=0.4)
    deployment.warmup()
    env = deployment.env
    retired = deployment.services[-1]
    deployment.run(env.now + 15 * MILLISECONDS)
    DynamicRepartitioner(deployment).dp_to_cp(1)
    deployment.run(env.now + 20 * MILLISECONDS)
    return {
        "now": env.now,
        "services": {service.name: service.metrics_snapshot()
                     for service in [*deployment.services, retired]},
        "retired_queues": [list(queue_id) for queue_id in retired.queue_ids],
        "kernel": deployment.kernel.metrics_snapshot(),
        "accelerator_packets": deployment.board.accelerator.packets_processed,
        "stats": deployment.stats(),
    }


@pytest.mark.parametrize("case", sorted(SOAKS))
def test_soak_summary_is_byte_identical(case):
    assert digest(soak_summary(case)) == DIGESTS[case]


def test_dp_to_cp_run_is_byte_identical():
    assert digest(repartition_summary()) == DIGESTS["dp-to-cp"]
