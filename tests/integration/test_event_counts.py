"""Pin the engine's event counts on a short soak and a small fleet.

Host-side optimisations of the executor and the event primitives must be
event-neutral: every event created in the same order, at the same time,
with the same priority.  Simulated results can stay byte-identical while
an engine change adds or drops events (a relay hop collapsed, a timer no
longer scheduled), and that still breaks the repository benchmark:
fleet node metrics carry ``engine_events`` and ``engine_events_skipped``
inside the pinned ``fleet-rack-obs`` digest, so an engine change that
creates or drops events fails ``bench/`` even when nothing simulated
moved.  This test reports that failure by name, in the tier-1 suite,
before the benchmark does.  A change meant to alter event counts must
update these pins and re-pin the benchmark in the same change.

The packet-path case is a closed-loop ``tcp_rr`` run the way ``fig14``
runs it: each packet goes through ``Accelerator.submit``, the deposit
into its rx ``Store`` and the delivery ``Link.transfer``, so host-side
rewrites of those primitives are held to the same events.

The tenant soak runs with isolation on, so its CP threads are pinned to
their tenants' CPUs; it also holds newidle stealing to an exact cost.
"""

from unittest import mock

import pytest

from repro.fleet import FleetSpec, run_fleet
from repro.kernel import Kernel, RunQueue
from repro.scenario import Scenario, build, run_soak
from repro.sim.units import MILLISECONDS
from repro.workloads import run_tcp_rr
from repro.workloads.background import start_cp_background
from tests.tenancy.test_tenancy_soak import TENANTS

#: ``(events_processed, events_skipped)`` for a 40+10 ms taichi soak.
SOAK_EVENTS = (35_871, 121_869)

#: node id -> ``(engine_events, engine_events_skipped)`` for two rack
#: nodes at scale 0.075.
FLEET_EVENTS = {
    "rack-00": (32_528, 129_644),
    "rack-01": (36_350, 107_211),
}

#: ``(events_processed, events_skipped, packets)`` for a 3 ms, 128-client
#: ``tcp_rr`` run on the ``taichi`` arm at seed 0, after fig14's
#: background and warmup.
PACKET_PATH_EVENTS = (92_461, 512, 18_508)

#: ``(events_processed, events_skipped, kernel.steals)`` for a 30+15 ms
#: isolation-on soak of ``TENANTS`` at seed 11.
TENANT_EVENTS = (42_212, 103_378, 4)


def test_taichi_soak_event_counts_are_pinned():
    summary = run_soak(Scenario(arm="taichi"), seed=0,
                       duration_ns=40 * MILLISECONDS,
                       drain_ns=10 * MILLISECONDS)
    engine = summary["engine"]
    assert (engine["events_processed"],
            engine["events_skipped"]) == SOAK_EVENTS


def test_rack_fleet_event_counts_are_pinned():
    report = run_fleet(FleetSpec.preset("rack").subset(2), jobs=1,
                       scale=0.075)
    counts = {node["node_id"]: (node["metrics"]["engine_events"],
                                node["metrics"]["engine_events_skipped"])
              for node in report["nodes"]}
    assert counts == FLEET_EVENTS


def test_packet_path_event_counts_are_pinned():
    deployment = build("taichi", seed=0)
    start_cp_background(deployment, n_monitors=4, rolling_tasks=3)
    deployment.warmup()
    run_tcp_rr(deployment, 3 * MILLISECONDS, n_connections=128)
    engine = deployment.env.profile()
    assert (engine["events_processed"], engine["events_skipped"],
            deployment.board.accelerator.packets_processed
            ) == PACKET_PATH_EVENTS


@pytest.fixture(scope="module")
def tenant_soak():
    """The tenant soak, with its kernels and every victim scan recorded.

    Returns ``(summary, kernels, scans)``: ``scans`` holds what each
    ``RunQueue.steal_candidate`` call found (``None`` for nothing).
    """
    kernels, scans = set(), []
    steal_work, steal_candidate = Kernel.steal_work, RunQueue.steal_candidate

    def recording_steal_work(kernel, idle_cpu):
        kernels.add(kernel)
        return steal_work(kernel, idle_cpu)

    def recording_steal_candidate(runqueue, cpu_id):
        scans.append(steal_candidate(runqueue, cpu_id))
        return scans[-1]

    with mock.patch.object(Kernel, "steal_work", recording_steal_work), \
            mock.patch.object(RunQueue, "steal_candidate",
                              recording_steal_candidate):
        summary = run_soak(Scenario(arm="taichi", tenants=TENANTS), seed=11,
                           duration_ns=30 * MILLISECONDS,
                           drain_ns=15 * MILLISECONDS, label="tenant-soak")
    return summary, kernels, scans


def test_tenant_soak_event_counts_are_pinned(tenant_soak):
    summary, kernels, _ = tenant_soak
    assert summary["tenancy"]["isolation"] is True
    engine = summary["engine"]
    assert (engine["events_processed"], engine["events_skipped"],
            sum(kernel.steals for kernel in kernels)) == TENANT_EVENTS


def test_every_victim_scan_gives_up_a_thread(tenant_soak):
    """The steal-cost gate: a victim queue with no fair thread allowed on
    the idle CPU is skipped unscanned, so each scan ends in a steal."""
    _, kernels, scans = tenant_soak
    steals = sum(kernel.steals for kernel in kernels)
    assert steals > 0
    assert None not in scans
    assert len(scans) == steals
