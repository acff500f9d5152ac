"""Idle-wait accounting for the DP poll loop.

An idle DP service waits on one timeout (its empty-poll budget) or on
the next arrival instead of simulating every empty ``rx_burst``, and
reports the polls that wait covered via ``Environment.note_fast_forward``.
These tests run that path under every default invariant checker on three
different workloads, and check the covered-poll count on an idle board.
"""

from repro.obs import observe
from repro.scenario import Scenario, build, run_soak
from repro.sim.units import MILLISECONDS
from repro.workloads import run_tcp_crr
from repro.workloads.background import start_cp_background

TENANTS = [
    {"tenant_id": "gold", "traffic": "steady",
     "workload": {"dp_utilization": 0.4, "n_monitors": 3,
                  "rolling_tasks": 3}},
    {"tenant_id": "bronze", "traffic": "spiky",
     "workload": {"dp_utilization": 0.4, "n_monitors": 3,
                  "rolling_tasks": 3}},
]


def _checked_soak(**scenario_kwargs):
    """Run a short soak under the invariant checkers; return its engine block."""
    with observe(check_invariants=True) as session:
        summary = run_soak(Scenario(**scenario_kwargs), seed=3,
                           duration_ns=30 * MILLISECONDS,
                           drain_ns=15 * MILLISECONDS,
                           fault_scale=0.4, label="idle")
        assert session.violations() == []
    return summary["engine"]


def test_fig12_network_scenario_idle_accounting():
    # The figure-12 workload off the soak path: closed-loop tcp_crr on a
    # built deployment, with CP hum in the background.
    with observe(check_invariants=True) as session:
        deployment = build("taichi", seed=0)
        start_cp_background(deployment, n_monitors=4, rolling_tasks=2)
        deployment.warmup()
        run_tcp_crr(deployment, 10 * MILLISECONDS, n_connections=64)
        assert session.violations() == []
    # tcp_crr keeps the DP busy; idle windows still appear in the lulls
    # and must be accounted.
    assert deployment.env.profile()["fast_forward_windows"] > 0


def test_multi_tenant_soak_idle_accounting():
    engine = _checked_soak(arm="taichi", tenants=TENANTS, traffic="bursty")
    assert engine["fast_forward_windows"] > 0
    assert engine["skipped_ratio"] > 0.2


def test_fault_storm_soak_idle_accounting():
    # The only invariant-checked run of the storm preset with the
    # degradation layer armed.
    engine = _checked_soak(arm="taichi", faults="storm", degradation=True)
    assert engine["fast_forward_windows"] > 0
    assert engine["events_skipped"] > 0


def test_idle_wait_covers_every_empty_poll():
    # An idle static board busy-polls with no traffic: each DP service's
    # single wait, ended at T, covers T // poll_ns empty polls, give or
    # take the poll in flight at the boundary.
    until = 5 * MILLISECONDS
    deployment = build("static", seed=0)
    env = deployment.env
    env.run(until=until)
    assert env.profile()["events_skipped"] == 0  # no wait has ended yet
    for service in deployment.services:
        service.shutdown()
    env.run()
    profile = env.profile()
    n_services = len(deployment.services)
    polls = until // deployment.services[0].params.poll_ns
    assert profile["fast_forward_windows"] == n_services
    assert abs(profile["events_skipped"] - n_services * polls) <= n_services
