"""FaultInjector effects, determinism, and injected/cleared pairing."""

import pytest

from repro.baselines import TaiChiDeployment
from repro.faults import FaultInjector, FaultPlan, FaultSpec, active_fault_plan
from repro.kernel import IPIVector
from repro.obs import observe
from repro.sim import MICROSECONDS, MILLISECONDS
from repro.workloads.background import start_cp_background, start_dp_background


def deploy(plan=None, seed=0):
    deployment = TaiChiDeployment(seed=seed)
    if plan is not None:
        deployment.fault_injector = FaultInjector(deployment, plan).arm()
    return deployment


def window(kind, at_ms, duration_ms, **params):
    return FaultSpec(kind, at_ns=at_ms * MILLISECONDS,
                     duration_ns=duration_ms * MILLISECONDS, params=params)


# -- session activation --------------------------------------------------------


def test_active_plan_arms_injector_on_deployment_build():
    plan = FaultPlan(name="t", faults=[window("probe_outage", 5, 5)])
    with active_fault_plan(plan):
        deployment = TaiChiDeployment(seed=0)
    assert deployment.fault_injector is not None
    assert deployment.fault_injector.plan is plan


def test_no_active_plan_means_no_injector():
    assert TaiChiDeployment(seed=0).fault_injector is None


def test_nested_none_suppresses_injection():
    plan = FaultPlan(name="t", faults=[window("probe_outage", 5, 5)])
    with active_fault_plan(plan), active_fault_plan(None):
        assert TaiChiDeployment(seed=0).fault_injector is None


# -- per-kind effects ----------------------------------------------------------


def test_cpu_offline_window_round_trips():
    plan = FaultPlan(name="t", faults=[window("cpu_offline", 1, 5, cpu="cp")])
    deployment = deploy(plan)
    target = deployment.board.cp_cpu_ids[-1]
    deployment.run(3 * MILLISECONDS)
    assert not deployment.kernel.cpus[target].online
    deployment.run(20 * MILLISECONDS)   # revert issues boot IPIs
    assert deployment.kernel.cpus[target].online


def test_cpu_offline_indexed_target():
    plan = FaultPlan(name="t",
                     faults=[window("cpu_offline", 1, 5, cpu="cp:0")])
    deployment = deploy(plan)
    target = deployment.board.cp_cpu_ids[0]
    deployment.run(3 * MILLISECONDS)
    assert not deployment.kernel.cpus[target].online


def test_cpu_offline_never_targets_a_dp_service_cpu():
    dp_cpu = 0
    plan = FaultPlan(name="t",
                     faults=[window("cpu_offline", 1, 5, cpu=dp_cpu)])
    deployment = deploy(plan)
    deployment.run(3 * MILLISECONDS)
    assert deployment.kernel.cpus[dp_cpu].online
    assert deployment.fault_injector.injected == 0


def test_vcpu_cost_spike_scales_and_reverts():
    plan = FaultPlan(name="t",
                     faults=[window("vcpu_cost_spike", 1, 2, factor=4.0)])
    deployment = deploy(plan)
    costs = deployment.taichi.config.costs
    base_enter, base_exit = costs.vmenter_ns, costs.vmexit_ns
    deployment.run(2 * MILLISECONDS)
    assert costs.vmenter_ns == base_enter * 4
    assert costs.vmexit_ns == base_exit * 4
    deployment.run(4 * MILLISECONDS)
    assert costs.vmenter_ns == base_enter
    assert costs.vmexit_ns == base_exit


def test_accel_stall_pushes_pipeline_horizon():
    plan = FaultPlan(name="t", faults=[window("accel_stall", 1, 2)])
    deployment = deploy(plan)
    deployment.run(2 * MILLISECONDS)
    assert deployment.board.accelerator.stall_until_ns == 3 * MILLISECONDS


def test_dp_stall_is_instant_and_hits_named_service():
    plan = FaultPlan(name="t", faults=[
        FaultSpec("dp_stall", at_ns=1 * MILLISECONDS,
                  params={"stall_ns": 500 * MICROSECONDS, "service": 1}),
    ])
    deployment = deploy(plan)
    deployment.run(2 * MILLISECONDS)
    injector = deployment.fault_injector
    assert deployment.services[1].stalls_injected == 1
    assert injector.injected == injector.cleared == 1


def test_probe_outage_toggles_probe_enable_bit():
    plan = FaultPlan(name="t", faults=[window("probe_outage", 1, 3)])
    deployment = deploy(plan)
    probe = deployment.board.hw_probe
    assert probe.enabled
    deployment.run(2 * MILLISECONDS)
    assert not probe.enabled
    deployment.run(5 * MILLISECONDS)
    assert probe.enabled


def test_ipi_drop_with_certain_probability_loses_delivery():
    plan = FaultPlan(name="t", faults=[window("ipi_drop", 1, 10, prob=1.0)])
    deployment = deploy(plan)
    deployment.run(2 * MILLISECONDS)
    kernel = deployment.kernel
    dst = kernel.cpus[deployment.board.cp_cpu_ids[0]]
    assert kernel.ipi.deliver(dst, IPIVector.RESCHED) is False
    assert kernel.ipi.dropped_fault == 1


def test_ipi_delay_stretches_delivery_latency():
    plan = FaultPlan(name="t", faults=[
        window("ipi_delay", 1, 10, prob=1.0,
               delay_ns=100 * MICROSECONDS)])
    deployment = deploy(plan)
    deployment.run(2 * MILLISECONDS)
    kernel = deployment.kernel
    dst = kernel.cpus[deployment.board.cp_cpu_ids[0]]
    before = kernel.ipi.delivered_count
    assert kernel.ipi.deliver(dst, IPIVector.RESCHED) is True
    deployment.run(deployment.env.now + 50 * MICROSECONDS)
    assert kernel.ipi.delivered_count == before   # still in flight
    deployment.run(deployment.env.now + 60 * MICROSECONDS)
    assert kernel.ipi.delivered_count == before + 1


# -- a short storm: pairing and determinism ------------------------------------


def _storm_run(seed):
    plan = FaultPlan(name="mini", faults=[
        window("ipi_drop", 5, 15, prob=0.4),
        window("probe_flaky", 8, 10,
               spurious_period_ns=20 * MICROSECONDS, suppress_prob=0.3),
        window("cpu_offline", 6, 8, cpu="cp"),
        window("vcpu_cost_spike", 10, 10, factor=6.0),
    ])
    with observe(trace=True, check_invariants=True) as session, \
            active_fault_plan(plan):
        deployment = TaiChiDeployment(seed=seed)
        start_dp_background(deployment, utilization=0.2)
        start_cp_background(deployment, n_monitors=2, rolling_tasks=2)
        deployment.warmup()
        deployment.run(40 * MILLISECONDS)
        events = [
            (event.ts_ns, event.cpu_id, event.kind,
             tuple(sorted(event.detail.items())))
            for event in session.events()
            if event.kind.startswith("fault.")
        ]
    return deployment.fault_injector, events


@pytest.fixture(scope="module")
def storm():
    return _storm_run(seed=3)


def test_storm_injects_and_clears_every_fault(storm):
    injector, events = storm
    assert injector.injected > 0
    assert injector.injected == injector.cleared
    injected = [dict(detail)["fault"] for _, _, kind, detail in events
                if kind == "fault.injected"]
    cleared = [dict(detail)["fault"] for _, _, kind, detail in events
               if kind == "fault.cleared"]
    assert len(injected) == injector.injected   # the trace holds them all
    assert sorted(injected) == sorted(cleared)
    assert len(set(injected)) == len(injected)


def test_identical_seeds_reproduce_identical_fault_traces(storm):
    _, first = storm
    _, second = _storm_run(seed=3)
    assert first == second


def test_different_seed_changes_the_fault_trace(storm):
    _, first = storm
    _, other = _storm_run(seed=11)
    assert first != other
