"""Tests for the background load generators."""


from repro.baselines import StaticPartitionDeployment, TaiChiDeployment
from repro.sim import MILLISECONDS
from repro.workloads.background import start_cp_background, start_dp_background


def test_dp_background_hits_target_utilization():
    deployment = StaticPartitionDeployment(seed=1)
    start_dp_background(deployment, utilization=0.30)
    deployment.run(500 * MILLISECONDS)
    utils = [service.utilization(deployment.env.now)
             for service in deployment.services]
    average = sum(utils) / len(utils)
    assert 0.20 < average < 0.42  # bursty, but centered near the target


def test_dp_background_scales_with_target():
    def measure(target):
        deployment = StaticPartitionDeployment(seed=1)
        start_dp_background(deployment, utilization=target)
        deployment.run(300 * MILLISECONDS)
        return sum(s.processing_ns for s in deployment.services)

    low = measure(0.10)
    high = measure(0.50)
    assert high > low * 3


def test_dp_background_has_idle_windows():
    """Burstiness leaves harvestable gaps (Tai Chi finds yields)."""
    deployment = TaiChiDeployment(seed=1)
    start_dp_background(deployment, utilization=0.30)
    start_cp_background(deployment, n_monitors=2, rolling_tasks=4)
    deployment.run(300 * MILLISECONDS)
    assert deployment.taichi.sw_probe.notifications > 10
    assert deployment.taichi.scheduler.slices_run > 10


def test_dp_background_duration_bounded():
    deployment = StaticPartitionDeployment(seed=1)
    start_dp_background(deployment, utilization=0.30,
                        duration_ns=50 * MILLISECONDS)
    deployment.run(300 * MILLISECONDS)
    early = sum(s.processing_ns for s in deployment.services)
    deployment.run(600 * MILLISECONDS)
    late = sum(s.processing_ns for s in deployment.services)
    # Sources stop near the deadline (the in-progress burst may linger).
    assert late < early * 1.5


def test_cp_background_spawns_monitors_and_rollers():
    deployment = StaticPartitionDeployment(seed=1)
    monitors, rollers = start_cp_background(deployment, n_monitors=3,
                                            rolling_tasks=2)
    assert len(monitors) == 3
    assert len(rollers) == 2
    deployment.run(100 * MILLISECONDS)
    assert all(monitor.cycles > 0 for monitor in monitors)


def test_cp_background_respects_affinity():
    deployment = StaticPartitionDeployment(seed=1)
    start_cp_background(deployment, n_monitors=2, rolling_tasks=2)
    deployment.run(100 * MILLISECONDS)
    dp_busy = sum(deployment.kernel.cpus[c].busy_ns
                  for c in deployment.board.dp_cpu_ids)
    # Only the idle DP pollers' own dispatch costs; no CP work leaked over.
    assert dp_busy < 1 * MILLISECONDS
