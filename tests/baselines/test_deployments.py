"""Tests for the deployment builders."""

import pytest

from repro.baselines import (
    DEPLOYMENTS,
    NaiveCoscheduleDeployment,
    StaticPartitionDeployment,
    TaiChiDeployment,
    TaiChiNoHwProbeDeployment,
    TaiChiVDPDeployment,
    Type2Deployment,
)
from repro.scenario import build
from repro.sim import MILLISECONDS


def test_registry_contains_all_systems():
    assert set(DEPLOYMENTS) == {
        "static", "taichi", "taichi-no-hw-probe", "taichi-vdp", "type2",
        "naive",
    }


def test_build_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown arm 'does-not-exist'"):
        build("does-not-exist")


def test_static_partition_shape():
    deployment = StaticPartitionDeployment(seed=0)
    assert len(deployment.services) == 8
    assert deployment.cp_affinity == set(deployment.board.cp_cpu_ids)
    assert deployment.taichi is None


def test_taichi_deployment_wires_framework():
    deployment = TaiChiDeployment(seed=0)
    deployment.warmup()
    assert deployment.taichi is not None
    assert deployment.taichi.installed
    assert all(s.idle_notifier is deployment.taichi.sw_probe
               for s in deployment.services)
    assert set(deployment.taichi.vcpu_ids()) <= deployment.cp_affinity


def test_no_hw_probe_variant_disables_probe():
    deployment = TaiChiNoHwProbeDeployment(seed=0)
    assert deployment.taichi.scheduler.hw_probe is None


def test_vdp_applies_guest_tax_to_dp_cpus():
    deployment = TaiChiVDPDeployment(seed=0, guest_tax=1.07)
    for cpu_id in deployment.board.dp_cpu_ids:
        assert deployment.board.kernel.cpus[cpu_id].work_tax == 1.07


def test_type2_loses_one_dp_cpu_and_scales_work():
    deployment = Type2Deployment(seed=0)
    assert len(deployment.services) == 7
    assert deployment.dp_params.work_scale > 1.0
    for cpu_id in deployment.board.cp_cpu_ids:
        assert deployment.board.kernel.cpus[cpu_id].work_tax > 1.0


def test_naive_coschedule_allows_cp_on_dp_cpus():
    deployment = NaiveCoscheduleDeployment(seed=0)
    assert set(deployment.board.dp_cpu_ids) <= deployment.cp_affinity


def test_storage_kind_deploys_storage_services():
    deployment = StaticPartitionDeployment(seed=0, dp_kind="storage")
    assert all(service.kind == "storage" for service in deployment.services)


def test_stats_shape():
    deployment = TaiChiDeployment(seed=0)
    deployment.warmup()
    stats = deployment.stats()
    assert stats["name"] == "taichi"
    assert "taichi" in stats


def test_same_seed_reproducible():
    def run_once():
        deployment = TaiChiDeployment(seed=42)
        deployment.run(20 * MILLISECONDS)
        return (deployment.env.now,
                deployment.taichi.scheduler.slices_run,
                deployment.dp_processing_ns())

    assert run_once() == run_once()
