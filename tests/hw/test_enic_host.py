"""Tests for eNIC devices and the host-node VM lifecycle."""

import pytest

from repro.baselines import StaticPartitionDeployment, TaiChiDeployment
from repro.hw import DeviceState, ENic, HostNode, PacketKind, VMSpec
from repro.sim import MILLISECONDS


def make_deployment():
    deployment = StaticPartitionDeployment(seed=20)
    deployment.warmup()
    return deployment


def test_enic_attach_creates_queues_on_service_cpu():
    deployment = make_deployment()
    service = deployment.services[0]
    device = ENic(deployment.board, vm_id=1, kind="net", n_queues=2)
    queue_ids = device.attach(service)
    assert device.state is DeviceState.READY
    assert len(queue_ids) == 2
    for queue_id in queue_ids:
        assert deployment.board.accelerator.queue_owner(queue_id) \
            == service.cpu_id
        assert queue_id in service.queue_ids


def test_enic_rejects_unknown_kind():
    deployment = make_deployment()
    with pytest.raises(ValueError):
        ENic(deployment.board, vm_id=1, kind="gpu")


def test_enic_submit_requires_ready_state():
    deployment = make_deployment()
    device = ENic(deployment.board, vm_id=1)
    with pytest.raises(RuntimeError):
        device.submit(64, service_ns=1_000)


def test_enic_traffic_flows_through_dp():
    deployment = make_deployment()
    device = ENic(deployment.board, vm_id=1, kind="net")
    device.attach(deployment.services[0])
    done = deployment.env.event()
    device.submit(256, service_ns=1_500, done=done)
    deployment.run(deployment.env.now + 5 * MILLISECONDS)
    assert done.triggered
    assert done.value.total_latency_ns > 0


def test_blk_device_defaults_to_storage_submit():
    deployment = StaticPartitionDeployment(seed=20, dp_kind="storage")
    deployment.warmup()
    device = ENic(deployment.board, vm_id=1, kind="blk")
    device.attach(deployment.services[0])
    done = deployment.env.event()
    request = device.submit(4096, service_ns=2_000, done=done)
    assert request.kind is PacketKind.STORAGE_SUBMIT
    deployment.run(deployment.env.now + 10 * MILLISECONDS)
    assert done.triggered


def test_host_create_vm_materializes_devices_during_cp_work():
    deployment = make_deployment()
    host = HostNode(deployment)
    vm = host.create_vm(VMSpec(n_vnics=1, n_vblks=4))
    assert not vm.running
    deployment.env.run(until=vm.request.done)
    assert vm.running
    assert len(vm.devices) == 5
    assert len(vm.vnics) == 1 and len(vm.vblks) == 4
    assert all(device.state is DeviceState.READY for device in vm.devices)
    assert vm.startup_time_ns() > 0


def test_vm_traffic_through_freshly_created_vnic():
    """The full Figure 1c loop: CP creates the path, DP then serves it."""
    deployment = TaiChiDeployment(seed=20)
    deployment.warmup()
    host = HostNode(deployment)
    vm = host.create_vm()
    deployment.env.run(until=vm.request.done)
    vnic = vm.vnics[0]
    done = deployment.env.event()
    vnic.submit(512, service_ns=1_500, done=done)
    deployment.run(deployment.env.now + 5 * MILLISECONDS)
    assert done.triggered


def test_devices_spread_across_services():
    deployment = make_deployment()
    host = HostNode(deployment)
    vm = host.create_vm(VMSpec(n_vnics=4, n_vblks=4))
    deployment.env.run(until=vm.request.done)
    owners = {device.service.cpu_id for device in vm.devices}
    assert len(owners) > 1


def test_destroy_vm_detaches_devices():
    deployment = make_deployment()
    host = HostNode(deployment)
    vm = host.create_vm()
    deployment.env.run(until=vm.request.done)
    host.destroy_vm(vm)
    assert vm not in host.vms
    assert all(device.state is DeviceState.REMOVED for device in vm.devices)
