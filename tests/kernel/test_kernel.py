"""Tests for the kernel façade: placement, wake, hotplug."""

import pytest

from repro.kernel import Compute, CpuState, Kernel, Sleep
from repro.sim import Environment, MILLISECONDS
from repro.virt import VirtualCPU


def test_add_cpu_rejects_duplicates():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    with pytest.raises(ValueError):
        kernel.add_cpu(0)


def test_spawn_requires_satisfiable_affinity():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    with pytest.raises(RuntimeError):
        kernel.spawn("t", iter(()), affinity={"nonexistent"})


def test_threads_balance_across_idle_cpus():
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(4):
        kernel.add_cpu(cpu_id)
    threads = [
        kernel.spawn(f"t{i}", iter([Compute(1 * MILLISECONDS)]))
        for i in range(4)
    ]
    env.run()
    used = {thread.last_cpu for thread in threads}
    assert len(used) == 4  # one per CPU


def test_affinity_respected():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu(1)

    def body():
        yield Compute(100)
        yield Sleep(1000)
        yield Compute(100)

    thread = kernel.spawn("pinned", body(), affinity={1})
    env.run()
    assert thread.last_cpu == 1


def test_wake_prefers_last_cpu_when_idle():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu(1)

    def body():
        yield Compute(100)
        yield Sleep(5 * MILLISECONDS)
        yield Compute(100)

    thread = kernel.spawn("t", body())
    env.run()
    assert thread.last_cpu is not None


def test_offline_cpu_boots_through_ipis():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    offline = kernel.add_cpu("extra", online=False)
    assert not offline.online
    kernel.boot_cpu("extra")
    env.run(until=1 * MILLISECONDS)
    assert offline.online


def test_thread_runs_on_hotplugged_cpu():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu("extra", online=False)
    kernel.boot_cpu("extra")
    env.run(until=1 * MILLISECONDS)
    thread = kernel.spawn("t", iter([Compute(1000)]), affinity={"extra"})
    env.run()
    assert thread.last_cpu == "extra"
    assert thread.done.triggered


def test_finished_threads_counter():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    for index in range(3):
        kernel.spawn(f"t{index}", iter([Compute(100)]))
    env.run()
    assert kernel.finished_threads == 3
    assert not kernel.threads  # all reaped


def test_placement_cache_sees_a_vcpu_registered_after_first_placement():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    hog = kernel.spawn("hog", iter([Compute(MILLISECONDS)]),
                       affinity={0, "v0"})
    assert kernel.select_cpu(hog) is kernel.cpus[0]  # only candidate so far
    vcpu = kernel.register_cpu(VirtualCPU(kernel, "v0", online=True))
    # CPU 0 now carries the hog (load 1); the unbacked vCPU (load 0.5) wins.
    assert kernel.select_cpu(hog) is vcpu


def test_placement_follows_set_affinity():
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(3):
        kernel.add_cpu(cpu_id)

    def body():
        yield Compute(100)
        yield Sleep(1 * MILLISECONDS)
        yield Compute(100)

    thread = kernel.spawn("t", body(), affinity={0})
    env.run(until=500_000)
    assert thread.last_cpu == 0
    kernel.set_affinity(thread, {2})
    env.run()
    assert thread.last_cpu == 2
    assert kernel.select_cpu(thread) is kernel.cpus[2]


def test_online_follows_the_hotplug_lifecycle():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    cpu = kernel.add_cpu("extra", online=False)
    assert cpu.state is CpuState.OFFLINE and not cpu.online
    kernel.boot_cpu("extra")
    env.run(until=100_000)  # IPIs delivered, boot still in progress
    assert cpu.state is CpuState.BOOTING and not cpu.online
    env.run(until=1 * MILLISECONDS)
    assert cpu.online
    assert cpu.request_offline()
    assert cpu.online and cpu.offline_pending  # parks at its next boundary
    env.run(until=2 * MILLISECONDS)
    assert cpu.state is CpuState.OFFLINE and not cpu.online
    assert not cpu.offline_pending
