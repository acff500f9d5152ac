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


# -- Wake-path fast paths ----------------------------------------------------------


def test_pinned_thread_is_placed_on_its_parking_cpu():
    # A CPU asked to go offline is a last resort for wake placement, but
    # the only CPU a pinned thread allows is still where it goes.
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(2):
        kernel.add_cpu(cpu_id)
    parking = kernel.cpus[1]
    assert parking.request_offline() and parking.offline_pending
    thread = kernel.spawn("pinned", iter(()), affinity={1})
    assert thread in parking.runqueue.threads()


def test_pinned_thread_on_an_offline_cpu_names_its_affinity():
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(2):
        kernel.add_cpu(cpu_id)
    kernel.offline_cpu(1)
    env.run(until=1 * MILLISECONDS)
    assert not kernel.cpus[1].online
    with pytest.raises(RuntimeError, match=r"affinity frozenset\(\{1\}\)"):
        kernel.spawn("pinned", iter(()), affinity={1})


def test_finished_threads_and_processes_die_by_refcount():
    """The cached wake callbacks (a thread's waker, a process's bound
    ``_resume``) are dropped at exit, so with the cycle collector off a
    finished thread and a finished process are freed at once."""
    import gc
    import weakref

    from repro.kernel import WaitEvent

    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    wake = env.timeout(5_000)

    def body():
        yield WaitEvent(wake)
        yield Compute(1_000)

    def proc():
        yield env.timeout(2_000)
        yield env.timeout(2_000)

    enabled = gc.isenabled()
    gc.disable()
    try:
        thread = kernel.spawn("t", body())
        process = env.process(proc())
        env.run(until=1 * MILLISECONDS)
        assert thread.done.processed and not process.is_alive
        assert thread.waker is None
        thread_ref, process_ref = weakref.ref(thread), weakref.ref(process)
        del thread, process
        assert thread_ref() is None
        assert process_ref() is None
    finally:
        if enabled:
            gc.enable()
