"""Tests for affinity changes, work stealing, and idle callbacks."""

from repro.kernel import Compute, Kernel, SchedClass
from repro.sim import Environment, MICROSECONDS, MILLISECONDS, SECONDS


def test_set_affinity_replaces_queued_thread():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu(1)
    # Occupy CPU 0 so the victim stays queued there.
    kernel.spawn("hog", iter([Compute(10 * MILLISECONDS)]), affinity={0})
    victim = kernel.spawn("victim", iter([Compute(1 * MILLISECONDS)]),
                          affinity={0})
    env.run(until=100 * MICROSECONDS)
    kernel.set_affinity(victim, {1})
    env.run(until=5 * MILLISECONDS)
    assert victim.done.triggered
    assert victim.last_cpu == 1


def test_set_affinity_migrates_running_thread():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu(1)

    def body():
        for _ in range(20):
            yield Compute(500 * MICROSECONDS)

    thread = kernel.spawn("runner", body(), affinity={0})
    env.run(until=1 * MILLISECONDS)
    assert thread.cpu.cpu_id == 0
    kernel.set_affinity(thread, {1})
    env.run(until=3 * MILLISECONDS)
    assert thread.last_cpu == 1


def test_steal_work_from_congested_cpu():
    from repro.kernel import KThread

    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu(1)
    # Stack four threads directly on CPU 0's queue; idle CPU 1 must pull.
    threads = []
    for index in range(4):
        thread = KThread(f"t{index}", iter([Compute(2 * MILLISECONDS)]),
                         affinity={0, 1})
        thread.done = env.event()
        kernel.threads[thread.tid] = thread
        kernel.cpus[0].enqueue(thread)
        threads.append(thread)
    env.run(until=1 * SECONDS)
    assert all(thread.done.triggered for thread in threads)
    assert {thread.last_cpu for thread in threads} == {0, 1}
    assert kernel.steals >= 1


def test_steal_respects_affinity():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu(1)
    threads = [
        kernel.spawn(f"t{i}", iter([Compute(2 * MILLISECONDS)]),
                     affinity={0})
        for i in range(3)
    ]
    env.run(until=1 * SECONDS)
    assert all(thread.last_cpu == 0 for thread in threads)


def test_steal_never_takes_realtime_threads():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.add_cpu(1)
    kernel.spawn("hog", iter([Compute(5 * MILLISECONDS)]), affinity={0, 1})
    rt = kernel.spawn("rt", iter([Compute(2 * MILLISECONDS)]),
                      affinity={0, 1}, sched_class=SchedClass.REALTIME)
    fair = kernel.spawn("fair", iter([Compute(2 * MILLISECONDS)]),
                        affinity={0, 1})
    env.run(until=1 * SECONDS)
    assert rt.done.triggered and fair.done.triggered


def test_idle_callback_invoked():
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    calls = []
    kernel.idle_callbacks.append(lambda cpu: calls.append(cpu.cpu_id) or False)
    kernel.spawn("t", iter([Compute(100 * MICROSECONDS)]))
    env.run(until=1 * MILLISECONDS)
    assert 0 in calls


def test_placement_penalizes_unbacked_vcpus():
    from repro.virt import VirtualCPU

    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    vcpu = kernel.add_cpu("v0", online=False, cpu_cls=VirtualCPU)
    kernel.boot_cpu("v0")
    env.run(until=1 * MILLISECONDS)
    thread = kernel.spawn("t", iter([Compute(100 * MICROSECONDS)]),
                          affinity={0, "v0"})
    env.run(until=3 * MILLISECONDS)
    # Idle pCPU 0 beats the unbacked vCPU despite equal queue lengths.
    assert thread.last_cpu == 0


def _queue_on_cpu0(kernel, env, specs):
    """Stack fair threads on CPU 0's queue: ``(name, affinity, vruntime)``."""
    from repro.kernel import KThread

    threads = []
    for name, affinity, vruntime in specs:
        thread = KThread(name, iter([Compute(1 * MILLISECONDS)]),
                         affinity=affinity)
        thread.done = env.event()
        thread.vruntime = vruntime
        kernel.threads[thread.tid] = thread
        kernel.cpus[0].enqueue(thread)
        threads.append(thread)
    return threads


def test_idle_cpu_outside_every_queued_affinity_steals_nothing():
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(3):
        kernel.add_cpu(cpu_id)
    _queue_on_cpu0(kernel, env, [("a", {0, 2}, 1.0), ("b", {0}, 0.5),
                                 ("c", {2}, 2.0)])
    assert kernel.steal_work(kernel.cpus[1]) is None
    assert kernel.steals == 0
    assert len(kernel.cpus[0].runqueue) == 3
    assert kernel.cpus[1].runqueue.is_empty


def test_eligible_idle_cpu_takes_lowest_vruntime_then_tid():
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(3):
        kernel.add_cpu(cpu_id)
    a, b, c, d = _queue_on_cpu0(kernel, env, [
        ("a", {0, 2}, 5.0),
        ("b", {0}, 3.0),       # lowest vruntime, but pinned to CPU 0
        ("c", {0, 2}, 4.0),
        ("d", None, 4.0),      # ties with c; c has the lower tid
    ])
    assert kernel.steal_work(kernel.cpus[2]) is c
    assert kernel.steals == 1
    assert kernel.cpus[2].runqueue.threads() == [c]
    assert kernel.cpus[0].runqueue.threads() == [b, d, a]
    assert kernel.steal_work(kernel.cpus[2]) is d
