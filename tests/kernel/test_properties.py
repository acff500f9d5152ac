"""Property-based tests of scheduler invariants."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import (
    Compute, Kernel, KernelSection, SchedClass, Sleep, ThreadState,
)
from repro.sim import Environment, MICROSECONDS, MILLISECONDS, SECONDS


@given(
    workloads=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2_000),   # compute us
            st.integers(min_value=0, max_value=1_000),   # section us
            st.integers(min_value=0, max_value=500),     # sleep us
        ),
        min_size=1, max_size=12,
    ),
    n_cpus=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_no_thread_is_ever_lost(workloads, n_cpus):
    """Every spawned thread eventually exits, whatever the mix."""
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(n_cpus):
        kernel.add_cpu(cpu_id)

    def body(compute_us, section_us, sleep_us):
        yield Compute(compute_us * MICROSECONDS)
        if section_us:
            yield KernelSection(section_us * MICROSECONDS)
        if sleep_us:
            yield Sleep(sleep_us * MICROSECONDS)
        yield Compute(10 * MICROSECONDS)

    threads = [
        kernel.spawn(f"t{index}", body(*shape))
        for index, shape in enumerate(workloads)
    ]
    env.run(until=10 * SECONDS)
    assert all(thread.done.triggered for thread in threads)
    assert kernel.finished_threads == len(workloads)


@given(
    durations=st.lists(st.integers(min_value=10, max_value=5_000),
                       min_size=2, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_single_cpu_total_time_conserved(durations):
    """On one CPU, total busy time >= sum of all compute demands."""
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    threads = [
        kernel.spawn(f"t{index}", iter([Compute(d * MICROSECONDS)]))
        for index, d in enumerate(durations)
    ]
    env.run(until=60 * SECONDS)
    assert all(thread.done.triggered for thread in threads)
    total_demand = sum(durations) * MICROSECONDS
    busy = kernel.cpus[0].busy_ns
    # Busy time covers all demand plus context switches, bounded above by
    # demand + switch costs.
    assert busy >= total_demand
    overhead_budget = (len(durations) + 5) * 10 * kernel.params.context_switch_ns
    assert busy <= total_demand + overhead_budget


@given(
    n_rt=st.integers(min_value=1, max_value=3),
    n_fair=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_realtime_always_finishes_before_equal_length_fair(n_rt, n_fair):
    """RT threads spawned together with FAIR ones never finish last."""
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    finish = {}

    def body(name):
        yield Compute(1 * MILLISECONDS)
        finish[name] = env.now

    for index in range(n_fair):
        kernel.spawn(f"fair{index}", body(f"fair{index}"))
    for index in range(n_rt):
        kernel.spawn(f"rt{index}", body(f"rt{index}"),
                     sched_class=SchedClass.REALTIME)
    env.run(until=10 * SECONDS)
    last_rt = max(v for k, v in finish.items() if k.startswith("rt"))
    first_fair_exit = min(v for k, v in finish.items() if k.startswith("fair"))
    assert last_rt <= first_fair_exit + 2 * MILLISECONDS


N_CPUS = 4
cpu_ids = st.integers(min_value=0, max_value=N_CPUS - 1)
cpu_sets = st.frozensets(cpu_ids, min_size=1)
#: One step on a kernel whose executors never run, so run queues change
#: only through the step: ``(op, *args)``.  Spawns are drawn three times
#: as often as the rest, so queues fill and victims become congested.
index_steps = st.one_of(
    st.tuples(st.just("spawn"), st.none() | cpu_sets, st.booleans()),
    st.tuples(st.just("spawn"), cpu_sets, st.just(False)),
    st.tuples(st.just("spawn"), cpu_sets, st.just(False)),
    st.tuples(st.just("pick"), cpu_ids, st.integers(0, 3_000)),
    st.tuples(st.just("dequeue"), st.integers(0, 63)),
    st.tuples(st.just("set_affinity"), st.integers(0, 63), cpu_sets),
    st.tuples(st.just("offline"), cpu_ids),
    st.tuples(st.just("online"), cpu_ids),
    st.tuples(st.just("steal"), cpu_ids),
)


def _queued_fair(runqueue):
    return [thread for thread in runqueue.threads()
            if thread.sched_class is SchedClass.FAIR]


def _reference_steal(kernel, idle_cpu):
    """``Kernel.steal_work``'s choice, by scanning every queued thread."""
    for victim in kernel.cpus.values():
        if victim is idle_cpu:
            continue
        unbacked_vcpu = victim.is_virtual and not getattr(
            victim, "is_backed", True)
        if not unbacked_vcpu and victim.load() < 2:
            continue
        allowed = [thread for thread in _queued_fair(victim.runqueue)
                   if thread.can_run_on(idle_cpu.cpu_id)]
        if allowed:
            return min(allowed, key=lambda t: (t.vruntime, t.tid))
    return None


def _has_online(kernel, affinity, but=None):
    return any(cpu.online and cpu is not but
               and (affinity is None or cpu.cpu_id in affinity)
               for cpu in kernel.cpus.values())


@given(steps=st.lists(index_steps, min_size=10, max_size=80))
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
def test_affinity_index_answers_like_a_scan(steps):
    """After every step, each queue's "may give to CPU c" answer equals a
    scan of its fair threads, the kernel-wide affinity counts equal the
    queues' counts summed, and ``steal_work`` steals what a scan of
    every queued thread picks."""
    env = Environment()
    kernel = Kernel(env)
    for cpu_id in range(N_CPUS):
        kernel.add_cpu(cpu_id)
    cpus = list(kernel.cpus.values())
    spawned = []
    steals = 0
    for op, *args in steps:
        if op == "spawn":
            affinity, realtime = args
            if _has_online(kernel, affinity):
                spawned.append(kernel.spawn(
                    f"t{len(spawned)}", iter(()), affinity=affinity,
                    sched_class=(SchedClass.REALTIME if realtime
                                 else SchedClass.FAIR)))
        elif op == "pick":
            # The executor's step: run the best thread, then wake it.
            cpu_id, ran_us = args
            runqueue = kernel.cpus[cpu_id].runqueue
            thread = runqueue.pick_next()
            if thread is not None:
                runqueue.charge(thread, ran_us * MICROSECONDS)
                thread.state = ThreadState.BLOCKED
                if _has_online(kernel, thread.affinity):
                    kernel.wake_thread(thread)
        elif op == "dequeue" and spawned:
            thread = spawned[args[0] % len(spawned)]
            if any(cpu.runqueue.dequeue(thread) for cpu in cpus):
                thread.state = ThreadState.BLOCKED
        elif op == "set_affinity" and spawned:
            index, affinity = args
            if _has_online(kernel, affinity):
                kernel.set_affinity(spawned[index % len(spawned)], affinity)
        elif op == "offline":
            cpu = kernel.cpus[args[0]]
            if cpu.online and all(
                    _has_online(kernel, thread.affinity, but=cpu)
                    for thread in cpu.runqueue.threads()):
                cpu._go_offline()
        elif op == "online":
            kernel.cpus[args[0]].set_online()
        elif op == "steal":
            idle_cpu = kernel.cpus[args[0]]
            if idle_cpu.online:
                expected = _reference_steal(kernel, idle_cpu)
                assert kernel.steal_work(idle_cpu) is expected
                steals += expected is not None
        for cpu in cpus:
            fair = _queued_fair(cpu.runqueue)
            for cpu_id in range(N_CPUS):
                assert cpu.runqueue.may_give(cpu_id) == any(
                    thread.can_run_on(cpu_id) for thread in fair)
        # The kernel-wide counts are the queues' counts summed.
        totals = Counter()
        for cpu in cpus:
            totals.update(thread.affinity
                          for thread in _queued_fair(cpu.runqueue))
        assert kernel.fair_affinities == dict(totals)
    assert kernel.steals == steals
