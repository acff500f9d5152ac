"""Byte-identity guard for the CPU executor's slow paths.

The executor runs common instructions on an inline fast path and falls
back to its general machinery for everything else: lock contention, kicks
and revocations that land mid-instruction, slice expiry, hotplug,
instruction auditing, guest work taxes, softirq handlers that consume
time, and the rarer instructions.  Each case below drives one of those
paths and compares the sha256 of a canonical JSON summary (``engine`` and
``timing`` blocks dropped, as in ``test_wake_path_identity.py``) against
a digest recorded before the executor was flattened.  The kernel-level
cases digest the full scheduler trace, so a change in the order of
context switches fails them even when totals agree.  The digests are
fixed: never regenerate them to make a failing case pass.
"""

import pytest

from repro.baselines import TaiChiDeployment, Type2Deployment
from repro.core import InstructionAuditor
from repro.experiments.fig4_spike_demo import _measure_spike
from repro.kernel import (
    Compute,
    Exit,
    Kernel,
    KernelParams,
    KernelSection,
    LockAcquire,
    LockRelease,
    SchedClass,
    Sleep,
    SoftirqVector,
    Syscall,
    WaitEvent,
    YieldCPU,
)
from repro.scenario import Scenario, run_soak
from repro.sim import Environment
from repro.sim.units import MICROSECONDS, MILLISECONDS
from repro.workloads import run_tcp_crr
from repro.workloads.background import start_cp_background

from tests.integration.test_wake_path_identity import digest

#: Recorded on the commit before the executor was flattened.
DIGESTS = {
    "spinlock-handoff":
        "df538d59b4bfe5c9c704a330366a0737a0107a736025db8a951d198083140d3f",
    "fair-slice-expiry":
        "06a18fccfa27cc7566d3f2b99fa3cc6237b03595aed2befd1e735e6dca5e34a1",
    "hotplug-offline":
        "def256b2aa36f90641cb420e8f48449730a097766a2100241fd72e15deaa3094",
    "syscall-yield-exit":
        "18a40d556de6c28aa1884bd6def75499c72315b207cbc81412f31e651cee6b9a",
    "vcpu-revoked-in-section":
        "1f5e41c60a5280a2bc93956d3c466047b9ac6e16b6758c5263bfe2a3b9ddecd3",
    "audited-vcpu":
        "6c3c4ae1642b8fbfc6b43b82cce74c935802ce2ac5bb0959923cab889620e374",
    "type1-work-tax":
        "48cd06174f5d121b742e02c04c47c254a1da9912ff7dd9bc672c296ae6eaaba8",
    "type2-work-tax":
        "c4e29dbfbc267345a1fc2c28f7f88892db7d75456118abdb58276c66caaee002",
}


class TaggedCompute(Compute):
    """An instruction subclass: the executor must treat it as Compute."""

    __slots__ = ("tag",)

    def __init__(self, ns, tag):
        super().__init__(ns)
        self.tag = tag


def _kernel(n_cpus, params=None):
    env = Environment()
    env.tracer.enable()
    kernel = Kernel(env, params=params)
    for cpu_id in range(n_cpus):
        kernel.add_cpu(cpu_id)
    return env, kernel


def _softirq_load(env, kernel, cpu_ids, period_ns, until_ns):
    """Raise TIMER softirqs round-robin; the handler burns time and waits."""
    runs = []

    def handler(cpu, payload):
        runs.append([env.now, str(cpu.cpu_id), payload])
        yield from cpu.consume(2 * MICROSECONDS)
        if payload % 3 == 0:
            yield from cpu.await_event(env.timeout(700))

    kernel.softirq.register(SoftirqVector.TIMER, handler)

    def raiser():
        n = 0
        while env.now < until_ns:
            yield env.timeout(period_ns)
            cpu = kernel.cpus[cpu_ids[n % len(cpu_ids)]]
            if cpu.online:
                kernel.softirq.raise_softirq(cpu, SoftirqVector.TIMER, n)
            n += 1

    env.process(raiser(), name="softirq-raiser")
    return runs


def _kernel_summary(env, kernel, threads, log):
    return {
        "now": env.now,
        "kernel": kernel.metrics_snapshot(),
        "cpus": {
            str(cpu_id): [cpu.state.value, cpu.busy_ns, cpu.idle_ns,
                          cpu.context_switches, cpu.softirq_runs,
                          cpu.nonpreemptible_ns]
            for cpu_id, cpu in kernel.cpus.items()
        },
        "threads": [
            [thread.name, thread.state.value, repr(thread.exit_value),
             thread.total_runtime_ns, thread.vruntime, thread.last_cpu]
            for thread in threads
        ],
        "log": log,
        "trace": [
            [event.ts_ns, str(event.cpu_id), event.kind,
             sorted((key, repr(value)) for key, value in event.detail.items())]
            for event in env.tracer.events
        ],
    }


def spinlock_handoff():
    """Cross-CPU contention: spinners wait with preemption off, the
    releaser hands the lock straight to the next one, and softirqs fire
    inside the spin."""
    env, kernel = _kernel(2)
    lock = kernel.spinlock("drv")
    inner = kernel.spinlock("inner")
    log = []
    runs = _softirq_load(env, kernel, [0, 1], 37 * MICROSECONDS,
                         6 * MILLISECONDS)

    def worker(name, compute_ns, hold_ns, nested):
        for i in range(6):
            yield Compute(compute_ns)
            yield LockAcquire(lock)
            log.append([name, "acquired", env.now])
            yield KernelSection(hold_ns, reason="critical")
            if nested:
                yield LockAcquire(inner)
                yield Syscall(20 * MICROSECONDS, name="ioctl")
                yield LockRelease(inner)
            yield LockRelease(lock)
            log.append([name, "released", env.now])
            yield Sleep((i + 1) * 13 * MICROSECONDS)
        return name

    threads = [
        kernel.spawn("a", worker("a", 40 * MICROSECONDS, 90 * MICROSECONDS,
                                 False), affinity={0}),
        kernel.spawn("b", worker("b", 25 * MICROSECONDS, 60 * MICROSECONDS,
                                 True), affinity={1}),
        kernel.spawn("c", worker("c", 55 * MICROSECONDS, 30 * MICROSECONDS,
                                 True), affinity={0},
                     sched_class=SchedClass.REALTIME),
        kernel.spawn("d", worker("d", 10 * MICROSECONDS, 75 * MICROSECONDS,
                                 False), affinity={1}),
    ]
    env.run(until=8 * MILLISECONDS)
    summary = _kernel_summary(env, kernel, threads, log)
    summary["softirqs"] = runs
    summary["locks"] = [[lk.name, lk.acquisitions, lk.contentions,
                         lk.total_wait_ns] for lk in (lock, inner)]
    return summary


def fair_slice_expiry():
    """Two fair threads share one CPU by slice expiry; a realtime waker
    kicks mid-compute, a lone thread extends its own slice, and a preempted
    compute resumes with its remainder."""
    env, kernel = _kernel(1, KernelParams(sched_slice_ns=300 * MICROSECONDS))
    log = []
    runs = _softirq_load(env, kernel, [0], 410 * MICROSECONDS,
                         5 * MILLISECONDS)

    def hog(name, chunks, chunk_ns):
        for _ in range(chunks):
            yield Compute(chunk_ns)
            log.append([name, env.now])
        return name

    def waker():
        for i in range(10):
            yield Sleep(230 * MICROSECONDS + i * 7_000)
            yield Compute(15 * MICROSECONDS)
            log.append(["rt", env.now])

    def late():
        yield Sleep(2 * MILLISECONDS)
        yield Compute(250 * MICROSECONDS)
        yield KernelSection(120 * MICROSECONDS)
        log.append(["late", env.now])

    threads = [
        kernel.spawn("hog1", hog("hog1", 4, 700 * MICROSECONDS)),
        kernel.spawn("hog2", hog("hog2", 3, 900 * MICROSECONDS),
                     nice_weight=2.0),
        kernel.spawn("rt", waker(), sched_class=SchedClass.REALTIME),
        kernel.spawn("late", late()),
        kernel.spawn("solo", hog("solo", 2, 1_100 * MICROSECONDS)),
    ]
    env.run(until=12 * MILLISECONDS)
    summary = _kernel_summary(env, kernel, threads, log)
    summary["softirqs"] = runs
    return summary


def hotplug_offline():
    """Take a busy CPU offline mid-section, strand softirqs on it, then
    boot it back through INIT/STARTUP IPIs."""
    env, kernel = _kernel(3)
    log = []
    runs = _softirq_load(env, kernel, [1, 2], 90 * MICROSECONDS,
                         4 * MILLISECONDS)

    def worker(name, section_ns):
        for i in range(12):
            yield Compute(60 * MICROSECONDS)
            yield KernelSection(section_ns)
            log.append([name, env.now])
            yield Sleep(35 * MICROSECONDS * (1 + i % 3))

    def control():
        yield env.timeout(1_500 * MICROSECONDS)
        kernel.softirq.raise_softirq(kernel.cpus[1], SoftirqVector.TIMER, 99)
        log.append(["offline", env.now, kernel.offline_cpu(1),
                    kernel.offline_cpu(1)])
        yield env.timeout(2 * MILLISECONDS)
        log.append(["state", env.now, kernel.cpus[1].state.value])
        kernel.boot_cpu(1, from_cpu=kernel.cpus[0])
        yield env.timeout(1 * MILLISECONDS)
        log.append(["state", env.now, kernel.cpus[1].state.value])

    threads = [kernel.spawn(f"w{i}", worker(f"w{i}", (40 + 25 * i)
                                            * MICROSECONDS))
               for i in range(5)]
    env.process(control(), name="hotplug")
    env.run(until=7 * MILLISECONDS)
    summary = _kernel_summary(env, kernel, threads, log)
    summary["softirqs"] = runs
    return summary


def syscall_yield_exit():
    """The rarer instructions, on a taxed CPU and an untaxed one."""
    env, kernel = _kernel(2)
    kernel.cpus[1].work_tax = 1.37
    log = []
    gate = env.event()
    done_early = env.event()
    done_early.succeed("early")

    def syscaller(name):
        got = yield Syscall(45 * MICROSECONDS, name="read")
        log.append([name, "syscall", env.now, got])
        yield Syscall(0, entry_ns=0, exit_ns=0)
        yield YieldCPU()
        log.append([name, "yielded", env.now])
        yield TaggedCompute(33 * MICROSECONDS, tag=name)
        value = yield WaitEvent(done_early)
        log.append([name, "early", env.now, value])
        value = yield WaitEvent(gate)
        log.append([name, "gate", env.now, value])
        yield Compute(0)
        yield KernelSection(0)
        yield Sleep(0)
        yield Exit(name + "-exit")
        yield Compute(10 * MILLISECONDS)  # never runs

    def yielder(name):
        for i in range(5):
            yield Compute(20 * MICROSECONDS + i)
            yield YieldCPU()
            log.append([name, "yield", env.now])
        return name + "-return"

    def opener():
        yield env.timeout(400 * MICROSECONDS)
        gate.succeed("open")

    threads = [
        kernel.spawn("s0", syscaller("s0"), affinity={0}),
        kernel.spawn("s1", syscaller("s1"), affinity={1}),
        kernel.spawn("y0", yielder("y0"), affinity={0}),
        kernel.spawn("y1", yielder("y1"), affinity={1}),
        kernel.spawn("lone", yielder("lone")),
        kernel.spawn("plain", iter([Compute(70 * MICROSECONDS),
                                    Syscall(5 * MICROSECONDS),
                                    Exit("plain-exit")]), affinity={1}),
        kernel.spawn("empty", iter(()), affinity={0}),
    ]
    env.process(opener(), name="opener")
    env.run(until=2 * MILLISECONDS)
    return _kernel_summary(env, kernel, threads, log)


def vcpu_revoked_in_section():
    """Figure 4's Tai Chi case: a spinlocked kernel section runs inside a
    vCPU that the hardware probe revokes when the packet arrives."""
    timeline, deployment = _measure_spike("taichi", seed=0)
    # Let the frozen section finish once a later grant backs the vCPU.
    deployment.run(deployment.env.now + 6 * MILLISECONDS)
    return {
        "timeline": timeline,
        "now": deployment.env.now,
        "kernel": deployment.kernel.metrics_snapshot(),
        "vcpus": [[str(vcpu.cpu_id), vcpu.revocations, vcpu.frozen_ns,
                   vcpu.backed_ns, vcpu.halt_signals, vcpu.busy_ns]
                  for vcpu in deployment.kernel.virtual_cpus()],
        "stats": deployment.stats(),
    }


def audited_vcpu():
    """Instruction auditing: the hook sees every issued instruction,
    re-issues of a preempted one are recorded once."""
    deployment = TaiChiDeployment(seed=6)
    deployment.warmup()
    auditor = InstructionAuditor(
        deployment.taichi,
        interceptor=lambda thread, instruction:
            getattr(instruction, "name", "") == "cfg")
    kernel = deployment.kernel

    def target(cycles):
        for _ in range(cycles):
            yield Compute(200 * MICROSECONDS)
            yield Syscall(100 * MICROSECONDS, name="cfg")
            yield KernelSection(150 * MICROSECONDS)
            yield Sleep(100 * MICROSECONDS)

    thread = kernel.spawn("target", target(30),
                          affinity=set(deployment.board.cp_cpu_ids))
    auditor.begin(thread)
    deployment.run(deployment.env.now + 12 * MILLISECONDS)
    session = auditor.end(thread)
    deployment.run(deployment.env.now + 4 * MILLISECONDS)
    return {
        "session": session.summary(),
        "records": [[r.ts_ns, r.thread_name, r.kind, r.duration_ns,
                     r.privileged] for r in session.records],
        "intercepted": len(session.intercepted),
        "thread": [thread.state.value, thread.total_runtime_ns,
                   str(thread.last_cpu)],
        "kernel": kernel.metrics_snapshot(),
        "stats": deployment.stats(),
    }


def type1_work_tax():
    """Tai Chi-vDP: DP services run on CPUs with a guest-mode work tax."""
    return run_soak(Scenario(arm="taichi-vdp"), seed=3,
                    duration_ns=30 * MILLISECONDS,
                    drain_ns=10 * MILLISECONDS)


def type2_work_tax():
    """Type-2: CP tasks pay the guest tax on the CP partition."""
    deployment = Type2Deployment(seed=5)
    start_cp_background(deployment, n_monitors=3, rolling_tasks=3)
    deployment.warmup()
    result = run_tcp_crr(deployment, 8 * MILLISECONDS, n_connections=32)
    return {
        "result": result,
        "now": deployment.env.now,
        "kernel": deployment.kernel.metrics_snapshot(),
        "cpus": {str(cpu_id): [cpu.busy_ns, cpu.nonpreemptible_ns,
                               cpu.context_switches]
                 for cpu_id, cpu in deployment.kernel.cpus.items()},
        "stats": deployment.stats(),
    }


CASES = {
    "spinlock-handoff": spinlock_handoff,
    "fair-slice-expiry": fair_slice_expiry,
    "hotplug-offline": hotplug_offline,
    "syscall-yield-exit": syscall_yield_exit,
    "vcpu-revoked-in-section": vcpu_revoked_in_section,
    "audited-vcpu": audited_vcpu,
    "type1-work-tax": type1_work_tax,
    "type2-work-tax": type2_work_tax,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_executor_summary_is_byte_identical(case):
    assert digest(CASES[case]()) == DIGESTS[case]
