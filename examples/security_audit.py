#!/usr/bin/env python
"""Section 8 extras: instruction auditing and always-preemptible contexts.

Part 1 puts a suspicious control-plane task under instruction-level audit:
Tai Chi migrates it onto an audit vCPU via plain affinity, records every
instruction (flagging privileged ones), then transparently migrates it
back — no persistent overhead, no cooperation from the task.

Part 2 shows the always-preemptible kernel context: a realtime task shares
CPUs with a kernel-section-heavy hog, first directly (ms-scale priority
inversion), then with the hog wrapped in a vCPU context (microsecond
wakeups again).

Run:  python examples/security_audit.py
"""

from collections import Counter

from repro.baselines import TaiChiDeployment
from repro.core import InstructionAuditor, PreemptibleKernelContext
from repro.kernel import Compute, Kernel, KernelSection, SchedClass, Sleep, Syscall
from repro.sim import Environment, MICROSECONDS, MILLISECONDS


def suspicious_task():
    while True:
        yield Compute(300 * MICROSECONDS)           # user-space work
        yield Syscall(80 * MICROSECONDS, name="net-cfg")
        yield KernelSection(200 * MICROSECONDS)     # driver poking
        yield Sleep(500 * MICROSECONDS)


def kernel_hog():
    while True:
        yield KernelSection(5 * MILLISECONDS)
        yield Compute(100 * MICROSECONDS)


def rt_latency(env, kernel, affinity, count=50):
    samples = []

    def body():
        for _ in range(count):
            target = env.now + 2 * MILLISECONDS
            yield Sleep(2 * MILLISECONDS)
            samples.append(env.now - target)
            yield Compute(10 * MICROSECONDS)

    kernel.spawn("rt", body(), sched_class=SchedClass.REALTIME,
                 affinity=affinity)
    return samples


def main():
    print("=== Part 1: on-demand instruction auditing ===\n")
    deployment = TaiChiDeployment(seed=33)
    deployment.warmup()
    env = deployment.env

    intercepted = []
    auditor = InstructionAuditor(
        deployment.taichi,
        interceptor=lambda thread, instr: intercepted.append(instr) or True,
    )
    target = deployment.kernel.spawn(
        "suspicious", suspicious_task(),
        affinity=set(deployment.board.cp_cpu_ids))

    deployment.run(env.now + 50 * MILLISECONDS)   # run unaudited first
    session = auditor.begin(target)
    deployment.run(env.now + 100 * MILLISECONDS)  # audited window
    auditor.end(target)

    kinds = Counter(record.kind for record in session.records)
    print(f"audited window       : {session.summary()['duration_ns']/1e6:.0f} ms "
          f"on vCPU {session.vcpu_id}")
    print(f"instructions recorded: {dict(kinds)}")
    print(f"privileged           : {len(session.privileged_records())} "
          f"(intercepted {len(session.intercepted)})")
    print(f"affinity restored    : {sorted(target.affinity)}\n")

    print("=== Part 2: always-preemptible kernel context ===\n")
    env2 = Environment()
    kernel2 = Kernel(env2)
    kernel2.add_cpu(0)
    kernel2.spawn("hog", kernel_hog())
    direct = rt_latency(env2, kernel2, {0})
    env2.run(until=300 * MILLISECONDS)

    deployment3 = TaiChiDeployment(seed=34)
    deployment3.warmup()
    context = PreemptibleKernelContext(deployment3.taichi)
    context.submit("hog", kernel_hog())
    wrapped = rt_latency(deployment3.env, deployment3.kernel,
                         {deployment3.board.cp_cpu_ids[0]})
    deployment3.run(deployment3.env.now + 300 * MILLISECONDS)

    print(f"RT wake latency, hog co-scheduled directly : "
          f"avg {sum(direct)/len(direct)/1e3:7.1f} us   "
          f"max {max(direct)/1e3:7.1f} us")
    print(f"RT wake latency, hog in a vCPU context     : "
          f"avg {sum(wrapped)/len(wrapped)/1e3:7.1f} us   "
          f"max {max(wrapped)/1e3:7.1f} us")
    print("\nVM-exit cuts through non-preemptible kernel routines; the")
    print("hog's sections freeze mid-flight and resume on harvested cycles.")


if __name__ == "__main__":
    main()
