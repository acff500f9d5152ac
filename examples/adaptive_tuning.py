#!/usr/bin/env python
"""Watch Tai Chi's two adaptive feedback loops react to traffic phases.

Phase 1 (quiet): no traffic — time slices double on every expiry exit and
empty-poll thresholds shrink, so nearly all idle cycles go to CP tasks.

Phase 2 (bursty): traffic arrives — hardware-probe exits reset slices to
50 us and push thresholds back up, making yielding conservative again.

Run:  python examples/adaptive_tuning.py
"""

from repro.baselines import TaiChiDeployment
from repro.cp.task import CPTaskParams, spawn_synth_cp
from repro.hw import IORequest, PacketKind
from repro.sim import MICROSECONDS, MILLISECONDS


def snapshot(tag, deployment):
    scheduler = deployment.taichi.scheduler
    probe = deployment.taichi.sw_probe
    slices = sorted(scheduler.slice_for(vcpu) // 1000
                    for vcpu in deployment.taichi.vcpus)
    thresholds = sorted(probe.stats()["thresholds"].values())
    exits = {reason: count
             for reason, count in scheduler.stats()["exits"].items()}
    print(f"[{tag}]")
    print(f"  vCPU time slices (us): {slices}")
    print(f"  empty-poll thresholds: {thresholds}")
    print(f"  VM-exit counts so far: {exits}\n")


def main():
    deployment = TaiChiDeployment(seed=3)
    env = deployment.env
    board = deployment.board
    deployment.warmup()

    # Persistent CP pressure so vCPU slices keep running.
    rng = deployment.rng.stream("cp")

    def cp_pressure():
        while True:
            threads = spawn_synth_cp(
                board.kernel, env, rng, 12, deployment.cp_affinity,
                params=CPTaskParams(total_ns=20 * MILLISECONDS))
            yield env.all_of([thread.done for thread in threads])

    env.process(cp_pressure(), name="cp-pressure")

    print("Phase 1: 300 ms of total DP quiet\n")
    env.run(until=env.now + 300 * MILLISECONDS)
    snapshot("after quiet phase", deployment)

    print("Phase 2: 300 ms of bursty traffic on every queue\n")

    def traffic():
        stream = deployment.rng.stream("bursts")
        deadline = env.now + 300 * MILLISECONDS
        while env.now < deadline:
            for queue in range(8):
                board.accelerator.submit(IORequest(
                    PacketKind.NET_TX, 256, ("net", queue, 0),
                    service_ns=2_000))
            yield env.timeout(int(stream.exponential(60 * MICROSECONDS)))

    proc = env.process(traffic(), name="traffic")
    env.run(until=proc)
    snapshot("after bursty phase", deployment)

    print("Slices reset toward 50 us and thresholds grew: the framework")
    print("traded harvest aggressiveness for data-plane protection.")


if __name__ == "__main__":
    main()
