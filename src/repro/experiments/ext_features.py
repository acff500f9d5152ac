"""Extension experiments for the Section 8 and Section 9 features.

* ``ext_preemptible_kernel`` — the always-preemptible kernel context: a
  realtime task's wakeup latency next to a kernel-section-heavy hog,
  direct co-scheduling vs the hog wrapped in a vCPU context.
* ``ext_audit`` — on-demand instruction auditing: records captured inside
  the audit domain and the zero-persistent-overhead claim (target
  throughput before/after the session ends).
* ``ext_probe_fusion`` — Section 9's multi-dimensional idle assessment:
  false-positive yield rate with and without pipeline-metadata fusion.
* ``ext_cache_isolation`` — Section 9's cache/TLB isolation: residual DP
  overhead with pollution vs isolation.
"""

from repro.core import InstructionAuditor, PreemptibleKernelContext, TaiChiConfig
from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.hw.packet import IORequest, PacketKind
from repro.kernel import Compute, Kernel, KernelSection, SchedClass, Sleep, Syscall
from repro.scenario import build
from repro.sim import Environment, MICROSECONDS, MILLISECONDS
from repro.virt import VMExitReason
from repro.workloads import run_sockperf_udp
from repro.workloads.background import start_cp_background


def _kernel_hog(cycles, section_ns):
    for _ in range(cycles):
        yield KernelSection(section_ns)
        yield Compute(100 * MICROSECONDS)


def _rt_latency_probe(env, kernel, affinity, samples, count):
    def body():
        for _ in range(count):
            target = env.now + 2 * MILLISECONDS
            yield Sleep(2 * MILLISECONDS)
            samples.append(env.now - target)
            yield Compute(10 * MICROSECONDS)

    return kernel.spawn("rt-probe", body(),
                        sched_class=SchedClass.REALTIME, affinity=affinity)


@register("ext_preemptible_kernel",
          "Always-preemptible kernel-space context",
          "Section 8, 'An always-preemptible kernel-space context'")
def run_preemptible(scale=1.0, seed=0):
    count = max(int(100 * scale), 20)
    section_ns = 5 * MILLISECONDS

    # Direct co-scheduling on one bare CPU.
    env = Environment()
    kernel = Kernel(env)
    kernel.add_cpu(0)
    kernel.spawn("hog", _kernel_hog(10_000, section_ns))
    direct = []
    _rt_latency_probe(env, kernel, {0}, direct, count)
    env.run(until=(count + 5) * 3 * MILLISECONDS)

    # The hog wrapped in a vCPU context on a Tai Chi board.
    deployment = build("taichi", seed=seed)
    deployment.warmup()
    context = PreemptibleKernelContext(deployment.taichi)
    context.submit("hog", _kernel_hog(10_000, section_ns))
    wrapped = []
    _rt_latency_probe(deployment.env, deployment.kernel,
                      {deployment.board.cp_cpu_ids[0]}, wrapped, count)
    deployment.run(deployment.env.now + (count + 5) * 3 * MILLISECONDS)

    rows = [
        {"setup": "hog direct on the RT task's CPU",
         "rt_wake_max_us": max(direct) / MICROSECONDS,
         "rt_wake_avg_us": sum(direct) / len(direct) / MICROSECONDS},
        {"setup": "hog in a vCPU context (Tai Chi)",
         "rt_wake_max_us": max(wrapped) / MICROSECONDS,
         "rt_wake_avg_us": sum(wrapped) / len(wrapped) / MICROSECONDS},
    ]
    return ExperimentResult(
        exp_id="ext_preemptible_kernel",
        title="Priority inversion through non-preemptible routines, solved",
        paper_ref="Section 8",
        rows=rows,
        derived={
            "max_latency_improvement":
                rows[0]["rt_wake_max_us"] / max(rows[1]["rt_wake_max_us"], 1e-9),
        },
        paper={"claim": "deterministic responsiveness for high-priority "
                        "tasks despite kernel-space low-priority work"},
    )


@register("ext_audit", "On-demand instruction-level auditing", "Section 8")
def run_audit(scale=1.0, seed=0):
    cycles = max(int(60 * scale), 10)
    deployment = build("taichi", seed=seed)
    deployment.warmup()
    env = deployment.env
    auditor = InstructionAuditor(deployment.taichi,
                                 interceptor=lambda thread, instr: True)

    def target_body():
        for _ in range(cycles * 2):
            yield Compute(300 * MICROSECONDS)
            yield Syscall(150 * MICROSECONDS, name="cfg")
            yield Sleep(100 * MICROSECONDS)

    thread = deployment.kernel.spawn(
        "target", target_body(), affinity=set(deployment.board.cp_cpu_ids))

    # Phase 1: audited for the first half of the run.
    session = auditor.begin(thread)
    half = cycles * 600 * MICROSECONDS
    deployment.run(env.now + half)
    audited_progress = thread.total_runtime_ns
    auditor.end(thread)
    # Phase 2: unaudited; same wall time.
    deployment.run(env.now + half)
    unaudited_progress = thread.total_runtime_ns - audited_progress

    summary = session.summary()
    rows = [
        {"metric": "instructions recorded", "value": summary["instructions"]},
        {"metric": "privileged instructions", "value": summary["privileged"]},
        {"metric": "intercepted", "value": summary["intercepted"]},
        {"metric": "progress while audited (ms)",
         "value": audited_progress / MILLISECONDS},
        {"metric": "progress after audit (ms)",
         "value": unaudited_progress / MILLISECONDS},
    ]
    return ExperimentResult(
        exp_id="ext_audit",
        title="Auditing captures privileged instructions, then vanishes",
        paper_ref="Section 8",
        rows=rows,
        derived={
            "privileged_fraction":
                summary["privileged"] / max(summary["instructions"], 1),
            "records": summary["instructions"],
        },
        paper={"claim": "granular telemetry without persistent runtime "
                        "overhead"},
    )


def _premature_exit_rate(config, duration_ns, seed):
    deployment = build("taichi", seed=seed, taichi_config=config)
    start_cp_background(deployment, n_monitors=2, rolling_tasks=6)
    deployment.warmup()
    env = deployment.env
    board = deployment.board

    def traffic():
        # Pairs of packets a few microseconds apart: the second packet is
        # regularly still inside the accelerator pipeline when the DP loop
        # crosses its (deliberately eager) empty-poll threshold.
        rng = deployment.rng.stream("fusion-traffic")
        deadline = env.now + duration_ns
        while env.now < deadline:
            queue = int(rng.integers(0, 8))
            for _ in range(2):
                board.accelerator.submit(IORequest(
                    PacketKind.NET_TX, 256, ("net", queue, 0),
                    service_ns=1_800))
                yield env.timeout(int(rng.exponential(4 * MICROSECONDS)))
            yield env.timeout(int(rng.exponential(60 * MICROSECONDS)))

    env.process(traffic(), name="traffic")
    deployment.run(env.now + duration_ns)
    scheduler = deployment.taichi.scheduler
    probe_exits = scheduler.exits_by_reason[VMExitReason.HW_PROBE_IRQ]
    return {
        "slices": scheduler.slices_run,
        "hw_probe_exits": probe_exits,
        "premature_exits": scheduler.premature_exits,
        "premature_rate":
            scheduler.premature_exits / max(scheduler.slices_run, 1),
        "harvested_ms": sum(v.busy_ns for v in deployment.taichi.vcpus)
        / MILLISECONDS,
    }


@register("ext_probe_fusion", "Multi-dimensional idle assessment",
          "Section 9, 'Further optimizations'")
def run_fusion(scale=1.0, seed=0):
    duration = scaled_duration(400 * MILLISECONDS, scale)
    # An eager fixed threshold isolates the fusion effect: every in-flight
    # packet missed by the empty-poll counter becomes a premature slice.
    base = dict(initial_threshold=8, min_threshold=8, max_threshold=8,
                adaptive_threshold=False)
    plain = _premature_exit_rate(TaiChiConfig(**base), duration, seed)
    fused = _premature_exit_rate(
        TaiChiConfig(probe_fusion=True, **base), duration, seed)
    rows = [
        {"probe": "empty-poll counter only", **plain},
        {"probe": "+ pipeline metadata (fusion)", **fused},
    ]
    return ExperimentResult(
        exp_id="ext_probe_fusion",
        title="Fusing accelerator metadata into the yield decision",
        paper_ref="Section 9",
        rows=rows,
        derived={
            "premature_rate_plain": plain["premature_rate"],
            "premature_rate_fused": fused["premature_rate"],
            "premature_exits_avoided":
                plain["premature_exits"] - fused["premature_exits"],
        },
        paper={"claim": "pipeline metadata enables more precise CPU "
                        "relinquishment"},
    )


@register("ext_cache_isolation", "Cache/TLB isolation for vCPU slices",
          "Section 9, 'Further optimizations'")
def run_isolation(scale=1.0, seed=0):
    duration = scaled_duration(150 * MILLISECONDS, scale)

    def measure(config):
        deployment = build("taichi", seed=seed, taichi_config=config)
        start_cp_background(deployment, n_monitors=4, rolling_tasks=6)
        deployment.warmup()
        # Sparse traffic: nearly every packet lands right after a vCPU
        # slice ran on its CPU, i.e. on a cold cache.
        run_sockperf_udp(deployment, duration, rate_pps=6_000)
        packets = sum(s.packets_processed for s in deployment.services)
        processing = sum(s.processing_ns for s in deployment.services)
        return processing / max(packets, 1)

    shared = measure(TaiChiConfig())
    isolated = measure(TaiChiConfig(cache_isolation=True))
    rows = [
        {"configuration": "shared cache (pollution modeled)",
         "per_packet_cost_ns": shared},
        {"configuration": "isolated cache (CAT-style)",
         "per_packet_cost_ns": isolated},
    ]
    return ExperimentResult(
        exp_id="ext_cache_isolation",
        title="Removing cache/TLB pollution from donated slices",
        paper_ref="Section 9",
        rows=rows,
        derived={
            "pollution_overhead_pct": (shared / max(isolated, 1e-9) - 1) * 100,
        },
        paper={"claim": "isolation eliminates the residual DP degradation "
                        "caused by scheduling CP tasks on DP CPUs"},
    )
