"""Fault-storm resilience: graceful degradation on vs. off (extension).

The paper's production story (Section 6.6) assumes a healthy substrate;
hyperscale reality includes lost IPIs, dark probes, hotplug churn and
wedged pollers.  This experiment runs the production-soak workload under
the default ``storm`` fault preset twice — once with the graceful
degradation layer installed and once bare — and scores both SLOs:

* DP SLO: tenant probe p99 latency (the probe-health monitor's degraded
  slice cap is what keeps packets from being stranded behind 800 us
  slices while the hardware probe is dark);
* CP SLO: VM-startup compliance (bounded IPI retry is what brings a
  hotplugged CP pCPU back through a lossy-IPI window).

Both arms see the *identical* fault schedule: same plan, same seeds,
same draw streams.
"""

from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.faults import FaultPlan, active_fault_plan
from repro.hw.host import HostNode, VMSpec
from repro.hw.packet import IORequest, PacketKind
from repro.metrics import LatencyRecorder
from repro.scenario import build
from repro.sim.units import MICROSECONDS, MILLISECONDS
from repro.workloads.background import start_cp_background, start_dp_background

_BASE_DURATION_NS = 900 * MILLISECONDS
# The storm preset is laid out over a ~1.2 s horizon; compress it to the
# actual run window so every fault (and its recovery) lands inside.
_STORM_SPAN_NS = 1_200 * MILLISECONDS


def _resilient_run(duration_ns, seed, plan, degradation_on):
    with active_fault_plan(plan):
        deployment = build("taichi", seed=seed)
    if degradation_on:
        deployment.taichi.enable_degradation()
    start_dp_background(deployment, utilization=0.25)
    start_cp_background(deployment, n_monitors=6, rolling_tasks=3)
    deployment.warmup()
    env = deployment.env
    board = deployment.board
    host = HostNode(deployment)

    probe_latency = LatencyRecorder(name="tenant-probe")

    def latency_probe():
        # A scalar stream: integers and exponentials mix on it.
        rng = deployment.rng.stream("resilience-probe")
        while True:
            queue = int(rng.integers(0, 8))
            done = env.event()
            done.callbacks.append(
                lambda event: probe_latency.record(
                    event.value.total_latency_ns))
            board.accelerator.submit(IORequest(
                PacketKind.NET_TX, 64, ("net", queue, 0),
                service_ns=1_500, done=done))
            yield env.timeout(int(rng.exponential(400 * MICROSECONDS)))

    env.process(latency_probe(), name="latency-probe")

    def storm_source():
        # A scalar stream: exponential gaps and integer batch sizes.
        rng = deployment.rng.stream("resilience-storms")
        while True:
            yield env.timeout(int(rng.exponential(75 * MILLISECONDS)))
            # Storage-heavy guests: enough device-management work per VM
            # that losing a CP pCPU to an unrecovered hotplug actually
            # shows up in the startup tail.
            for _ in range(int(rng.integers(7, 12))):
                host.create_vm(VMSpec(n_vblks=8))

    env.process(storm_source(), name="storm-source")
    deployment.run(env.now + duration_ns)
    # Drain: give in-flight startups a grace window.
    deployment.run(env.now + 500 * MILLISECONDS)

    startups = [vm.startup_time_ns() for vm in host.vms
                if vm.startup_time_ns() is not None]
    slo_ns = host.manager.params.startup_slo_ns
    within = sum(1 for value in startups if value <= slo_ns)
    injector = deployment.fault_injector
    degradation = deployment.taichi.degradation
    return {
        "dp_p99_us": probe_latency.p99() / MICROSECONDS,
        "dp_p999_us": probe_latency.p999() / MICROSECONDS,
        "vms_started": len(startups),
        "startup_slo_compliance_pct":
            100.0 * within / max(len(startups), 1),
        "faults_injected": injector.injected,
        "faults_cleared": injector.cleared,
        "responses": (sum(
            count for key, count in degradation.stats().items()
            if isinstance(count, int) and not isinstance(count, bool))
            if degradation is not None else 0),
    }


@register("ext_fault_resilience",
          "Fault storm: graceful degradation on vs. off", "extension")
def run(scale=1.0, seed=0):
    duration = scaled_duration(_BASE_DURATION_NS, scale,
                               floor_ns=300 * MILLISECONDS)
    plan = FaultPlan.preset("storm").scaled(duration / _STORM_SPAN_NS)
    bare = _resilient_run(duration, seed, plan, degradation_on=False)
    hardened = _resilient_run(duration, seed, plan, degradation_on=True)
    rows = [
        {"system": "Tai Chi, degradation off", **bare},
        {"system": "Tai Chi, degradation on", **hardened},
    ]
    return ExperimentResult(
        exp_id="ext_fault_resilience",
        title="Fault-storm resilience: degradation layer on vs. off",
        paper_ref="extension",
        rows=rows,
        derived={
            "dp_p99_improvement":
                bare["dp_p99_us"] / max(hardened["dp_p99_us"], 1e-9),
            "hardened_startup_compliance_pct":
                hardened["startup_slo_compliance_pct"],
            "bare_startup_compliance_pct":
                bare["startup_slo_compliance_pct"],
            "startup_compliance_gain_pct":
                hardened["startup_slo_compliance_pct"]
                - bare["startup_slo_compliance_pct"],
            "faults_injected": hardened["faults_injected"],
            "degradation_responses": hardened["responses"],
        },
        paper={
            "claim": (
                "extension: under an identical fault storm the degradation "
                "layer must hold both SLOs above the bare framework"
            ),
        },
    )
