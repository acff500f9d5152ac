"""Background load generators shared by experiments.

``start_dp_background`` keeps the data plane at a target *effective*
utilization (the Figure 11 experiments pin it at 30 %, the production p99).
Background packets are coarse batch units (one request models a burst of
frames) so second-scale simulations stay tractable without changing the
CPU-occupancy pattern Tai Chi's probes react to.

``start_cp_background`` reproduces the steady control-plane hum of a
production node: monitoring tasks plus a rolling stream of synthetic CP
jobs bound to the deployment's CP affinity.
"""

from repro.cp.monitor import MonitorTask
from repro.cp.task import CPTaskParams, synthetic_cp_body
from repro.hw.packet import IORequest, PacketKind
from repro.sim.units import MICROSECONDS, MILLISECONDS
from repro.workloads.traffic import service_queue_ids


def start_dp_background(deployment, utilization=0.30, duration_ns=None,
                        batch_service_ns=30 * MICROSECONDS, burstiness=0.5,
                        rng=None, queues=None, label="dp-bg",
                        tenant=None):
    """Drive every DP service at ``utilization`` effective CPU usage.

    Traffic alternates bursts and idle gaps (``burstiness`` controls the
    duty cycle peak-to-mean ratio) so idle windows exist for Tai Chi to
    harvest, as in production.  Returns the generator process.

    Multi-tenant boards pass ``queues`` (the tenant's own rx queues),
    a distinguishing ``label`` and the owning ``tenant`` id; the defaults
    reproduce the single-tenant behavior exactly.

    ``rng`` stays a scalar generator (``RandomStreams.stream``): it draws
    a uniform per burst and an exponential per packet, and every queue's
    source shares it, so exponentials drawn ahead in a block would shift
    the uniforms.
    """
    env = deployment.env
    rng = rng or deployment.rng.stream("dp-background")
    if queues is None:
        queues = service_queue_ids(deployment)
    accelerator = deployment.board.accelerator
    # Per-queue packet rate to hit the utilization target.
    rate_pps = utilization / (batch_service_ns / 1e9)

    def _source(queue_id):
        deadline = None if duration_ns is None else env.now + duration_ns
        while deadline is None or env.now < deadline:
            # A burst window followed by an idle window; the mean rate over
            # both equals the target.
            burst_ns = int(rng.uniform(0.5, 1.5) * 2 * MILLISECONDS)
            duty = max(min(1.0 - burstiness, 1.0), 0.05)
            idle_ns = int(burst_ns * (1.0 - duty) / duty)
            burst_rate = rate_pps / duty
            burst_end = env.now + burst_ns
            while env.now < burst_end:
                gap = max(int(rng.exponential(1e9 / burst_rate)), 1)
                yield env.timeout(gap)
                request = IORequest(PacketKind.NET_TX, 1500, queue_id,
                                    service_ns=batch_service_ns,
                                    tenant=tenant)
                accelerator.submit(request)
            if idle_ns:
                yield env.timeout(idle_ns)

    return [
        env.process(_source(queue_id), name=f"{label}-{index}")
        for index, queue_id in enumerate(queues)
    ]


def start_cp_background(deployment, n_monitors=4, rolling_tasks=4,
                        task_params=None, rng=None, affinity=None,
                        name_prefix=None):
    """Start monitoring tasks plus a rolling synthetic CP job stream.

    Multi-tenant boards pass the tenant's ``affinity`` (its own vCPUs
    plus the shared CP pCPUs) and a per-tenant ``name_prefix``; defaults
    reproduce the single-tenant behavior exactly.

    ``rng`` stays a scalar generator: the CP task bodies draw uniforms,
    lognormals and exponentials from it between the rollers' gaps.
    """
    env = deployment.env
    rng = rng or deployment.rng.stream("cp-background")
    if affinity is None:
        affinity = deployment.cp_affinity
    prefix = "" if name_prefix is None else f"{name_prefix}-"
    monitors = [
        MonitorTask(deployment.board, f"{prefix}monitor-{index}", affinity)
        for index in range(n_monitors)
    ]
    params = task_params or CPTaskParams(total_ns=20 * MILLISECONDS)

    def _roller(slot):
        while True:
            done_event = env.event()

            def _finish(event=done_event):
                if not event.triggered:
                    event.succeed()

            body = synthetic_cp_body(rng, params=params, on_done=_finish)
            deployment.kernel.spawn(f"{prefix}cp-bg-{slot}", body,
                                    affinity=affinity)
            yield done_event
            yield env.timeout(int(rng.exponential(5 * MILLISECONDS)))

    rollers = [
        env.process(_roller(slot), name=f"{prefix}cp-bg-roller-{slot}")
        for slot in range(rolling_tasks)
    ]
    return monitors, rollers
