"""The production-soak driver: one Scenario, one board, one summary.

This is the simulation shape the paper's Section 6.6 production story
rests on — bursty DP background at a fixed offered load, CP hum, tenant
latency probes against the accelerator, VM-creation storms through the
host/eNIC lifecycle, then a drain window for in-flight startups.  The
fleet node worker, ``ext_production_soak``, ``ext_multitenant`` and the
``soak`` CLI all call :func:`run_soak` with a
:class:`~repro.scenario.spec.Scenario`.

Tenants are one abstraction over the pooled board, not a second driver.
A scenario that declares ``tenants`` installs a
:class:`~repro.tenancy.manager.TenancyManager` and runs one copy of the
load shape per tenant: DP background on the tenant's own rx queues, CP
hum and VM storms bound to the tenant's CP affinity through its own
:class:`~repro.cp.device_mgmt.DeviceManager`, and probes tagged with the
tenant id.  A tenant-less scenario is the same loop over one implicit
whole-board tenant.  Each tenant keeps one :class:`_SloBook` (the
pooled book is the whole-board tenant's), and the pooled summary and
every tenant block carry the same SLO keys from it.  A multi-tenant run
adds ``summary["tenants"][tid]`` blocks (sketches and counts, never raw
sample arrays — they ship through fleet JSON) and a
``summary["tenancy"]`` ledger view.

Determinism contract: the summary is a pure function of
``(scenario, seed, windows)`` — no wall clock, no process-global state.
The RNG stream names seed the per-purpose substreams, so renaming them
would silently re-draw every published number.  The whole-board tenant
keeps the names that predate tenancy (``dp-background``,
``cp-background``, ``fleet-probe``, ``fleet-storms``, ``device-mgmt``)
and probes the first queue of each of the board's first eight DP
services, read before warmup; a declared tenant
draws from ``tenant-<id>-{dp,cp,probe,storms}`` and ``device-mgmt-<id>``.
"""

from repro.hw.host import HostNode, VMSpec
from repro.hw.packet import IORequest, PacketKind
from repro.metrics import LatencyRecorder, QuantileSketch
from repro.metrics.stats import attainment_pct, summarize
from repro.sim.units import MICROSECONDS, MILLISECONDS

#: Probe-reservoir size: past it, percentiles and ``dp_samples_us`` come
#: from a uniform sample of the probes, while SLO counts stay exact.
_SAMPLE_CAP = 50_000

#: ``WorkloadMix.dp_utilization`` is offered load relative to this nominal
#: DP partition size, so a board that repartitions CPUs (``dp_boost``, or
#: type-2 losing one to QEMU) sees the *same* total traffic spread over
#: its actual service count — capacity changes show up in latency, not in
#: offered work.  A tenant's mix is scaled the same way.
_NOMINAL_DP_SERVICES = 8

#: Stream names of the implicit whole-board tenant (see the module doc).
_WHOLE_BOARD_STREAMS = {
    "dp": "dp-background",
    "cp": "cp-background",
    "probe": "fleet-probe",
    "storms": "fleet-storms",
    "device": "device-mgmt",
}


class _SloBook:
    """One tenant's SLO book: exact probe counts, a reservoir, sketches.

    Probes are scored against the SLO as they land, so attainment is
    exact however many there are; the bounded reservoir only feeds the
    percentiles.  The pool is the whole-board tenant's book.
    """

    def __init__(self, name, slo_us, channel):
        self.latency = LatencyRecorder(name=name, cap=_SAMPLE_CAP)
        self.slo_us = slo_us
        self.within = 0
        # With a telemetry bus the channel's cumulative sketch *is* the
        # summary sketch, so it accumulates identically with the bus on
        # or off.
        self.channel = channel
        self.sketch = channel.cumulative if channel is not None \
            else QuantileSketch()

    def record(self, latency_ns):
        self.latency.record(latency_ns)
        latency_us = latency_ns / MICROSECONDS
        if latency_us <= self.slo_us:
            self.within += 1
        if self.channel is not None:
            self.channel.observe(latency_us)
        else:
            self.sketch.add(latency_us)

    def samples_us(self):
        """The reservoir, in microseconds."""
        return [value / MICROSECONDS for value in self.latency.samples]

    def dp_attainment_pct(self):
        return attainment_pct(self.within, self.latency.count)

    def block(self, vms, now_ns, slo_ns):
        """The SLO keys every summary level shares, for these probes and
        the startups of ``vms`` at ``now_ns``."""
        startups_ms, startup_within, overdue_pending = _startup_counts(
            vms, now_ns, slo_ns)
        startup_total = len(startups_ms) + overdue_pending
        return {
            "dp_sample_count": self.latency.count,
            "dp_latency_us": summarize(self.samples_us(),
                                       qs=(50, 90, 99, 99.9)),
            "dp_slo_us": self.slo_us,
            "dp_within_slo": self.within,
            "dp_slo_total": self.latency.count,
            "dp_slo_attainment_pct": self.dp_attainment_pct(),
            "dp_sketch": self.sketch.to_dict(),
            "startup_ms": summarize(startups_ms, qs=(50, 90, 99)),
            "startup_slo_ms": slo_ns / MILLISECONDS,
            "startup_within_slo": startup_within,
            "startup_slo_total": startup_total,
            "startup_overdue_pending": overdue_pending,
            "startup_slo_attainment_pct": attainment_pct(startup_within,
                                                         startup_total),
            # Rebuilt from the *sorted* samples so its float ``sum`` is
            # independent of VM completion order (and of whether a
            # telemetry bus also streamed the same values).
            "startup_sketch": QuantileSketch().extend(
                startups_ms).to_dict(),
            "vms_started": len(startups_ms),
            "vms_requested": len(vms),
        }


class _Load:
    """One tenant's load shape and books during a soak.

    ``runtime`` is the tenant's
    :class:`~repro.tenancy.manager.TenantRuntime`, or None for the
    implicit whole-board tenant of a tenant-less scenario.
    """

    def __init__(self, scenario, deployment, runtime, dp_slo_us):
        self.deployment = deployment
        self.runtime = runtime
        self.host = None
        self.book = None
        if runtime is None:
            self.tenant_id = None
            self.mix = scenario.workload
            self.traffic = scenario.traffic
            self.dp_slo_us = dp_slo_us
            # Read before warmup, so a ``dp_boost`` repartition adds no
            # probed queue; ``type2`` (seven services) probes its seven.
            self.probe_queues = [
                service.queue_ids[0]
                for service in deployment.services[:_NOMINAL_DP_SERVICES]]
            return
        spec = runtime.spec
        self.tenant_id = runtime.tenant_id
        self.mix = spec.workload or scenario.workload
        self.traffic = spec.traffic or scenario.traffic
        self.dp_slo_us = spec.dp_slo_us if spec.dp_slo_us is not None \
            else dp_slo_us
        self.probe_queues = [service.queue_ids[0]
                             for service in runtime.services]

    # The board's services and CP affinity can change at warmup (dp_boost
    # repartitions), so the whole-board tenant reads them when used.
    @property
    def services(self):
        if self.runtime is None:
            return self.deployment.services
        return self.runtime.services

    @property
    def cp_affinity(self):
        if self.runtime is None:
            return self.deployment.cp_affinity
        return self.runtime.cp_affinity

    def name(self, base):
        """``base`` suffixed with the tenant id, if any."""
        return base if self.tenant_id is None else f"{base}-{self.tenant_id}"

    def stream(self, purpose):
        if self.tenant_id is None:
            return _WHOLE_BOARD_STREAMS[purpose]
        if purpose == "device":
            return f"device-mgmt-{self.tenant_id}"
        return f"tenant-{self.tenant_id}-{purpose}"


def run_soak(scenario, seed=0, duration_ns=400 * MILLISECONDS,
             drain_ns=200 * MILLISECONDS, dp_slo_us=300.0, fault_scale=1.0,
             label="node", telemetry=None, spans=False, exemplar_k=None):
    """Soak one scenario and return its picklable summary dict.

    ``fault_scale`` compresses the scenario's fault plan alongside a
    scaled duration; ``label`` names the board in the summary and its
    probe recorder (the fleet runner passes the node id).  ``dp_slo_us``
    scores the pooled probes and every tenant that declares no SLO.

    ``telemetry`` is an optional
    :class:`~repro.obs.telemetry.TelemetryConfig`: when set (or when the
    scenario declares ``alerts``, which arms a default config), a
    :class:`~repro.obs.telemetry.TelemetryBus` samples the run on
    sim-time intervals — counter deltas, health gauges (run-queue depth,
    grant occupancy, probe health, running SLO attainment, and
    ``tenant.<id>.*`` gauges per declared tenant), and sketch deltas for
    dp rx-wait and VM-startup latency — and an
    :class:`~repro.obs.alerts.SLOMonitor` evaluates the scenario's alert
    rules against each snapshot.  Telemetry never changes the simulated
    schedule (ticks only read state), and the summary's quantile
    sketches accumulate identically with the bus on or off.

    ``spans=True`` enables causal request tracing
    (:class:`~repro.obs.spans.SpanTracker`): DP probe packets and VM
    startups carry correlation ids, the K worst requests per channel
    (``exemplar_k``, default 4) ship under ``summary["exemplars"]`` with
    their full critical-path decomposition, and raised alerts reference
    the worst live exemplar ids.  Span tracking only *reads* the flat
    event stream, so every other summary key is byte-identical to a
    spans-off run.
    """
    from repro.cp.device_mgmt import DeviceManager
    from repro.scenario.spec import TRAFFIC_PROFILES
    from repro.workloads.background import (
        start_cp_background, start_dp_background,
    )

    deployment = scenario.build(seed=seed, fault_scale=fault_scale)
    if spans:
        deployment.env.spans.enable(exemplar_k=exemplar_k)
    env = deployment.env
    board = deployment.board

    tenancy = None
    runtimes = [None]
    if scenario.tenants:
        from repro.tenancy.manager import TenancyManager

        tenancy = TenancyManager(deployment, scenario.tenants,
                                 isolation=scenario.tenant_isolation).install()
        runtimes = tenancy.runtimes
    loads = [_Load(scenario, deployment, runtime, dp_slo_us)
             for runtime in runtimes]

    for load in loads:
        per_service_util = min(
            load.mix.dp_utilization * _NOMINAL_DP_SERVICES
            / len(deployment.services), 0.95)
        start_dp_background(
            deployment, utilization=per_service_util,
            burstiness=TRAFFIC_PROFILES[load.traffic],
            rng=deployment.rng.stream(load.stream("dp")),
            queues=[service.queue_ids[0] for service in load.services],
            label=load.name("dp-bg"), tenant=load.tenant_id)
        start_cp_background(
            deployment, n_monitors=load.mix.n_monitors,
            rolling_tasks=load.mix.rolling_tasks,
            rng=deployment.rng.stream(load.stream("cp")),
            affinity=load.cp_affinity, name_prefix=load.tenant_id)
    deployment.warmup()

    for load in loads:
        manager = DeviceManager(board, load.cp_affinity,
                                rng=board.rng.stream(load.stream("device")))
        load.host = HostNode(
            deployment, manager=manager,
            services=load.runtime.services if load.runtime else None,
            tenant_id=load.tenant_id)

    # Streaming telemetry (optional).  Scenario-declared alert rules
    # imply a bus even when the driver didn't ask for one, so SLO
    # monitoring is purely declarative.
    if telemetry is None and scenario.alerts is not None:
        from repro.obs.telemetry import TelemetryConfig

        telemetry = TelemetryConfig(node_id=label)
    bus = None
    ring = None
    monitor = None
    jsonl_writer = None
    if telemetry is not None:
        from repro.obs.alerts import SLOMonitor
        from repro.obs.telemetry import (
            RingSeries, TelemetryBus, TelemetryJsonlWriter,
        )

        node_id = telemetry.node_id if telemetry.node_id != "node" else label
        bus = TelemetryBus(registry=env.metrics,
                           interval_ns=telemetry.interval_ns,
                           node_id=node_id)
        rules = scenario.alerts if scenario.alerts is not None \
            else telemetry.alerts
        if rules is not None:
            # The monitor subscribes first so exported snapshots carry
            # the interval's active alerts.
            monitor = bus.subscribe(SLOMonitor(
                rules=rules, tracer=env.tracer, node_id=node_id,
                exemplar_provider=env.spans if spans else None))
        ring = bus.subscribe(RingSeries())
        if telemetry.jsonl_path:
            jsonl_writer = bus.subscribe(TelemetryJsonlWriter(
                telemetry.jsonl_path, node_id=node_id))

    def channel(name):
        return bus.channel(name) if bus is not None else None

    # The pooled book scores every probe; a declared tenant also keeps
    # its own book (the whole-board tenant's book *is* the pooled one).
    pooled = _SloBook(f"{label}-probe", dp_slo_us,
                      channel("dp_rx_wait_us"))
    for load in loads:
        load.book = pooled if load.runtime is None else _SloBook(
            f"{label}-probe-{load.tenant_id}", load.dp_slo_us,
            channel(f"tenant.{load.tenant_id}.dp_rx_wait_us"))

    def latency_probe(load):
        book = load.book

        def record_probe(event):
            latency_ns = event.value.total_latency_ns
            pooled.record(latency_ns)
            if book is not pooled:
                book.record(latency_ns)

        # A scalar stream: it draws a queue index (integers) and a gap
        # (exponential) per probe.
        rng = deployment.rng.stream(load.stream("probe"))
        period_ns = load.mix.probe_period_us * MICROSECONDS
        queues = load.probe_queues
        while True:
            queue_id = queues[int(rng.integers(0, len(queues)))]
            done = env.event()
            done.callbacks.append(record_probe)
            board.accelerator.submit(IORequest(
                PacketKind.NET_TX, 64, queue_id,
                service_ns=1_500, done=done, tenant=load.tenant_id))
            yield env.timeout(int(rng.exponential(period_ns)))

    def storm_source(load):
        # A scalar stream: exponential gaps and integer batch sizes.
        rng = deployment.rng.stream(load.stream("storms"))
        mix = load.mix
        period_ns = mix.vm_period_ms * MILLISECONDS
        while True:
            yield env.timeout(int(rng.exponential(period_ns)))
            for _ in range(int(rng.integers(mix.vm_batch_min,
                                            mix.vm_batch_max + 1))):
                load.host.create_vm(VMSpec(n_vblks=mix.vm_vblks))

    for load in loads:
        env.process(latency_probe(load), name=load.name("latency-probe"))
        env.process(storm_source(load), name=load.name("storm-source"))

    slo_ns = loads[0].host.manager.params.startup_slo_ns
    if bus is not None:
        _wire_bus_gauges(bus, deployment, loads, pooled, slo_ns)
        bus.attach(env)

    deployment.run(env.now + duration_ns)
    # Drain: give in-flight startups a grace window.
    deployment.run(env.now + drain_ns)
    if bus is not None:
        bus.close(env.now)

    all_vms = [vm for load in loads for vm in load.host.vms]
    injector = deployment.fault_injector
    summary = {
        "node_id": label,
        "deployment": scenario.arm,
        "traffic": scenario.traffic,
        "seed": seed,
        "dp_samples_us": pooled.samples_us(),
        "startup_samples_ms": _startup_counts(all_vms, env.now, slo_ns)[0],
        **pooled.block(all_vms, env.now, slo_ns),
        "faults": {
            "injected": injector.injected if injector else 0,
            "cleared": injector.cleared if injector else 0,
        },
        "engine": engine_summary(env),
    }
    if tenancy is not None:
        # Only added for declared tenants, so a tenant-less summary (and
        # its fleet JSON) carries no tenant keys at all.
        summary["tenancy"] = {
            "isolation": tenancy.isolation,
            "total_granted_ns": tenancy.total_granted_ns,
        }
        summary["tenants"] = {
            load.tenant_id: {
                "weight": load.runtime.weight,
                "services": len(load.runtime.services),
                "vcpus": len(load.runtime.vcpus),
                "dp_slo_declared": load.runtime.spec.dp_slo_us is not None,
                "granted_ns": load.runtime.granted_ns,
                "grants": load.runtime.grants,
                **load.book.block(load.host.vms, env.now, slo_ns),
            }
            for load in loads
        }
    if spans:
        # Only added when spans are on, so a spans-off summary (and its
        # fleet JSON) stays byte-identical to previous releases.
        summary["exemplars"] = env.spans.exemplars()
        summary["spans"] = {
            "completed": env.spans.roots_completed,
            "open": env.spans.open_spans(),
        }
    if bus is not None:
        summary["telemetry"] = {
            "intervals": bus.snapshots_emitted,
            "interval_ms": telemetry.interval_ms,
            "path": telemetry.jsonl_path,
            "ring_retained": len(ring),
            "alerts": monitor.summary() if monitor is not None else None,
        }
        if jsonl_writer is not None:
            summary["telemetry"]["path"] = jsonl_writer.finish()
    return summary


def _startup_counts(vms, now_ns, slo_ns):
    """Sorted startup samples (ms), within-SLO count, overdue count.

    A startup still pending past the SLO is a violation even though it
    never produced a sample — a saturated control plane must not score
    100% by finishing almost nothing.  Requests younger than the SLO at
    stream end are censored (they still had time), not counted.
    """
    slo_ms = slo_ns / MILLISECONDS
    startups_ms = sorted(
        vm.startup_time_ns() / MILLISECONDS for vm in vms
        if vm.startup_time_ns() is not None)
    within = sum(1 for value in startups_ms if value <= slo_ms)
    overdue = sum(
        1 for vm in vms
        if vm.startup_time_ns() is None
        and now_ns - vm.request.t_issued > slo_ns)
    return startups_ms, within, overdue


def engine_summary(env):
    """Deterministic engine self-profile for the summary ``engine`` block.

    Only wall-clock-free fields ship (no ``wall_time_s`` /
    ``events_per_wall_s``), keeping the fleet's byte-identity contract
    across ``--jobs`` levels.  ``events_skipped`` counts the empty DP
    polls that analytic idle waits covered instead of simulating one
    event each; ``fast_forward_windows`` counts those waits.
    """
    profile = env.profile()
    return {
        "events_processed": profile["events_processed"],
        "events_skipped": profile["events_skipped"],
        "fast_forward_windows": profile["fast_forward_windows"],
        "skipped_ratio": profile["skipped_ratio"],
    }


def _wire_bus_gauges(bus, deployment, loads, pooled, slo_ns):
    """Board-health gauges, the VM-startup collector, tenant gauges.

    Everything here *reads* simulation state — gauges and collectors
    must never mutate the schedule, or telemetry-on runs would diverge
    from telemetry-off runs.  Per-tenant gauges are named
    ``tenant.<id>.*``, so declarative alert rules address a tenant with
    no alert-code support.
    """
    env = deployment.env
    kernel = deployment.board.kernel
    taichi = deployment.taichi

    bus.add_gauge("rq_depth", lambda: sum(
        len(cpu.runqueue) for cpu in kernel.cpus.values()))
    if taichi is not None:
        scheduler = taichi.scheduler
        bus.add_gauge("grant_occupancy", lambda: sum(
            1 for grant in scheduler.active.values() if grant.active))
        bus.add_gauge("probe_health",
                      lambda: 0.0 if scheduler.probe_degraded else 1.0)
    else:
        # Baselines have no probe to lose; report steady health so the
        # same alert rules apply across arms.
        bus.add_gauge("probe_health", lambda: 1.0)
    bus.add_gauge("dp_slo_attainment_pct", pooled.dp_attainment_pct)

    startup_channel = bus.channel("vm_startup_ms")
    seen = set()

    def collect_startups(now_ns):
        for load in loads:
            for vm in load.host.vms:
                if id(vm) in seen:
                    continue
                startup_ns = vm.startup_time_ns()
                if startup_ns is None:
                    continue
                seen.add(id(vm))
                startup_channel.observe(startup_ns / MILLISECONDS)

    bus.add_collector(collect_startups)

    def startup_attainment(group):
        def gauge():
            startups_ms, within, overdue = _startup_counts(
                [vm for load in group for vm in load.host.vms], env.now,
                slo_ns)
            return attainment_pct(within, len(startups_ms) + overdue)
        return gauge

    bus.add_gauge("startup_slo_attainment_pct", startup_attainment(loads))
    for load in loads:
        if load.runtime is None:
            continue
        prefix = f"tenant.{load.tenant_id}"
        bus.add_gauge(f"{prefix}.dp_slo_attainment_pct",
                      load.book.dp_attainment_pct)
        bus.add_gauge(f"{prefix}.startup_slo_attainment_pct",
                      startup_attainment([load]))
        bus.add_gauge(f"{prefix}.granted_ns",
                      lambda runtime=load.runtime: runtime.granted_ns)
