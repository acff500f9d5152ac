"""Graceful degradation: keep both SLOs alive when the substrate misbehaves.

Production SmartNICs lose IPIs, run probes that misfire, and take CPUs
offline under foot; the scheduler must degrade, not deadlock.  Four
mechanisms, each cheap enough to run always-on, each leaving a traced
``fault.handled`` event (the recovery half that fault-aware invariant
checking looks for):

* **Grant watchdog** — ages out dispatch *reservations* stranded by a CPU
  that died between ``raise_softirq`` and the handler running, and
  force-revokes backing grants that outlive any legal slice.
* **Probe-health monitor** — detects a dark or lying hardware workload
  probe (no IRQs while slices expire under traffic, or a sustained
  false-positive exit rate) and demotes the scheduler to software-only
  probing with a tightened slice cap; recovers after a cooldown.
* **IPI retry** — bounded retry/backoff for cross-boundary IPIs the
  orchestrator's delivery path reports dropped (the difference between a
  CP pCPU that reboots and one that stays down forever).
* **SLO guard** — tracks per-service rx-queue waits; under a sustained
  tail breach it shields the breaching DP CPUs from donation for a hold
  period (revoking any active grant), and can escalate to a
  ``repartition`` callback when the breach is fleet-wide.
"""

from dataclasses import dataclass

from repro.metrics.stats import percentile
from repro.sim.units import MICROSECONDS, MILLISECONDS
from repro.virt.vmexit import VMExitReason


@dataclass
class DegradationConfig:
    """Tunables for all four degradation mechanisms."""

    # Grant watchdog.
    watchdog_interval_ns: int = 250 * MICROSECONDS
    reserve_timeout_ns: int = 200 * MICROSECONDS
    grant_timeout_ns: int = 2_600 * MICROSECONDS  # > 2x max slice + slack

    # Probe-health monitor.
    probe_interval_ns: int = 20 * MILLISECONDS
    probe_min_exits: int = 4
    probe_fp_rate: float = 0.5            # premature / probe exits to demote
    probe_cooldown_ns: int = 100 * MILLISECONDS
    degraded_max_slice_ns: int = 100 * MICROSECONDS

    # IPI retry.
    ipi_retry_limit: int = 5
    ipi_retry_backoff_ns: int = 20 * MICROSECONDS

    # SLO guard.
    slo_interval_ns: int = 20 * MILLISECONDS
    dp_tail_slo_ns: int = 150 * MICROSECONDS
    slo_min_samples: int = 16
    slo_sustain: int = 2                  # consecutive breaching intervals
    slo_hold_ns: int = 50 * MILLISECONDS
    slo_escalate_fraction: float = 0.5    # breaching-service share to repartition


class DegradationManager:
    """Installs the degradation mechanisms on one Tai Chi instance."""

    def __init__(self, taichi, config=None, repartition=None):
        self.taichi = taichi
        self.config = config or DegradationConfig()
        self.env = taichi.env
        self.kernel = taichi.board.kernel
        self.scheduler = taichi.scheduler
        self.repartition = repartition

        self.installed = False
        self.watchdog_requeues = 0
        self.watchdog_revokes = 0
        self.probe_demotions = 0
        self.probe_promotions = 0
        self.ipi_retries = 0
        self.ipi_retry_delivered = 0
        self.ipi_retry_exhausted = 0
        self.slo_interventions = 0
        self.repartitions = 0

    def install(self):
        if self.installed:
            raise RuntimeError("degradation manager already installed")
        self.installed = True
        env = self.env
        env.process(self._watchdog_loop(), name="degradation-watchdog")
        if self.scheduler.hw_probe is not None:
            env.process(self._probe_monitor_loop(),
                        name="degradation-probe-monitor")
        env.process(self._slo_guard_loop(), name="degradation-slo-guard")
        self.kernel.ipi.add_drop_listener(self._on_ipi_drop)
        env.metrics.add_source("core.degradation", self.stats)
        return self

    # -- Trace plumbing ----------------------------------------------------------

    def _handled(self, cpu_id, mechanism, **detail):
        tracer = self.kernel.tracer
        if "fault.handled" in tracer.reads:
            tracer.record(self.env.now, cpu_id, "fault.handled",
                          mechanism=mechanism, **detail)

    # -- Grant watchdog ----------------------------------------------------------

    def _watchdog_loop(self):
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.watchdog_interval_ns)
            now = self.env.now
            for vcpu, since_ns in list(self.scheduler.reserved_since().items()):
                if now - since_ns <= cfg.reserve_timeout_ns:
                    continue
                if self.scheduler.requeue_reservation(vcpu):
                    self.watchdog_requeues += 1
                    self._handled(vcpu.cpu_id, "watchdog_requeue",
                                  age_ns=now - since_ns)
            for cpu_id, grant in list(self.scheduler.active.items()):
                if not grant.active:
                    continue
                if now - grant.granted_at_ns <= cfg.grant_timeout_ns:
                    continue
                grant.request_revoke(VMExitReason.EXTERNAL)
                self.watchdog_revokes += 1
                self._handled(cpu_id, "watchdog_revoke",
                              vcpu=grant.vcpu.cpu_id,
                              age_ns=now - grant.granted_at_ns)

    # -- Probe-health monitor -----------------------------------------------------

    def _probe_monitor_loop(self):
        cfg = self.config
        scheduler = self.scheduler
        probe = scheduler.hw_probe

        def snapshot():
            return (probe.irqs_fired, probe.packets_inspected,
                    scheduler.exits_by_reason[VMExitReason.TIMESLICE_EXPIRED],
                    scheduler.exits_by_reason[VMExitReason.HW_PROBE_IRQ],
                    scheduler.premature_exits)

        last = snapshot()
        while True:
            yield self.env.timeout(cfg.probe_interval_ns)
            current = snapshot()
            d_irqs, d_packets, d_expired, d_probe_exits, d_premature = (
                current[i] - last[i] for i in range(5))
            last = current
            dark = (d_irqs == 0 and d_packets > 0
                    and d_expired >= cfg.probe_min_exits)
            lying = (d_probe_exits >= cfg.probe_min_exits
                     and d_premature / max(d_probe_exits, 1)
                     >= cfg.probe_fp_rate)
            if not (dark or lying):
                continue
            scheduler.degraded_max_slice_ns = cfg.degraded_max_slice_ns
            scheduler.set_probe_degraded(True)
            self.probe_demotions += 1
            self._handled("-", "probe_demote",
                          cause="dark" if dark else "false_positives",
                          irqs=d_irqs, expired=d_expired,
                          premature=d_premature)
            yield self.env.timeout(cfg.probe_cooldown_ns)
            scheduler.set_probe_degraded(False)
            self.probe_promotions += 1
            self._handled("-", "probe_promote")
            last = snapshot()

    # -- IPI retry ----------------------------------------------------------------

    def _on_ipi_drop(self, dst_cpu, vector, payload, latency_ns):
        self.env.process(
            self._retry_chain(dst_cpu, vector, payload, latency_ns),
            name=f"ipi-retry-{dst_cpu.cpu_id}")

    def _retry_chain(self, dst_cpu, vector, payload, latency_ns):
        cfg = self.config
        for attempt in range(1, cfg.ipi_retry_limit + 1):
            yield self.env.timeout(cfg.ipi_retry_backoff_ns * attempt)
            self.ipi_retries += 1
            delivered = self.kernel.ipi.deliver(
                dst_cpu, vector, payload, latency_ns=latency_ns,
                notify_drop=False)
            if delivered:
                self.ipi_retry_delivered += 1
                self._handled(dst_cpu.cpu_id, "ipi_retry",
                              vector=vector.value, attempt=attempt)
                return
        self.ipi_retry_exhausted += 1
        self._handled(dst_cpu.cpu_id, "ipi_retry_exhausted",
                      vector=vector.value, attempts=cfg.ipi_retry_limit)

    # -- SLO guard ------------------------------------------------------------------

    def _services(self):
        return list(self.scheduler._services_by_cpu.values())

    def _slo_guard_loop(self):
        cfg = self.config
        breaching_streak = {}          # cpu_id -> consecutive intervals
        escalated = False
        while True:
            yield self.env.timeout(cfg.slo_interval_ns)
            services = self._services()
            breaching_now = 0
            for service in services:
                waits = service.recent_queue_wait_ns()
                if len(waits) < cfg.slo_min_samples:
                    breaching_streak[service.cpu_id] = 0
                    continue
                p99 = percentile(waits, 99)
                if p99 <= cfg.dp_tail_slo_ns:
                    breaching_streak[service.cpu_id] = 0
                    continue
                breaching_now += 1
                streak = breaching_streak.get(service.cpu_id, 0) + 1
                breaching_streak[service.cpu_id] = streak
                if streak < cfg.slo_sustain:
                    continue
                breaching_streak[service.cpu_id] = 0
                self._protect(service, p99)
            if (not escalated and self.repartition is not None and services
                    and breaching_now / len(services)
                    >= cfg.slo_escalate_fraction):
                escalated = True
                self.repartitions += 1
                self._handled("-", "repartition",
                              breaching=breaching_now,
                              services=len(services))
                self.repartition()

    def _protect(self, service, p99_ns):
        cfg = self.config
        cpu_id = service.cpu_id
        self.scheduler.block_donation(cpu_id, self.env.now + cfg.slo_hold_ns)
        grant = self.scheduler.active.get(cpu_id)
        if grant is not None and grant.active:
            grant.request_revoke(VMExitReason.EXTERNAL)
        service.reset_queue_wait_window()
        self.slo_interventions += 1
        self._handled(cpu_id, "slo_guard", p99_ns=int(p99_ns),
                      hold_ns=cfg.slo_hold_ns)

    # -- Reporting --------------------------------------------------------------------

    def stats(self):
        return {
            "watchdog_requeues": self.watchdog_requeues,
            "watchdog_revokes": self.watchdog_revokes,
            "probe_demotions": self.probe_demotions,
            "probe_promotions": self.probe_promotions,
            "ipi_retries": self.ipi_retries,
            "ipi_retry_delivered": self.ipi_retry_delivered,
            "ipi_retry_exhausted": self.ipi_retry_exhausted,
            "slo_interventions": self.slo_interventions,
            "repartitions": self.repartitions,
            "probe_degraded": self.scheduler.probe_degraded,
        }

    def __repr__(self):
        state = "installed" if self.installed else "pending"
        return f"<DegradationManager {state}>"
