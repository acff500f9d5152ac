"""The software workload probe: adaptive DP-to-CP yielding (Section 4.3).

DP services count consecutive empty polls; crossing a threshold ``N``
means the CPU is idle enough to donate.  ``N`` adapts per service based on
VM-exit reasons observed on that CPU: timeslice-expiry exits mean the
idleness was real (lower ``N``, yield sooner); hardware-probe exits mean
the yield was a false positive (raise ``N``, be more conservative).
"""


class SoftwareWorkloadProbe:
    """Per-service adaptive empty-poll thresholds plus the notify hook."""

    __slots__ = ("config", "scheduler", "_thresholds", "notifications",
                 "increases", "decreases")

    def __init__(self, config, scheduler):
        self.config = config
        self.scheduler = scheduler
        self._thresholds = {}
        self.notifications = 0
        self.increases = 0
        self.decreases = 0

    def threshold_for(self, service):
        """Current empty-poll threshold for ``service``.

        Runs once per idle window on every DP service, so it avoids the
        ``setdefault`` default-construction on the hit path.
        """
        threshold = self._thresholds.get(service)
        if threshold is None:
            threshold = self.config.initial_threshold
            self._thresholds[service] = threshold
        return threshold

    def seed_threshold(self, service, threshold):
        """Start ``service`` from a per-tenant threshold instead of the
        config default; adaptation proceeds from there unchanged."""
        self._thresholds[service] = int(threshold)

    def notify_idle(self, service):
        """``notify_idle_DP_CPU_cycles``: the DP service crossed its threshold."""
        self.notifications += 1
        self.scheduler.on_dp_idle(service.cpu_id)

    def adapt(self, service, exit_reason):
        """Adjust the service's threshold from the slice's VM-exit reason."""
        from repro.virt.vmexit import VMExitReason

        if not self.config.adaptive_threshold:
            return
        current = self.threshold_for(service)
        if exit_reason is VMExitReason.TIMESLICE_EXPIRED:
            updated = max(current // 2, self.config.min_threshold)
            if updated != current:
                self.decreases += 1
        elif exit_reason is VMExitReason.HW_PROBE_IRQ:
            updated = min(current * 2, self.config.max_threshold)
            if updated != current:
                self.increases += 1
        else:
            return
        self._thresholds[service] = updated
        # Unit tests drive this with bare fake schedulers; only trace when
        # wired to a real kernel.
        kernel = getattr(self.scheduler, "kernel", None)
        if (updated != current and kernel is not None
                and "threshold_adapt" in kernel.tracer.reads):
            kernel.tracer.record(self.scheduler.env.now, service.cpu_id,
                                 "threshold_adapt", service=service.name,
                                 old=current, new=updated,
                                 reason=exit_reason.value)

    def stats(self):
        return {
            "notifications": self.notifications,
            "threshold_increases": self.increases,
            "threshold_decreases": self.decreases,
            "thresholds": {
                service.name: threshold
                for service, threshold in self._thresholds.items()
            },
        }
