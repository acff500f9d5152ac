"""The vCPU scheduler: softirq-based context switching (Section 4.1).

When the software workload probe reports an idle DP CPU, the scheduler
picks a runnable vCPU round-robin and raises the dedicated
``TAICHI_VCPU`` softirq on that CPU.  The softirq handler — running on the
idle CPU's own executor — performs VM-enter, lends the physical CPU to the
vCPU for one adaptive time slice, and takes it back on whichever happens
first: slice expiry, a hardware-probe preempt IRQ, or the vCPU halting.

Exit reasons drive two feedback loops: the per-vCPU adaptive time slice
(double on expiry, reset on probe IRQ) and — through the software probe —
the per-service empty-poll threshold.  Lock-safe CP-to-DP preemption
(immediately re-backing a preempted lock-holder elsewhere) guarantees
forward progress for spinlock owners.
"""

from collections import deque

from repro.hw.probe import CpuIoState
from repro.kernel.softirq import SoftirqVector
from repro.virt.grant import BackingGrant
from repro.virt.vmexit import VMExitReason


class VCPUScheduler:
    """Maps runnable vCPUs onto idle physical CPUs."""

    def __init__(self, board, config):
        self.board = board
        self.env = board.env
        self.config = config
        self.kernel = board.kernel
        self.hw_probe = board.hw_probe if config.hw_probe_enabled else None

        self.vcpus = []
        self._runnable = deque()          # round-robin queue of vCPUs with work
        self._runnable_set = set()
        # vCPUs handed to an in-flight softirq dispatch but not yet backed;
        # they must not be re-dispatched from another CPU in the meantime.
        # Maps vcpu -> reservation timestamp so the grant watchdog can age
        # out reservations stranded by a CPU that died mid-dispatch.
        self._reserved = {}
        self.active = {}                  # pcpu_id -> BackingGrant
        self._slice_ns = {}               # vcpu -> adaptive slice
        self._services_by_cpu = {}        # pcpu_id -> DPService
        self._cp_pcpus = list(board.cp_cpu_ids)
        self._cp_pcpu_rr = 0              # round-robin index for lock-safe fallback
        self.sw_probe = None              # wired by TaiChi
        self.tenancy = None               # wired by TenancyManager (multi-tenant)

        # Graceful degradation (driven by repro.core.degradation).
        # probe_degraded: operate as if hw_probe_enabled were off — slices
        # end on expiry only — with an optional tighter slice cap so DP
        # packets are not stranded behind full adaptive slices.
        self.probe_degraded = False
        self.degraded_max_slice_ns = None
        self._donation_blocked_until = {}  # pcpu_id -> ns horizon
        self.donation_blocks = 0

        # Statistics.
        self.slices_run = 0
        self.exits_by_reason = {reason: 0 for reason in VMExitReason}
        self.lock_safe_migrations = 0
        self.switch_overhead_ns = 0
        # Slices revoked by the hardware probe almost immediately after
        # entering: pure waste, the false-positive yields Section 4.3 (and
        # the Section 9 probe-fusion optimization) are about.
        self.premature_exits = 0
        self.premature_exit_window_ns = 10_000

    # -- Wiring ---------------------------------------------------------------------

    def install(self):
        """Register the softirq handler and the hardware-probe IRQ handler."""
        self.kernel.softirq.register(SoftirqVector.TAICHI_VCPU, self._slice_handler)
        self.kernel.idle_callbacks.append(self._on_pcpu_idle)
        for cpu in self.kernel.physical_cpus():
            cpu.work_callback = self._on_pcpu_pressure
        if self.hw_probe is not None:
            self.hw_probe.set_irq_handler(self._on_probe_irq)
        self.env.metrics.add_source("core.vcpu_scheduler", self.stats)

    def add_vcpu(self, vcpu):
        self.vcpus.append(vcpu)
        self._slice_ns[vcpu] = self.config.initial_slice_ns
        vcpu.work_callback = self._on_vcpu_work

    def register_service(self, service):
        """Associate a DP service with its CPU (pollution + idle queries)."""
        self._services_by_cpu[service.cpu_id] = service

    def unregister_service(self, service):
        """Detach a retired DP service (dynamic repartitioning)."""
        if self._services_by_cpu.get(service.cpu_id) is service:
            del self._services_by_cpu[service.cpu_id]

    def set_cp_pcpus(self, cpu_ids):
        """Replace the dedicated CP pCPU list (dynamic repartitioning)."""
        self._cp_pcpus = list(cpu_ids)
        self._cp_pcpu_rr = 0

    # -- Entry points ------------------------------------------------------------------

    def on_dp_idle(self, cpu_id):
        """Software probe callback: ``cpu_id`` has idle cycles to donate."""
        self._try_dispatch(cpu_id)

    def _on_vcpu_work(self, vcpu):
        """A vCPU gained runnable threads; try to find it an idle DP CPU."""
        if vcpu.is_backed:
            return
        self._mark_runnable(vcpu)
        self._dispatch_to_any_idle()

    def _cpu_is_donatable(self, cpu_id):
        """Can ``cpu_id`` host a vCPU slice right now?

        Requires an idle-blocked DP service, no active grant, and no
        realtime (DP) thread already waiting for or holding the CPU.
        """
        service = self._services_by_cpu.get(cpu_id)
        if service is None or not service.is_idle_blocked:
            return False
        if cpu_id in self.active:
            return False
        if self._donation_blocked_until.get(cpu_id, 0) > self.env.now:
            return False  # SLO guard: this CPU is protected for a while
        pcpu = self.kernel.cpus[cpu_id]
        if pcpu.runqueue.has_realtime:
            return False
        from repro.kernel.thread import ThreadState

        # The DP thread may still be registered as `current` right after it
        # blocked (softirqs run in its context) — that is donatable.  A
        # current thread that is READY or RUNNING (e.g. mid context-switch
        # charge) is about to use the CPU: hands off.
        current = pcpu.current
        return current is None or current.state in (
            ThreadState.BLOCKED, ThreadState.EXITED)

    def _dispatch_to_any_idle(self):
        """Donate any currently idle DP CPU to the runnable queue's head."""
        for cpu_id in self._services_by_cpu:
            if self._cpu_is_donatable(cpu_id):
                if self._try_dispatch(cpu_id):
                    return True
        return False

    def _on_pcpu_idle(self, pcpu):
        """An idle dedicated CP pCPU can back a starving runnable vCPU.

        This is the forward-progress guarantee: even when the data plane
        never yields, vCPUs carrying frozen CP tasks eventually execute on
        the CP partition.
        """
        if pcpu.is_virtual or pcpu.cpu_id in self._services_by_cpu:
            return False
        if pcpu.cpu_id in self.active:
            return False
        return self._try_dispatch(pcpu.cpu_id)

    def _on_pcpu_pressure(self, pcpu):
        """Native work arrived on a dedicated CP pCPU hosting a slice.

        CP pCPUs exist for CP threads; a donated slice yields to them
        immediately.  DP CPUs are exempt — there, resumption is governed by
        the hardware probe (or slice expiry in its absence), as in the real
        system where the poll loop is simply not running.
        """
        if pcpu.cpu_id in self._services_by_cpu:
            return
        grant = self.active.get(pcpu.cpu_id)
        if grant is not None and grant.active:
            grant.request_revoke(VMExitReason.EXTERNAL)

    def _on_probe_irq(self, cpu_id):
        """Hardware probe preempt IRQ: traffic is heading to ``cpu_id``."""
        grant = self.active.get(cpu_id)
        if grant is not None and grant.active:
            grant.request_revoke(VMExitReason.HW_PROBE_IRQ)

    # -- Runnable-queue maintenance -------------------------------------------------------

    def _mark_runnable(self, vcpu):
        if vcpu in self._runnable_set or vcpu.is_backed or vcpu in self._reserved:
            return
        if vcpu.runqueue.is_empty and vcpu.current is None:
            return
        self._runnable.append(vcpu)
        self._runnable_set.add(vcpu)

    def reserved_since(self):
        """Snapshot of in-flight dispatch reservations (watchdog input)."""
        return dict(self._reserved)

    def requeue_reservation(self, vcpu):
        """Rescue a vCPU whose dispatch softirq will never run.

        A reservation normally clears within one softirq latency; one that
        ages means the donor CPU went offline (or its softirq was lost).
        Returns True if the vCPU was re-queued for dispatch.
        """
        if self._reserved.pop(vcpu, None) is None:
            return False
        self._mark_runnable(vcpu)
        self._dispatch_to_any_idle()
        return True

    def block_donation(self, cpu_id, until_ns):
        """Keep ``cpu_id`` out of the donation pool until ``until_ns``."""
        self._donation_blocked_until[cpu_id] = max(
            self._donation_blocked_until.get(cpu_id, 0), int(until_ns))
        self.donation_blocks += 1

    def set_probe_degraded(self, degraded):
        """Demote to software-probe-only operation (or recover from it)."""
        self.probe_degraded = bool(degraded)

    def _next_runnable(self, cpu_id=None):
        """Pick the next vCPU with pending work for ``cpu_id``.

        Tenancy-blind (the default, and isolation-off tenancy): plain
        round-robin.  With tenant isolation installed, the pick is
        weighted-fair instead — the first runnable vCPU of each tenant
        allowed on ``cpu_id`` is a candidate, and the tenant with the
        lowest weight-normalized granted time wins.
        """
        tenancy = self.tenancy
        if tenancy is None or not tenancy.isolation:
            while self._runnable:
                vcpu = self._runnable.popleft()
                self._runnable_set.discard(vcpu)
                if vcpu.is_backed or vcpu in self._reserved:
                    continue
                if vcpu.runqueue.is_empty and vcpu.current is None:
                    continue
                return vcpu
            return None
        heads = {}                  # TenantRuntime (or None) -> FIFO head
        stale = []
        limit = len(tenancy.runtimes)
        for vcpu in self._runnable:
            if vcpu.is_backed or vcpu in self._reserved or (
                    vcpu.runqueue.is_empty and vcpu.current is None):
                stale.append(vcpu)
                continue
            if cpu_id is not None and not tenancy.may_back(cpu_id, vcpu):
                continue
            runtime = tenancy.tenant_of_vcpu(vcpu)
            if runtime is None:
                # Untagged vCPUs outrank every ledger: stop looking.
                heads = {None: vcpu}
                break
            if runtime not in heads:
                heads[runtime] = vcpu
                if len(heads) == limit:
                    break           # one head per tenant: the scan is done
        for vcpu in stale:
            self._runnable.remove(vcpu)
            self._runnable_set.discard(vcpu)
        if not heads:
            return None
        chosen = tenancy.choose(heads, cpu_id)
        self._runnable.remove(chosen)
        self._runnable_set.discard(chosen)
        return chosen

    def _try_dispatch(self, cpu_id, vcpu=None):
        if cpu_id in self.active:
            return False
        pcpu = self.kernel.cpus[cpu_id]
        if not pcpu.online or pcpu.offline_pending:
            return False  # hotplug: never raise a dispatch on a dead CPU
        if vcpu is not None and (vcpu.is_backed or vcpu in self._reserved):
            return False
        if vcpu is not None and self.tenancy is not None and \
                not self.tenancy.may_back(cpu_id, vcpu):
            return False
        candidate = vcpu if vcpu is not None else self._next_runnable(cpu_id)
        if candidate is None:
            return False
        self._reserved[candidate] = self.env.now
        self.kernel.softirq.raise_softirq(
            pcpu, SoftirqVector.TAICHI_VCPU, candidate
        )
        return True

    # -- The softirq handler (runs on the donor CPU's executor) ---------------------------

    def _slice_handler(self, pcpu, vcpu):
        costs = self.config.costs
        if vcpu is None:
            return
        if not vcpu.online or vcpu.is_backed or (
                vcpu.runqueue.is_empty and vcpu.current is None):
            self._reserved.pop(vcpu, None)
            return
        service = self._services_by_cpu.get(pcpu.cpu_id)
        if service is not None:
            can_lend = self._cpu_is_donatable(pcpu.cpu_id)
        else:
            # Dedicated CP pCPU (lock-safe fallback target): always usable.
            can_lend = pcpu.cpu_id not in self.active
        if not can_lend:
            # Don't strand the candidate: put it back and look elsewhere.
            self._reserved.pop(vcpu, None)
            self._mark_runnable(vcpu)
            self._dispatch_to_any_idle()
            return

        # Capture the probe once per slice: a mid-slice demotion must not
        # leave the V-state set on exit (enter/exit stay paired).
        hw_probe = None if self.probe_degraded else self.hw_probe
        slice_ns = self._slice_ns.get(vcpu, self.config.initial_slice_ns)
        if self.probe_degraded and self.degraded_max_slice_ns:
            # Without preempt IRQs a full adaptive slice strands packets;
            # cap it so the poll loop gets the CPU back soon.
            slice_ns = min(slice_ns, self.degraded_max_slice_ns)
        grant = BackingGrant(self.env, pcpu, vcpu, slice_ns)
        self.active[pcpu.cpu_id] = grant
        if hw_probe is not None:
            hw_probe.set_state(pcpu.cpu_id, CpuIoState.V_STATE)

        self.slices_run += 1
        tracer = self.kernel.tracer
        if "vmenter" in tracer.reads:
            tracer.record(self.env.now, pcpu.cpu_id, "vmenter",
                          vcpu=vcpu.cpu_id, slice_ns=slice_ns)
        yield from pcpu.consume(costs.vmenter_ns)
        vcpu.set_backing(grant)
        self._reserved.pop(vcpu, None)  # is_backed now guards re-dispatch

        ended = self.env.any_of([grant.expired, grant.revoke_request, grant.halted])
        yield from pcpu.await_event(ended, busy=False)

        reason = grant.resolve_end_reason()
        vcpu.revoke(reason)
        if self.tenancy is not None:
            self.tenancy.note_grant(
                vcpu, self.env.now - grant.granted_at_ns, pcpu.cpu_id)
        if hw_probe is not None:
            hw_probe.set_state(pcpu.cpu_id, CpuIoState.P_STATE)
        self.active.pop(pcpu.cpu_id, None)
        exit_cost = costs.vmexit_ns
        if self.config.cache_isolation:
            # CAT-style way partitioning: no pollution of DP working sets,
            # paid for with a small per-switch reconfiguration cost.
            exit_cost += self.config.isolation_overhead_ns
        yield from pcpu.consume(exit_cost)
        self.switch_overhead_ns += costs.vmenter_ns + exit_cost
        self.exits_by_reason[reason] += 1
        premature = (
            reason is VMExitReason.HW_PROBE_IRQ
            and self.env.now - grant.granted_at_ns
            <= self.premature_exit_window_ns
        )
        if premature:
            self.premature_exits += 1
        if "vmexit" in tracer.reads:
            tracer.record(self.env.now, pcpu.cpu_id, "vmexit",
                          vcpu=vcpu.cpu_id, reason=reason.value,
                          enter_cost_ns=costs.vmenter_ns,
                          exit_cost_ns=exit_cost, premature=premature)

        if service is not None and not self.config.cache_isolation:
            service.note_vcpu_ran()
        self._adapt_slice(vcpu, reason)
        if self.sw_probe is not None and service is not None:
            self.sw_probe.adapt(service, reason)
        self._post_slice(pcpu, vcpu, reason, service)
        if service is not None:
            # Hand the CPU back to the poll loop; re-crossing the (small,
            # adapted) empty-poll threshold re-donates it.
            service.resume_polling()

    # -- Post-slice policy ------------------------------------------------------------------

    def _post_slice(self, pcpu, vcpu, reason, service):
        has_work = not (vcpu.runqueue.is_empty and vcpu.current is None)
        if not has_work:
            return

        if vcpu.holds_any_lock:
            # Safe CP-to-DP scheduling in lock context (Section 4.1): the
            # descheduled vCPU holds a spinlock others may spin on; waiting
            # in the runnable queue would let the whole convoy burn CPUs
            # while the holder dribbles forward.  Re-back it immediately —
            # on another idle DP pCPU if one exists, else on a dedicated CP
            # pCPU round-robin — whatever ended the slice.
            self.lock_safe_migrations += 1
            tracer = self.kernel.tracer
            if "lock_safe_migrate" in tracer.reads:
                tracer.record(self.env.now, pcpu.cpu_id, "lock_safe_migrate",
                              vcpu=vcpu.cpu_id, reason=reason.value)
            target = self._find_idle_dp_cpu(exclude=pcpu.cpu_id, vcpu=vcpu)
            if target is not None and self._try_dispatch(target, vcpu=vcpu):
                return
            for _ in range(len(self._cp_pcpus)):
                if self._try_dispatch(self._next_cp_pcpu(), vcpu=vcpu):
                    return
            # Every fallback target is occupied right now; queue the vCPU
            # at the front so the next free CPU resumes the lock holder.
            self._runnable.appendleft(vcpu)
            self._runnable_set.add(vcpu)
            return

        self._mark_runnable(vcpu)

    def _find_idle_dp_cpu(self, exclude=None, vcpu=None):
        for cpu_id in self._services_by_cpu:
            if cpu_id == exclude or not self._cpu_is_donatable(cpu_id):
                continue
            if vcpu is not None and self.tenancy is not None and \
                    not self.tenancy.may_back(cpu_id, vcpu):
                continue
            return cpu_id
        return None

    def _next_cp_pcpu(self):
        cp_ids = self._cp_pcpus
        self._cp_pcpu_rr = (self._cp_pcpu_rr + 1) % len(cp_ids)
        return cp_ids[self._cp_pcpu_rr]

    # -- Adaptive time slice -------------------------------------------------------------------

    def _adapt_slice(self, vcpu, reason):
        if not self.config.adaptive_slice:
            return
        current = self._slice_ns.get(vcpu, self.config.initial_slice_ns)
        if reason is VMExitReason.TIMESLICE_EXPIRED:
            self._slice_ns[vcpu] = min(current * 2, self.config.max_slice_ns)
        elif reason is VMExitReason.HW_PROBE_IRQ:
            self._slice_ns[vcpu] = self.config.initial_slice_ns
        updated = self._slice_ns[vcpu]
        if updated != current:
            tracer = self.kernel.tracer
            if "slice_adapt" in tracer.reads:
                tracer.record(self.env.now, vcpu.cpu_id, "slice_adapt",
                              old_ns=current, new_ns=updated,
                              reason=reason.value)

    def slice_for(self, vcpu):
        return self._slice_ns.get(vcpu, self.config.initial_slice_ns)

    def stats(self):
        # Preprocessing-window accounting: probe-IRQ exits that arrived
        # comfortably before traffic landed were "hits" (the window bought
        # enough headroom); premature ones wasted the whole switch.
        probe_exits = self.exits_by_reason[VMExitReason.HW_PROBE_IRQ]
        return {
            "slices_run": self.slices_run,
            "exits": {r.value: c for r, c in self.exits_by_reason.items() if c},
            "lock_safe_migrations": self.lock_safe_migrations,
            "switch_overhead_ns": self.switch_overhead_ns,
            "premature_exits": self.premature_exits,
            "window_hits": probe_exits - self.premature_exits,
            "window_misses": self.premature_exits,
            "probe_degraded": self.probe_degraded,
            "donation_blocks": self.donation_blocks,
        }
