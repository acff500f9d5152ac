"""The unified IPI orchestrator (Section 4.2, Figure 8).

Hooks the kernel's IPI send path (the ``x2apic_send_IPI`` analogue) and
routes every IPI according to the source and destination CPU kinds:

* **source vCPU** — a VM-exit is charged before the IPI is reissued;
* **destination pCPU** — delivered through the ordinary MSR-write path;
* **destination running vCPU** — injected directly (posted interrupts);
* **destination sleeping vCPU** — the vCPU is woken (marked runnable with
  the scheduler) and the interrupt delivered once it is backed.

It also owns vCPU registration: vCPUs are created as *offline* native
CPUs, then onlined through INIT/STARTUP boot IPIs that this orchestrator
routes to them — after which standard affinity binds CP tasks to them
with zero code modifications (Figure 8a).
"""

from repro.kernel.ipi import IPIVector
from repro.virt.vcpu import VirtualCPU


class UnifiedIPIOrchestrator:
    """Intercepts and routes IPIs across the pCPU/vCPU boundary."""

    def __init__(self, kernel, scheduler, costs, posted_interrupts=True):
        self.kernel = kernel
        self.scheduler = scheduler
        self.costs = costs
        self.posted_interrupts = posted_interrupts

        self.routed_to_vcpu = 0
        self.routed_to_pcpu = 0
        self.source_exits = 0
        self.vcpu_wakeups = 0

    def install(self):
        self.kernel.ipi.set_send_hook(self.route)
        self.kernel.env.metrics.add_source("core.ipi_orchestrator", self.stats)

    # -- vCPU registration (Figure 8a) -------------------------------------------------

    def register_vcpus(self, count, work_tax=1.0, id_prefix="v"):
        """Create ``count`` vCPUs as offline native CPUs and boot them.

        Returns the new :class:`VirtualCPU` objects once their boot IPIs
        are in flight (they come online after the boot delay).
        """
        vcpus = []
        for index in range(count):
            vcpu = VirtualCPU(
                self.kernel, f"{id_prefix}{index}", online=False,
                lapic_id=f"lapic-{id_prefix}{index}", work_tax=work_tax,
            )
            self.kernel.register_cpu(vcpu)
            self.scheduler.add_vcpu(vcpu)
            vcpus.append(vcpu)
        for vcpu in vcpus:
            self.kernel.boot_cpu(vcpu.cpu_id)
        return vcpus

    # -- IPI routing (Figure 8b) ----------------------------------------------------------

    def route(self, src_cpu, dst_cpu, vector, payload):
        """The send hook; returns True when the IPI was handled here."""
        extra_latency = 0
        source_exit = isinstance(src_cpu, VirtualCPU) and src_cpu.is_backed
        if source_exit:
            # Source phase: a guest-initiated IPI VM-exits, the scheduler
            # reissues it, and the vCPU re-enters — modeled as added latency.
            self.source_exits += 1
            extra_latency += self.costs.ipi_source_exit_ns

        if not isinstance(dst_cpu, VirtualCPU):
            self.routed_to_pcpu += 1
            self._trace_route(src_cpu, dst_cpu, vector, "pcpu", source_exit)
            if extra_latency == 0:
                return False  # plain pCPU->pCPU: default MSR-write path
            self.kernel.ipi.deliver(
                dst_cpu, vector, payload,
                latency_ns=self.kernel.ipi.latency_ns + extra_latency,
            )
            return True

        # Destination phase: vCPU target.
        self.routed_to_vcpu += 1
        if vector in (IPIVector.INIT, IPIVector.STARTUP):
            self._trace_route(src_cpu, dst_cpu, vector, "boot", source_exit)
            self.kernel.ipi.deliver(
                dst_cpu, vector, payload,
                latency_ns=self.kernel.ipi.latency_ns + extra_latency,
            )
            return True

        if dst_cpu.is_backed and self.posted_interrupts:
            # Running vCPU: inject without a VM-exit.
            latency = self.costs.posted_interrupt_inject_ns + extra_latency
            self._trace_route(src_cpu, dst_cpu, vector, "posted", source_exit)
        else:
            latency = self.kernel.ipi.latency_ns + extra_latency
            if dst_cpu.online and not dst_cpu.is_backed:
                # Sleeping vCPU: wake it so the interrupt can be handled.
                self.vcpu_wakeups += 1
                self._trace_route(src_cpu, dst_cpu, vector, "wake",
                                  source_exit)
                self.scheduler._on_vcpu_work(dst_cpu)
            else:
                self._trace_route(src_cpu, dst_cpu, vector, "inject",
                                  source_exit)
        self.kernel.ipi.deliver(dst_cpu, vector, payload, latency_ns=latency)
        return True

    def _trace_route(self, src_cpu, dst_cpu, vector, decision, source_exit):
        tracer = self.kernel.tracer
        if "ipi_route" in tracer.reads:
            tracer.record(self.kernel.env.now,
                          getattr(src_cpu, "cpu_id", "-"), "ipi_route",
                          dst=dst_cpu.cpu_id, vector=vector.value,
                          decision=decision, source_exit=source_exit)

    def stats(self):
        return {
            "routed_to_vcpu": self.routed_to_vcpu,
            "routed_to_pcpu": self.routed_to_pcpu,
            "source_exits": self.source_exits,
            "vcpu_wakeups": self.vcpu_wakeups,
        }
