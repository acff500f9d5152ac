"""The hardware workload probe (Section 4.3, Figure 10).

The probe lives in the programmable I/O accelerator.  It keeps one state
byte per data-plane CPU — P-state ("a physical-CPU context is running;
interrupts masked") or V-state ("a vCPU context is running") — updated by
the vCPU scheduler.  Before a packet is preprocessed, the probe inspects
the destination CPU's state; for V-state it fires an asynchronous preempt
IRQ so the vCPU can be descheduled *while* the 3.2 us preprocessing window
elapses, hiding the ~2 us switch latency.

This is the ~30-line hardware change the paper describes; accordingly the
model is small.
"""

import enum


class CpuIoState(enum.Enum):
    P_STATE = "P"  # physical context running (DP service); mask the IRQ
    V_STATE = "V"  # vCPU context running; preempt on packet arrival


class HardwareWorkloadProbe:
    """Per-CPU state table plus the preempt-IRQ trigger."""

    def __init__(self, env, irq_latency_ns=300, enabled=True):
        self.env = env
        self.irq_latency_ns = int(irq_latency_ns)
        self.enabled = enabled
        self._states = {}
        self._irq_handler = None
        self.packets_inspected = 0
        self.irqs_fired = 0
        self.spurious_irqs = 0
        self.suppressed_irqs = 0
        # Fault-injection veto: ``veto(cpu_id) -> bool``; True swallows a
        # real V-state IRQ (a false-negative misprediction).
        self.veto = None

    def set_irq_handler(self, handler):
        """``handler(cpu_id)`` invoked when the probe fires a preempt IRQ."""
        self._irq_handler = handler

    def set_state(self, cpu_id, state):
        """vCPU scheduler updates: V-state on VM-enter, P-state on exit."""
        self._states[cpu_id] = state

    def get_state(self, cpu_id):
        return self._states.get(cpu_id, CpuIoState.P_STATE)

    def v_state_cpus(self):
        """CPU ids currently marked V-state (a vCPU context is running)."""
        return [cpu_id for cpu_id, state in self._states.items()
                if state is CpuIoState.V_STATE]

    def on_packet(self, dst_cpu_id):
        """Inspect destination CPU state; fire the IRQ for V-state targets."""
        self.packets_inspected += 1
        if not self.enabled or self._irq_handler is None:
            return False
        if self._states.get(dst_cpu_id) is not CpuIoState.V_STATE:
            return False
        if self.veto is not None and self.veto(dst_cpu_id):
            self.suppressed_irqs += 1
            return False
        self._fire(dst_cpu_id)
        return True

    def fire_spurious(self, cpu_id):
        """Fire a preempt IRQ with no packet behind it (false positive).

        Fault injection uses this to model a misreading probe; the IRQ is
        only meaningful — and only fired — while the CPU is in V-state.
        """
        if not self.enabled or self._irq_handler is None:
            return False
        if self._states.get(cpu_id) is not CpuIoState.V_STATE:
            return False
        self.spurious_irqs += 1
        self._fire(cpu_id, spurious=True)
        return True

    def _fire(self, dst_cpu_id, spurious=False):
        self.irqs_fired += 1
        tracer = self.env.tracer
        if "hwprobe_irq" in tracer.reads:
            tracer.record(self.env.now, dst_cpu_id, "hwprobe_irq",
                          latency_ns=self.irq_latency_ns, spurious=spurious)
        handler = self._irq_handler

        def _deliver(_event):
            handler(dst_cpu_id)

        self.env.timeout(self.irq_latency_ns).callbacks.append(_deliver)
