"""Softirq subsystem.

Softirqs are per-CPU deferred-work vectors.  A handler is registered per
vector and runs *in the context of whichever thread is current* on the CPU,
at instruction boundaries (the model's analogue of irq-exit/do_softirq
points).  Tai Chi's vCPU scheduler performs pCPU→vCPU context switching
inside a dedicated softirq handler (Section 4.1), so the handler interface
supports generator handlers that consume simulated time.
"""

import enum
from collections import deque


class SoftirqVector(enum.Enum):
    TIMER = "timer"
    NET_RX = "net_rx"
    TASKLET = "tasklet"
    TAICHI_VCPU = "taichi_vcpu"


class SoftirqSubsystem:
    """Registry of softirq handlers plus per-CPU pending queues."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._handlers = {}
        self._pending = {}
        self.raised_count = 0
        self.executed_count = 0

    def register(self, vector, handler):
        """Register ``handler(cpu, payload)`` for ``vector``.

        The handler may be a plain callable or a generator function; a
        generator handler is driven by the CPU executor and may yield
        simulation events (consuming time on that CPU).
        """
        self._handlers[vector] = handler

    def raise_softirq(self, cpu, vector, payload=None):
        """Mark ``vector`` pending on ``cpu`` and nudge its executor."""
        self._pending.setdefault(cpu.cpu_id, deque()).append((vector, payload))
        self.raised_count += 1
        tracer = self.kernel.tracer
        if "softirq_raise" in tracer.reads:
            tracer.record(self.kernel.env.now, cpu.cpu_id, "softirq_raise",
                          vector=vector.value)
        cpu.kick()

    def pending(self, cpu):
        """True if the CPU has undelivered softirqs."""
        return bool(self._pending.get(cpu.cpu_id))

    def drain(self, cpu):
        """Remove and return all pending ``(vector, payload)`` entries.

        Used by CPU hotplug teardown so deferred work raised on a dying
        CPU can be taken over by a surviving one.
        """
        queue = self._pending.pop(cpu.cpu_id, None)
        return list(queue) if queue else []

    def run_pending(self, cpu):
        """Generator: execute all pending softirqs on ``cpu`` in order."""
        queue = self._pending.get(cpu.cpu_id)
        tracer = self.kernel.tracer
        while queue:
            vector, payload = queue.popleft()
            handler = self._handlers.get(vector)
            if handler is None:
                continue
            self.executed_count += 1
            if "softirq_run" in tracer.reads:
                tracer.record(self.kernel.env.now, cpu.cpu_id, "softirq_run",
                              vector=vector.value)
            result = handler(cpu, payload)
            if result is not None and hasattr(result, "__next__"):
                yield from result
