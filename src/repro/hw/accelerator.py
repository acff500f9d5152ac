"""The programmable I/O accelerator with its preprocessing pipeline.

Figure 6's timing breakdown is reproduced literally: a submitted I/O
request is preprocessed for ``preprocess_ns`` (2.7 us — payload moved into
the internal buffer and processed) and then transferred for
``transfer_ns`` (0.5 us) into the rx queue shared with the destination DP
service.  Before preprocessing begins, the hardware workload probe
inspects the destination CPU's state (Section 4.3) — this ordering is what
creates the 3.2 us window that hides vCPU switch latency.
"""

from dataclasses import dataclass
from heapq import heapreplace

from repro.sim.events import Timeout
from repro.sim.units import MICROSECONDS


@dataclass
class AcceleratorParams:
    preprocess_ns: int = 2_700       # stage 2 in Figure 6
    transfer_ns: int = 500           # stage 3 in Figure 6
    # Concurrent preprocessing engines: the ASIC pipelines deeply enough to
    # keep preprocessing off the throughput-critical path (per-packet
    # latency stays 2.7 us; aggregate rate stays above what 8 DP cores can
    # consume in software).
    pipelines: int = 64


class Accelerator:
    """Routes I/O requests into per-CPU rx queues after preprocessing."""

    def __init__(self, env, params=None, probe=None):
        self.env = env
        self.params = params or AcceleratorParams()
        self.probe = probe
        self._queues = {}             # queue_id -> (Store, dst_cpu_id)
        # (free_at_ns, engine) min-heap: the root is the earliest-free
        # preprocessing engine, ties going to the lowest engine index.
        self._engines = [(0, engine) for engine in range(self.params.pipelines)]
        self._inflight = {}           # queue_id -> packets inside the pipeline
        self.packets_processed = 0
        # Fault injection: no preprocessing engine may start before this
        # horizon (a wedged pipeline); already-started work is unaffected.
        self.stall_until_ns = 0
        # Bound once: every submitted packet's deposit timeout runs it.
        self._depositor = self._deposit

    def attach_queue(self, queue_id, store, dst_cpu_id):
        """Register a shared-memory rx queue owned by a DP service CPU."""
        self._queues[queue_id] = (store, dst_cpu_id)

    def retarget_queue(self, queue_id, dst_cpu_id):
        """Repoint a queue at a different DP CPU (repartitioning support)."""
        store, _ = self._queues[queue_id]
        self._queues[queue_id] = (store, dst_cpu_id)

    def queue_owner(self, queue_id):
        return self._queues[queue_id][1]

    def queue_store(self, queue_id):
        return self._queues[queue_id][0]

    @property
    def queue_ids(self):
        return list(self._queues)

    def submit(self, request):
        """Accept a request from the driver side (stage 1 of Figure 6)."""
        queue_id = request.queue_id
        entry = self._queues.get(queue_id)
        if entry is None:
            raise KeyError(f"unknown queue {queue_id!r}")
        store, dst_cpu_id = entry
        env = self.env
        now = env.now
        if request.t_submit is None:
            request.t_submit = now
        spans = env.spans
        if spans.enabled and request.span_id is None:
            spans.begin_dp(request, dst_cpu_id)

        # The probe inspects the destination CPU *before* preprocessing.
        if self.probe is not None:
            self.probe.on_packet(dst_cpu_id)

        # Claim the earliest-free pipeline engine.
        params = self.params
        free_at, engine = self._engines[0]
        start = free_at if free_at > now else now
        if self.stall_until_ns > start:
            start = self.stall_until_ns
        preprocessed_at = start + params.preprocess_ns
        heapreplace(self._engines, (preprocessed_at, engine))
        request.t_accel_start = start
        ready_at = preprocessed_at + params.transfer_ns

        inflight = self._inflight
        inflight[queue_id] = inflight.get(queue_id, 0) + 1

        # The deposit carries its destination as the timeout's value: the
        # store and CPU are the ones the queue had at submit time, even if
        # the queue is retargeted while the packet is in the pipeline.
        Timeout(env, ready_at - now,
                (request, store, dst_cpu_id)).callbacks.append(self._depositor)
        self.packets_processed += 1
        return ready_at

    def _deposit(self, event):
        """Write a preprocessed packet into its rx queue (stage 3 ends)."""
        request, store, dst_cpu_id = event._value
        self._inflight[request.queue_id] -= 1
        request.t_rx_ready = event.env.now
        store.put(request)
        # The probe re-inspects at queue-write time: a vCPU that entered
        # during preprocessing would otherwise strand this packet for a
        # whole time slice.
        if self.probe is not None:
            self.probe.on_packet(dst_cpu_id)

    def queue_inflight(self, queue_id):
        """Packets currently inside the preprocessing pipeline for a queue.

        Exposed as pipeline metadata for the Section 9 "multi-dimensional
        idle assessment": traffic that is already being preprocessed means
        the destination CPU is about to be busy, whatever its empty-poll
        counter says.
        """
        return self._inflight.get(queue_id, 0)

    @property
    def window_ns(self):
        """The preprocessing window available for hiding scheduling latency."""
        return self.params.preprocess_ns + self.params.transfer_ns

    def __repr__(self):
        return (
            f"<Accelerator queues={len(self._queues)} "
            f"window={self.window_ns / MICROSECONDS:.1f}us>"
        )
