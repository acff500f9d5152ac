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
        self.stage_samples = []       # (preprocess_ns, transfer_ns) pairs
        # Fault injection: no preprocessing engine may start before this
        # horizon (a wedged pipeline); already-started work is unaffected.
        self.stall_until_ns = 0

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
        if request.queue_id not in self._queues:
            raise KeyError(f"unknown queue {request.queue_id!r}")
        store, dst_cpu_id = self._queues[request.queue_id]
        now = self.env.now
        request.t_submit = now if request.t_submit is None else request.t_submit
        spans = self.env.spans
        if spans.enabled and request.span_id is None:
            spans.begin_dp(request, dst_cpu_id)

        # The probe inspects the destination CPU *before* preprocessing.
        if self.probe is not None:
            self.probe.on_packet(dst_cpu_id)

        # Claim the earliest-free pipeline engine.
        free_at, engine = self._engines[0]
        start = max(now, free_at, self.stall_until_ns)
        heapreplace(self._engines, (start + self.params.preprocess_ns, engine))
        request.t_accel_start = start
        ready_at = start + self.params.preprocess_ns + self.params.transfer_ns

        self._inflight[request.queue_id] = (
            self._inflight.get(request.queue_id, 0) + 1
        )

        def _deposit(_event):
            self._inflight[request.queue_id] -= 1
            request.t_rx_ready = self.env.now
            store.put(request)
            # The probe re-inspects at queue-write time: a vCPU that entered
            # during preprocessing would otherwise strand this packet for a
            # whole time slice.
            if self.probe is not None:
                self.probe.on_packet(dst_cpu_id)

        self.env.timeout(ready_at - now).callbacks.append(_deposit)
        self.packets_processed += 1
        if len(self.stage_samples) < 10_000:
            self.stage_samples.append(
                (self.params.preprocess_ns, self.params.transfer_ns)
            )
        return ready_at

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
