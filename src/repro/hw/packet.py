"""I/O requests flowing through the SmartNIC data plane."""

import enum
from itertools import count

from repro.sim.events import _PENDING

_packet_ids = count(1)


class PacketKind(enum.Enum):
    NET_RX = "net_rx"        # packet arriving from the wire toward the VM
    NET_TX = "net_tx"        # packet leaving the VM toward the wire
    STORAGE_SUBMIT = "storage_submit"      # block-IO submission
    STORAGE_COMPLETE = "storage_complete"  # block-IO device completion


class IORequest:
    """One unit of data-plane work with per-stage timestamps.

    The timestamps mirror Figure 6's breakdown: driver doorbell, accelerator
    preprocessing start, deposit into the shared rx queue, DP software
    pickup, and completion.  Latency metrics are derived from these.

    ``done``, the event the sender waits on, is taken off the request
    when the request completes: the event then holds the request as its
    value, and a request still holding the event would make a reference
    cycle per packet, left for the cyclic garbage collector.
    """

    __slots__ = (
        "packet_id",
        "kind",
        "size_bytes",
        "queue_id",
        "flow",
        "payload",
        "service_ns",
        "t_submit",
        "t_accel_start",
        "t_rx_ready",
        "t_dp_start",
        "t_done",
        "done",
        "span_id",
        "tenant",
    )

    def __init__(self, kind, size_bytes, queue_id, service_ns, flow=None,
                 payload=None, done=None, tenant=None):
        self.packet_id = next(_packet_ids)
        self.kind = kind
        self.size_bytes = int(size_bytes)
        self.queue_id = queue_id
        self.flow = flow
        self.payload = payload
        self.service_ns = int(service_ns)
        self.t_submit = None
        self.t_accel_start = None
        self.t_rx_ready = None
        self.t_dp_start = None
        self.t_done = None
        self.done = done
        # Causal-tracing correlation id (set while a span is open on this
        # request; see repro.obs.spans).
        self.span_id = None
        # Owning tenant id on multi-tenant boards (None elsewhere).
        self.tenant = tenant

    @property
    def total_latency_ns(self):
        if self.t_done is None or self.t_submit is None:
            return None
        return self.t_done - self.t_submit

    @property
    def queue_wait_ns(self):
        """Time spent sitting in the rx queue waiting for DP software."""
        if self.t_dp_start is None or self.t_rx_ready is None:
            return None
        return self.t_dp_start - self.t_rx_ready

    def complete(self, now_ns):
        self.t_done = now_ns
        done = self.done
        if done is not None:
            self.done = None
            if done._value is _PENDING:
                done.succeed(self)

    def deliver(self, event):
        """:meth:`complete` at ``event``'s time: the ``on_delivered``
        callback of the link transfer that finishes this request."""
        self.t_done = event.env.now
        done = self.done
        if done is not None:
            self.done = None
            if done._value is _PENDING:
                done.succeed(self)

    def __repr__(self):
        return (
            f"<IORequest #{self.packet_id} {self.kind.value} q={self.queue_id} "
            f"{self.size_bytes}B>"
        )
