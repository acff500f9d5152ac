"""Latency + bandwidth links: PCIe lanes and the physical NIC port."""

from repro.sim.events import Timeout


class Link:
    """A serializing link with propagation latency.

    Transfers occupy the link back-to-back (``size / bandwidth``) and then
    propagate for ``latency_ns``.  ``transfer`` returns the delivery time;
    the caller schedules whatever happens at the far end, or passes an
    ``on_delivered(event)`` callback that the delivery timeout runs.

    Wire jitter is exponential with mean ``jitter_ns``, taken from
    ``jitter`` (an :class:`~repro.sim.rng.ExponentialDraws`, or ``None``
    for no jitter).
    """

    def __init__(self, env, name, bandwidth_gbps, latency_ns, jitter=None,
                 jitter_ns=0):
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.name = name
        self.bandwidth_gbps = float(bandwidth_gbps)
        self.latency_ns = int(latency_ns)
        self.jitter_ns = int(jitter_ns)
        self._jitter = jitter if self.jitter_ns > 0 else None
        self._next_free_ns = 0
        self.transfers = 0
        self.bytes_moved = 0

    def transfer(self, size_bytes, on_delivered=None):
        """Schedule a transfer; returns the absolute delivery time (ns)."""
        now = self.env.now
        start = max(now, self._next_free_ns)
        ser = int(size_bytes * 8 / self.bandwidth_gbps)
        self._next_free_ns = start + ser
        deliver_at = start + ser + self.latency_ns
        if self._jitter is not None:
            deliver_at += int(self._jitter.draw(self.jitter_ns))
        self.transfers += 1
        self.bytes_moved += size_bytes
        if on_delivered is not None:
            Timeout(self.env, deliver_at - now).callbacks.append(on_delivered)
        return deliver_at

    def utilization(self, window_ns):
        """Fraction of ``window_ns`` the link spent serializing data."""
        if window_ns <= 0:
            return 0.0
        busy = self.bytes_moved * 8 / self.bandwidth_gbps
        return min(busy / window_ns, 1.0)

    def __repr__(self):
        return f"<Link {self.name!r} {self.bandwidth_gbps}Gbps lat={self.latency_ns}ns>"
