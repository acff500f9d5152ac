"""sockperf-equivalent cases: TCP short connections and UDP latency."""

from repro.hw.packet import PacketKind
from repro.sim.units import MICROSECONDS
from repro.workloads.traffic import ClosedLoopClients, OpenLoopSource

SHORT_CONN_PKT_SERVICE_NS = 1_300
UDP_PING_SERVICE_NS = 1_500


def run_sockperf_tcp(deployment, duration_ns, n_connections=1024):
    """TCP short-connection stress: setup + request/response + teardown."""
    clients = ClosedLoopClients(
        deployment, n_clients=n_connections, packets_per_txn=3,
        size_bytes=256, service_ns=SHORT_CONN_PKT_SERVICE_NS,
        draws=deployment.rng.exponentials("sockperf-tcp"),
    )
    clients.start(duration_ns)
    deployment.run(deployment.env.now + duration_ns)
    cps = clients.transactions.per_second(duration_ns)
    pps = clients.packets.per_second(duration_ns)
    return {
        "case": "sockperf_tcp",
        "n_connections": n_connections,
        "cps": cps,
        "avg_rx_pps": pps / 2,
        "avg_tx_pps": pps / 2,
    }


def run_sockperf_udp(deployment, duration_ns, rate_pps=20_000):
    """UDP latency probe: moderate-rate stream, avg/p99/p999 latencies."""
    source = OpenLoopSource(
        deployment, rate_pps, size_bytes=64, service_ns=UDP_PING_SERVICE_NS,
        kind=PacketKind.NET_TX,
        draws=deployment.rng.exponentials("sockperf-udp"),
    )
    source.start(duration_ns)
    deployment.run(deployment.env.now + duration_ns + 500 * MICROSECONDS)
    latency = source.latency
    return {
        "case": "sockperf_udp",
        "samples": latency.count,
        "udp_avg_lat_ns": latency.mean,
        "udp_p99_lat_ns": latency.p99() if latency.count else 0,
        "udp_p999_lat_ns": latency.p999() if latency.count else 0,
    }
