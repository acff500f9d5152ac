"""netperf-equivalent benchmark cases (Table 3).

* ``udp_stream`` — 64 concurrent connections, average RX bandwidth;
* ``tcp_stream`` — 64 connections, average RX/TX packets per second;
* ``tcp_rr`` — 1,024 connections of request/response round trips;
* ``tcp_crr`` — connect/request/response/close per transaction, the
  Section 6.3 virtualization-comparison workload (CPS, rx/tx pps).
"""

from repro.hw.packet import PacketKind
from repro.sim.units import MICROSECONDS
from repro.workloads.traffic import ClosedLoopClients, OpenLoopSource

# Per-packet DP software costs; large stream frames cost more than the
# small control segments of rr/crr transactions.
STREAM_PKT_SERVICE_NS = 1_900
RR_PKT_SERVICE_NS = 1_300
CRR_PKT_SERVICE_NS = 1_300


def run_udp_stream(deployment, duration_ns, n_connections=64, rate_pps=None):
    """UDP bulk receive: offered load slightly above DP capacity."""
    capacity_pps = _dp_capacity_pps(deployment, STREAM_PKT_SERVICE_NS)
    rate = rate_pps if rate_pps is not None else capacity_pps * 1.15
    source = OpenLoopSource(deployment, rate, size_bytes=1400,
                            service_ns=STREAM_PKT_SERVICE_NS,
                            kind=PacketKind.NET_RX,
                            draws=deployment.rng.exponentials("udp-stream"))
    source.start(duration_ns)
    deployment.run(deployment.env.now + duration_ns + 200 * MICROSECONDS)
    return {
        "case": "udp_stream",
        "n_connections": n_connections,
        "offered_pps": rate,
        "avg_rx_bw_gbps": source.delivered.bytes_per_second(duration_ns) * 8 / 1e9,
        "avg_rx_pps": source.delivered.per_second(duration_ns),
        "avg_lat_ns": source.latency.mean,
    }


def run_tcp_stream(deployment, duration_ns, n_connections=64, rate_pps=None):
    """TCP bulk transfer: data segments out, ACK processing in."""
    capacity_pps = _dp_capacity_pps(deployment, STREAM_PKT_SERVICE_NS)
    rate = rate_pps if rate_pps is not None else capacity_pps * 1.15
    tx = OpenLoopSource(deployment, rate, size_bytes=1448,
                        service_ns=STREAM_PKT_SERVICE_NS,
                        kind=PacketKind.NET_TX,
                        draws=deployment.rng.exponentials("tcp-stream-tx"))
    # ACK stream: roughly one ACK per two data segments, cheap to process.
    rx = OpenLoopSource(deployment, rate / 2, size_bytes=64,
                        service_ns=600, kind=PacketKind.NET_RX,
                        draws=deployment.rng.exponentials("tcp-stream-rx"),
                        measure_latency=False)
    tx.start(duration_ns)
    rx.start(duration_ns)
    deployment.run(deployment.env.now + duration_ns + 200 * MICROSECONDS)
    return {
        "case": "tcp_stream",
        "n_connections": n_connections,
        "avg_tx_pps": tx.delivered.per_second(duration_ns),
        "avg_rx_pps": rx.sent.per_second(duration_ns),
        "avg_lat_ns": tx.latency.mean,
    }


def run_tcp_rr(deployment, duration_ns, n_connections=1024):
    """Request/response over long-lived connections (2 packets per rr)."""
    clients = ClosedLoopClients(
        deployment, n_clients=n_connections, packets_per_txn=2,
        size_bytes=128, service_ns=RR_PKT_SERVICE_NS,
        draws=deployment.rng.exponentials("tcp-rr"),
    )
    clients.start(duration_ns)
    deployment.run(deployment.env.now + duration_ns)
    rr_per_s = clients.transactions.per_second(duration_ns)
    return {
        "case": "tcp_rr",
        "n_connections": n_connections,
        "rr_per_s": rr_per_s,
        "avg_rx_pps": rr_per_s,
        "avg_tx_pps": rr_per_s,
        "txn_p99_ns": clients.txn_latency.p99() if clients.txn_latency.count else 0,
    }


def run_tcp_crr(deployment, duration_ns, n_connections=256):
    """Connect/request/response/close: 4 packets per transaction."""
    clients = ClosedLoopClients(
        deployment, n_clients=n_connections, packets_per_txn=4,
        size_bytes=128, service_ns=CRR_PKT_SERVICE_NS,
        draws=deployment.rng.exponentials("tcp-crr"),
    )
    clients.start(duration_ns)
    deployment.run(deployment.env.now + duration_ns)
    cps = clients.transactions.per_second(duration_ns)
    pps = clients.packets.per_second(duration_ns)
    return {
        "case": "tcp_crr",
        "n_connections": n_connections,
        "cps": cps,
        "avg_rx_pps": pps / 2,
        "avg_tx_pps": pps / 2,
        "txn_mean_ns": clients.txn_latency.mean,
    }


def _dp_capacity_pps(deployment, service_ns):
    """Aggregate DP packet capacity given the per-packet software cost."""
    n_cpus = len(deployment.services)
    scale = deployment.dp_params.work_scale
    return n_cpus * 1e9 / (service_ns * scale)
