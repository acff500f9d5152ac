"""Nginx under wrk: requests/s for HTTP and HTTPS at 10k connections.

Nginx serves from the host VM behind the SmartNIC data plane.  HTTP
keep-alive requests are two DP traversals (request in, response out);
HTTPS short connections add handshake packets, making them the
"short-connection scenario" where the paper observes Tai Chi's largest
(still ~1 %) overhead.
"""

from repro.hw.packet import IORequest, PacketKind
from repro.metrics import RateMeter
from repro.sim.units import MICROSECONDS
from repro.workloads.traffic import service_queue_ids

HTTP_PKT_SERVICE_NS = 1_400
HOST_SERVE_NS = 25 * MICROSECONDS
HTTPS_HANDSHAKE_PKTS = 3


def run_nginx(deployment, duration_ns, n_connections=10_000, protocol="http",
              max_clients=512):
    """wrk-style load; ``n_connections`` scaled down to ``max_clients``
    simulated client processes carrying the same aggregate concurrency."""
    env = deployment.env
    queues = service_queue_ids(deployment)
    accelerator = deployment.board.accelerator
    draw = deployment.rng.exponentials(f"nginx-{protocol}").draw
    requests = RateMeter("requests")
    n_clients = min(n_connections, max_clients)
    handshake = HTTPS_HANDSHAKE_PKTS if protocol == "https" else 0

    def _client(index, deadline):
        queue_id = queues[index % len(queues)]
        while env.now < deadline:
            for _ in range(handshake):
                done = env.event()
                accelerator.submit(IORequest(
                    PacketKind.NET_RX, 128, queue_id,
                    service_ns=HTTP_PKT_SERVICE_NS, done=done))
                yield done
            done = env.event()
            accelerator.submit(IORequest(
                PacketKind.NET_RX, 256, queue_id,
                service_ns=HTTP_PKT_SERVICE_NS, done=done))
            yield done
            host = int(draw(HOST_SERVE_NS))
            if host:
                yield env.timeout(host)
            done = env.event()
            accelerator.submit(IORequest(
                PacketKind.NET_TX, 4096, queue_id,
                service_ns=HTTP_PKT_SERVICE_NS, done=done))
            yield done
            requests.add(env.now)

    deadline = env.now + duration_ns
    for index in range(n_clients):
        env.process(_client(index, deadline), name=f"wrk-{index}")
    deployment.run(deadline)
    return {
        "case": f"nginx_{protocol}",
        "n_connections": n_connections,
        "requests_per_s": requests.per_second(duration_ns),
    }
