"""MySQL under sysbench: the paper's first real-world workload.

MySQL runs in the host VM; every query's request and response traverse the
SmartNIC data plane.  With 192 sysbench threads the offered rate saturates
the DP packet path, so query throughput tracks effective DP capacity —
which is how Tai Chi's 1.56 % average overhead (Figure 15) becomes
observable at all.
"""

from repro.hw.packet import IORequest, PacketKind
from repro.metrics import RateMeter
from repro.sim.units import MICROSECONDS
from repro.workloads.traffic import service_queue_ids

QUERY_PKT_SERVICE_NS = 1_600
QUERIES_PER_TRANSACTION = 10   # sysbench OLTP mix
HOST_QUERY_NS = 60 * MICROSECONDS


def run_mysql(deployment, duration_ns, n_threads=192, window_ns=None):
    """sysbench OLTP: returns avg/max query and transaction rates."""
    env = deployment.env
    queues = service_queue_ids(deployment)
    accelerator = deployment.board.accelerator
    draw = deployment.rng.exponentials("mysql").draw
    queries = RateMeter("queries")
    window_ns = window_ns or max(duration_ns // 10, 1)
    window_counts = []
    window_state = {"start": None, "count": 0}

    def _account_query():
        queries.add(env.now)
        if window_state["start"] is None:
            window_state["start"] = env.now
        window_state["count"] += 1
        if env.now - window_state["start"] >= window_ns:
            window_counts.append(
                window_state["count"] * 1e9 / (env.now - window_state["start"])
            )
            window_state["start"] = env.now
            window_state["count"] = 0

    def _client(index, deadline):
        queue_id = queues[index % len(queues)]
        while env.now < deadline:
            # One sysbench transaction: a batch of queries, each a request
            # packet to the VM plus a response packet out, with host-side
            # execution between them.
            for _ in range(QUERIES_PER_TRANSACTION):
                done = env.event()
                request = IORequest(PacketKind.NET_RX, 512, queue_id,
                                    service_ns=QUERY_PKT_SERVICE_NS, done=done)
                accelerator.submit(request)
                yield done
                host = int(draw(HOST_QUERY_NS))
                if host:
                    yield env.timeout(host)
                done = env.event()
                response = IORequest(PacketKind.NET_TX, 1024, queue_id,
                                     service_ns=QUERY_PKT_SERVICE_NS, done=done)
                accelerator.submit(response)
                yield done
                _account_query()

    deadline = env.now + duration_ns
    for index in range(n_threads):
        env.process(_client(index, deadline), name=f"sysbench-{index}")
    deployment.run(deadline)

    avg_query = queries.per_second(duration_ns)
    max_query = max(window_counts) if window_counts else avg_query
    return {
        "case": "mysql",
        "n_threads": n_threads,
        "avg_query_per_s": avg_query,
        "max_query_per_s": max_query,
        "avg_trans_per_s": avg_query / QUERIES_PER_TRANSACTION,
        "max_trans_per_s": max_query / QUERIES_PER_TRANSACTION,
    }
