"""Shared traffic-generation machinery for the benchmark workloads."""

from repro.hw.packet import IORequest, PacketKind
from repro.metrics import LatencyRecorder, RateMeter
from repro.sim.events import Event, Timeout


def service_queue_ids(deployment):
    """One representative queue id per DP service (round-robin targets)."""
    return [service.queue_ids[0] for service in deployment.services]


class OpenLoopSource:
    """Sends packets at a fixed aggregate rate, spread across queues.

    Suitable for *_stream benchmarks: the offered load is independent of
    completions, so saturation shows up as queueing/drops-in-latency rather
    than reduced offered rate.  Gaps are exponential, taken from
    ``draws`` (an :class:`~repro.sim.rng.ExponentialDraws`; the
    ``open-loop`` stream by default).
    """

    def __init__(self, deployment, rate_pps, size_bytes, service_ns,
                 kind=PacketKind.NET_TX, draws=None, measure_latency=True):
        self.deployment = deployment
        self.env = deployment.env
        self.rate_pps = float(rate_pps)
        self.size_bytes = size_bytes
        self.service_ns = service_ns
        self.kind = kind
        self.draws = draws or deployment.rng.exponentials("open-loop")
        self.measure_latency = measure_latency
        self.latency = LatencyRecorder(name="open-loop-latency")
        self.sent = RateMeter("sent")
        self.delivered = RateMeter("delivered")
        self._queues = service_queue_ids(deployment)
        self._proc = None

    def start(self, duration_ns):
        self._proc = self.env.process(self._run(duration_ns), name="open-loop")
        return self._proc

    def _run(self, duration_ns):
        env = self.env
        submit = self.deployment.board.accelerator.submit
        draw = self.draws.draw
        mean_gap_ns = 1e9 / self.rate_pps
        queues = self._queues
        n_queues = len(queues)
        kind, size_bytes, service_ns = self.kind, self.size_bytes, self.service_ns
        on_done = self._on_done if self.measure_latency else None
        add_sent = self.sent.add
        deadline = env.now + duration_ns
        index = 0
        while env.now < deadline:
            gap = int(draw(mean_gap_ns))
            yield Timeout(env, gap if gap > 1 else 1)
            request = IORequest(kind, size_bytes, queues[index % n_queues],
                                service_ns)
            index += 1
            if on_done is not None:
                done = request.done = Event(env)
                done.callbacks.append(on_done)
            add_sent(env.now, size_bytes)
            submit(request)

    def _on_done(self, event):
        # ``deliver`` stamps ``t_done`` before it succeeds the event, and
        # ``submit`` stamped ``t_submit``.
        request = event._value
        self.delivered.add(self.env.now, request.size_bytes)
        self.latency.record(request.t_done - request.t_submit)


class ClosedLoopClients:
    """N clients each running transactions back-to-back (netperf rr style).

    A transaction is ``packets_per_txn`` sequential request/complete
    round-trips plus an optional think time, exponential with mean
    ``think_ns`` and taken from ``draws`` (an
    :class:`~repro.sim.rng.ExponentialDraws`; the ``closed-loop`` stream
    by default).  Throughput is then bounded by whichever saturates
    first: client concurrency or DP CPU capacity.
    """

    def __init__(self, deployment, n_clients, packets_per_txn, size_bytes,
                 service_ns, kind=PacketKind.NET_TX, think_ns=0, draws=None):
        self.deployment = deployment
        self.env = deployment.env
        self.n_clients = int(n_clients)
        self.packets_per_txn = int(packets_per_txn)
        self.size_bytes = size_bytes
        self.service_ns = service_ns
        self.kind = kind
        self.think_ns = int(think_ns)
        self.draws = draws or deployment.rng.exponentials("closed-loop")
        self.transactions = RateMeter("transactions")
        self.packets = RateMeter("packets")
        self.txn_latency = LatencyRecorder(name="txn-latency")
        self._queues = service_queue_ids(deployment)
        self._procs = []

    def start(self, duration_ns):
        deadline = self.env.now + duration_ns
        for client in range(self.n_clients):
            proc = self.env.process(
                self._client(client, deadline), name=f"client-{client}"
            )
            self._procs.append(proc)
        return self._procs

    def _client(self, client_index, deadline):
        # What the per-packet loop reads is bound once.  Per-transaction
        # reads stay attribute reads: a client's frame lives for the whole
        # run, and a case runs up to 1,024 clients.
        env = self.env
        submit = self.deployment.board.accelerator.submit
        queue_id = self._queues[client_index % len(self._queues)]
        kind, size_bytes, service_ns = self.kind, self.size_bytes, self.service_ns
        add_packet = self.packets.add
        while env.now < deadline:
            txn_start = env.now
            for _ in range(self.packets_per_txn):
                done = Event(env)
                submit(IORequest(kind, size_bytes, queue_id, service_ns,
                                 None, None, done))
                yield done
                add_packet(env.now, size_bytes)
            self.transactions.add(env.now)
            self.txn_latency.record(env.now - txn_start)
            if self.think_ns:
                think = int(self.draws.draw(self.think_ns))
                if think:
                    yield Timeout(env, think)


class StorageClients:
    """fio-style jobs keeping ``iodepth`` block requests in flight each."""

    def __init__(self, deployment, n_jobs, iodepth, block_bytes, service_ns):
        self.deployment = deployment
        self.env = deployment.env
        self.n_jobs = int(n_jobs)
        self.iodepth = int(iodepth)
        self.block_bytes = int(block_bytes)
        self.service_ns = service_ns
        self.completed = RateMeter("ios")
        self.io_latency = LatencyRecorder(name="io-latency")
        self._queues = service_queue_ids(deployment)

    def start(self, duration_ns):
        deadline = self.env.now + duration_ns
        procs = []
        for job in range(self.n_jobs):
            for slot in range(self.iodepth):
                procs.append(self.env.process(
                    self._slot(job, deadline), name=f"fio-{job}-{slot}"
                ))
        return procs

    def _slot(self, job_index, deadline):
        env = self.env
        accelerator = self.deployment.board.accelerator
        queue_id = self._queues[job_index % len(self._queues)]
        while env.now < deadline:
            done = env.event()
            request = IORequest(PacketKind.STORAGE_SUBMIT, self.block_bytes,
                                queue_id, service_ns=self.service_ns, done=done)
            submit_at = env.now
            accelerator.submit(request)
            yield done
            self.completed.add(env.now, self.block_bytes)
            self.io_latency.record(env.now - submit_at)
