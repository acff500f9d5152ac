"""Poll-mode data-plane service (the loop of Figure 9)."""

from collections import deque
from dataclasses import dataclass

from repro.hw.packet import IORequest, PacketKind
from repro.kernel import Compute, KernelSection, WaitEvent
from repro.kernel.runqueue import SchedClass
from repro.sim.events import AnyOf, Event, Timeout


@dataclass
class DPServiceParams:
    """Costs of the software half of the data plane."""

    poll_ns: int = 200                 # one empty rx_burst iteration
    burst: int = 32                    # max packets per rx_burst
    work_scale: float = 1.0            # per-packet cost multiplier (baselines
                                       # use it for emulation/RPC overheads)
    pollution_tax: float = 1.12        # cache/TLB refill slowdown after a vCPU ran
    pollution_window_ns: int = 20_000  # how much processing the tax applies to
    storage_device_ns: int = 20_000    # simulated NVMe round trip
    storage_completion_service_ns: int = 1_000


class DPService:
    """One DP service instance: a realtime poller pinned to one CPU."""

    def __init__(self, board, name, cpu_id, queue_ids, params=None, kind="net"):
        self.board = board
        self.env = board.env
        self.name = name
        self.cpu_id = cpu_id
        self.queue_ids = list(queue_ids)
        self.params = params or DPServiceParams()
        self.kind = kind
        self.tenant_id = None  # set by TenancyManager on multi-tenant boards

        self.rx_stores = [board.accelerator.queue_store(q) for q in self.queue_ids]
        for store in self.rx_stores:
            store.consumer = self
        self._device_draws = board.rng.exponentials(f"device-{name}")

        # Idle notification target (Tai Chi's software workload probe); the
        # static baseline leaves this unset, mirroring the <10-line
        # notify_idle_DP_CPU_cycles integration of Section 5.
        self.idle_notifier = None
        # Section 9 probe fusion: consult accelerator pipeline metadata
        # before yielding (set via TaiChiConfig.probe_fusion).
        self.probe_fusion = False

        # Metrics.
        self.packets_processed = 0
        self.processing_ns = 0
        self.idle_notifications = 0
        self.empty_poll_streaks = 0
        self.is_idle_blocked = False
        self._resume_event = None
        self._m_idle_yields = self.env.metrics.counter("dp.idle_yields")
        self.env.metrics.add_source(f"dp.{name}", self.metrics_snapshot)

        # Cache/TLB pollution bookkeeping.
        self._pollution_budget_ns = 0
        self._shutdown = False
        self._control_event = None

        # Fault injection + SLO-guard instrumentation.
        self._pending_stall_ns = 0
        self.stalls_injected = 0
        self._recent_waits = deque(maxlen=256)  # rx-ready -> dp-start, ns

        # The rx doorbell: one pending event while the loop sleeps, rung by
        # the first of this service's rx stores to receive a packet.
        self._bell = None

        # Causal tracing: let the span tracker attribute rx-queue waits to
        # queued-behind service time on this poller thread.
        self.env.spans.register_dp_thread(name)

        self.thread = board.kernel.spawn(
            name, self._loop(), affinity={cpu_id},
            sched_class=SchedClass.REALTIME,
        )

    # -- Integration points -------------------------------------------------------

    def attach_idle_notifier(self, notifier):
        """Wire the software workload probe (Tai Chi deployment step)."""
        self.idle_notifier = notifier

    def note_vcpu_ran(self):
        """A vCPU slice just ran on this CPU; model cache/TLB pollution."""
        self._pollution_budget_ns = self.params.pollution_window_ns

    def resume_polling(self):
        """Return control to the poll loop after a donated slice ends.

        This is the "yield returns" moment of Figure 9: the service polls
        again, and only after the empty-poll threshold is re-crossed does
        it donate the CPU again — which is what keeps in-flight packets
        from being stranded behind back-to-back vCPU slices.
        """
        if self._resume_event is not None and not self._resume_event.triggered:
            self._resume_event.succeed()

    def shutdown(self):
        """Stop the poll loop at its next iteration (repartitioning)."""
        self._shutdown = True
        self.resume_polling()
        if self._control_event is not None and not self._control_event.triggered:
            self._control_event.succeed()

    def inject_stall(self, stall_ns):
        """Fault injection: hang the poll loop in a non-preemptible routine.

        The stall is consumed at the loop's next iteration (a kick wakes
        an idle-blocked loop immediately), modeling a DP service wedged
        inside kernel code with interrupts of no help.
        """
        self._pending_stall_ns += int(stall_ns)
        self.stalls_injected += 1
        self.resume_polling()
        if self._control_event is not None and not self._control_event.triggered:
            self._control_event.succeed()

    def recent_queue_wait_ns(self):
        """Recent per-packet rx-queue waits (SLO-guard breach signal)."""
        return list(self._recent_waits)

    def reset_queue_wait_window(self):
        """Drop accumulated wait samples (after a guard intervention)."""
        self._recent_waits.clear()

    def release_queue(self, queue_id):
        """Stop polling ``queue_id`` (its new owner adopts it next)."""
        if queue_id not in self.queue_ids:
            raise ValueError(f"{self.name} does not poll {queue_id!r}")
        index = self.queue_ids.index(queue_id)
        self.queue_ids.pop(index)
        store = self.rx_stores.pop(index)
        if store.consumer is self:
            store.consumer = None
        # Restart any in-flight idle wait so its arrival set shrinks.
        if self._control_event is not None and not self._control_event.triggered:
            self._control_event.succeed()
        self.resume_polling()

    def adopt_queue(self, queue_id):
        """Take over polling an existing accelerator queue."""
        self.queue_ids.append(queue_id)
        store = self.board.accelerator.queue_store(queue_id)
        self.rx_stores.append(store)
        store.consumer = self
        self.board.accelerator.retarget_queue(queue_id, self.cpu_id)
        # Restart any in-flight idle wait so its arrival set includes the
        # adopted queue.
        if self._control_event is not None and not self._control_event.triggered:
            self._control_event.succeed()
        self.resume_polling()

    def utilization(self, window_ns):
        """Effective utilization: packet-processing time over the window."""
        if window_ns <= 0:
            return 0.0
        return min(self.processing_ns / window_ns, 1.0)

    def metrics_snapshot(self):
        """Per-service poll-loop occupancy stats (lazy registry source)."""
        snapshot = {
            "cpu_id": self.cpu_id,
            "packets_processed": self.packets_processed,
            "processing_ns": self.processing_ns,
            "idle_notifications": self.idle_notifications,
            "empty_poll_streaks": self.empty_poll_streaks,
        }
        if self.tenant_id is not None:
            snapshot["tenant_id"] = self.tenant_id
        return snapshot

    # -- The poll loop ---------------------------------------------------------------

    def _loop(self):
        params = self.params
        env = self.env
        while not self._shutdown:
            if self._pending_stall_ns:
                stall_ns, self._pending_stall_ns = self._pending_stall_ns, 0
                self.is_idle_blocked = False
                yield KernelSection(stall_ns)
                continue
            batch = self._collect_batch()
            if batch:
                self.is_idle_blocked = False
                spans = env.spans
                for request in batch:
                    now = request.t_dp_start = env.now
                    if request.t_rx_ready is not None:
                        self._recent_waits.append(now - request.t_rx_ready)
                    if spans.enabled and request.span_id is not None:
                        spans.end_dp(request, self.cpu_id)
                    # Per-packet cost: service time times ``work_scale``,
                    # taxed while a vCPU's cache/TLB pollution lasts.
                    cost = int(request.service_ns * params.work_scale)
                    if self._pollution_budget_ns > 0:
                        self._pollution_budget_ns -= cost
                        cost = int(cost * params.pollution_tax)
                    if cost < 1:
                        cost = 1
                    yield Compute(cost)
                    self.processing_ns += cost
                    self.packets_processed += 1
                    self._finish_packet(request)
                continue

            # Idle: drop the last packet so the frame does not keep it
            # (and a storage completion's payload) alive while it waits.
            batch = request = None
            arrival = self._arrival_event()
            control = Event(env)
            self._control_event = control
            # The service spins on empty rx_bursts until traffic, control,
            # or (on a Tai Chi board) the adaptive empty-poll threshold.
            # One wait stands for the whole spin, and the empty polls it
            # covered are accounted when it resolves.
            if self.idle_notifier is None:
                # Plain deployment: nothing to yield to.
                timer = None
                race = [arrival, control]
            else:
                threshold = self.idle_notifier.threshold_for(self)
                n_polls = max(int(threshold), 1)
                timer = Timeout(env, n_polls * params.poll_ns)
                race = [arrival, timer, control]
            idle_since = env.now
            yield WaitEvent(AnyOf(env, race))
            self._bell = None
            if (timer is None or arrival.triggered or control.triggered
                    or self._shutdown):
                env.note_fast_forward((env.now - idle_since) // params.poll_ns)
                self._control_event = None
                continue  # traffic/control beat the threshold; count resets
            env.note_fast_forward(n_polls)
            self.empty_poll_streaks += 1
            if self.probe_fusion and self._pipeline_traffic_imminent():
                # Packets are already inside the accelerator pipeline:
                # yielding now would be an immediate false positive.
                self._control_event = None
                continue
            self.idle_notifications += 1
            self._m_idle_yields.inc()
            tracer = env.tracer
            if "dp_idle_yield" in tracer.reads:
                tracer.record(env.now, self.cpu_id, "dp_idle_yield",
                              service=self.name, threshold=threshold)
            self.is_idle_blocked = True
            self.idle_notifier.notify_idle(self)
            resume = Event(env)
            self._resume_event = resume
            # No poll accounting here: the CPU is donated, the loop is not
            # running, so an idle-blocked wait skips nothing.
            yield WaitEvent(AnyOf(env, [self._arrival_event(), resume,
                                        control]))
            self._bell = None
            self._resume_event = None
            self._control_event = None
            self.is_idle_blocked = False

    def _pipeline_traffic_imminent(self):
        accelerator = self.board.accelerator
        return any(accelerator.queue_inflight(queue_id) > 0
                   for queue_id in self.queue_ids)

    def _collect_batch(self):
        batch = []
        burst = self.params.burst
        for store in self.rx_stores:
            if store.items:
                batch.extend(store.get_batch(burst))
        return batch

    def _arrival_event(self):
        """Arm the rx doorbell and return the event the idle wait races.

        The bell is one event for all rx stores, however many the service
        polls, so a wait costs O(1): each store rings its consumer's bell
        on a put (``Store._dispatch``), and a store that already holds
        packets rings it here, checked in ``rx_stores`` order.  A queue-less
        service's bell never rings; only control wakes it.

        With more than one store the bell is raced through a one-member
        ``AnyOf``.  The relay hop is kept because it is an event: fleet
        node metrics count ``engine_events``, so collapsing it changes the
        pinned fleet digest.  Simulated results do not depend on it.
        """
        bell = Event(self.env)
        self._bell = bell
        for store in self.rx_stores:
            if store.items:
                bell.succeed(len(store.items))
                break
        if len(self.rx_stores) > 1:
            return AnyOf(self.env, [bell])
        return bell

    # -- Completion paths --------------------------------------------------------------

    def _finish_packet(self, request):
        kind = request.kind
        if kind is PacketKind.NET_TX:
            self.board.nic_port.transfer(request.size_bytes,
                                         on_delivered=request.deliver)
        elif kind is PacketKind.NET_RX:
            self.board.pcie.transfer(request.size_bytes,
                                     on_delivered=request.deliver)
        elif kind is PacketKind.STORAGE_SUBMIT:
            self._start_device_io(request)
        elif kind is PacketKind.STORAGE_COMPLETE:
            self.board.pcie.transfer(64, on_delivered=request.payload.deliver)
        else:
            raise ValueError(f"unhandled packet kind {request.kind!r}")

    def _start_device_io(self, request):
        """Submit to the storage device; completion re-enters the rx queue."""
        env = self.env
        device_ns = int(self._device_draws.draw(self.params.storage_device_ns))
        store = self.rx_stores[0]
        completion = IORequest(
            PacketKind.STORAGE_COMPLETE,
            size_bytes=64,
            queue_id=request.queue_id,
            service_ns=self.params.storage_completion_service_ns,
            payload=request,
        )

        def _complete(_event):
            completion.t_submit = env.now
            completion.t_rx_ready = env.now
            store.put(completion)

        env.timeout(max(device_ns, 1_000)).callbacks.append(_complete)

    def __repr__(self):
        return f"<DPService {self.name!r} cpu={self.cpu_id} kind={self.kind}>"


def deploy_dp_services(board, kind, cpu_ids=None, params=None,
                       queues_per_cpu=1, name_prefix=None):
    """Deploy one DP service per data-plane CPU, each with its own queues.

    Returns the list of services; rx queues are registered with the
    accelerator as ``(kind, cpu_index, queue_index)`` ids.
    """
    cpu_ids = list(cpu_ids if cpu_ids is not None else board.dp_cpu_ids)
    prefix = name_prefix or f"dp-{kind}"
    services = []
    for index, cpu_id in enumerate(cpu_ids):
        queue_ids = []
        for qidx in range(queues_per_cpu):
            queue_id = (kind, index, qidx)
            board.make_rx_queue(queue_id, cpu_id)
            queue_ids.append(queue_id)
        services.append(
            DPService(board, f"{prefix}{index}", cpu_id, queue_ids,
                      params=params, kind=kind)
        )
    return services
