"""The kernel façade: CPUs, threads, placement, hotplug, global stats."""

from dataclasses import dataclass

from repro.kernel.cpu import CPU
from repro.kernel.ipi import IPIController, IPIVector
from repro.kernel.runqueue import SchedClass, may_run_on
from repro.kernel.softirq import SoftirqSubsystem
from repro.kernel.spinlock import Spinlock
from repro.kernel.thread import KThread, ThreadState
from repro.metrics import LatencyRecorder, WelfordStats


@dataclass
class KernelParams:
    """Tunable costs of the OS model (defaults match commodity ARM cores)."""

    context_switch_ns: int = 1_200
    sched_slice_ns: int = 1_000_000        # 1 ms CFS-ish slice
    ipi_latency_ns: int = 500
    lock_acquire_ns: int = 100
    cpu_boot_ns: int = 200_000             # INIT/SIPI to online


class Kernel:
    """A single OS instance spanning a set of CPUs.

    Tai Chi's hybrid virtualization hinges on there being exactly *one* of
    these shared by physical and virtual CPUs; the type-2 baseline
    instantiates two (host + guest).
    """

    def __init__(self, env, params=None, name="smartnic-os"):
        self.env = env
        self.params = params or KernelParams()
        self.name = name
        # The observability spine: kernel, IPI and softirq events go to
        # the environment's tracer.
        self.tracer = env.tracer

        self.cpus = {}
        # Wake-placement candidates per affinity set (``None`` = any CPU):
        # the CPUs that set allows, in registration order.  Cleared when a
        # CPU is registered.
        self._candidates = {}
        self.threads = {}
        # Queued fair threads per affinity set over every run queue
        # (``RunQueue`` keeps it with its own counts): an idle CPU that no
        # set allows has nothing to steal.
        self.fair_affinities = {}
        self.ipi = IPIController(self, latency_ns=self.params.ipi_latency_ns)
        self.softirq = SoftirqSubsystem(self)

        self.sched_latency = LatencyRecorder(name="sched-latency")
        self.nonpreemptible = WelfordStats()
        self.finished_threads = 0
        self.steals = 0
        # ``hook(cpu) -> bool`` callbacks consulted when a physical CPU
        # finds nothing runnable (Tai Chi backs starving vCPUs here).
        self.idle_callbacks = []

        env.metrics.add_source(f"kernel.{name}", self.metrics_snapshot)

    # -- CPU management ----------------------------------------------------------

    def add_cpu(self, cpu_id, online=True, cpu_cls=CPU, **kwargs):
        """Create and register a CPU; offline CPUs await boot IPIs."""
        if cpu_id in self.cpus:
            raise ValueError(f"cpu id {cpu_id!r} already registered")
        cpu = cpu_cls(self, cpu_id, online=online, **kwargs)
        self.cpus[cpu_id] = cpu
        self._candidates.clear()
        return cpu

    def register_cpu(self, cpu):
        """Register an externally constructed CPU (vCPU registration path)."""
        if cpu.cpu_id in self.cpus:
            raise ValueError(f"cpu id {cpu.cpu_id!r} already registered")
        self.cpus[cpu.cpu_id] = cpu
        self._candidates.clear()
        return cpu

    def boot_cpu(self, cpu_id, from_cpu=None):
        """Bring an offline CPU online through INIT+STARTUP IPIs.

        This mirrors Figure 8a: Tai Chi registers vCPUs as offline native
        CPUs and sends boot IPIs which the orchestrator routes to them.
        """
        dst = self.cpus[cpu_id]
        self.ipi.send(from_cpu, dst, IPIVector.INIT)
        self.ipi.send(from_cpu, dst, IPIVector.STARTUP)

    def offline_cpu(self, cpu_id):
        """Gracefully take a physical CPU offline (hotplug remove).

        The executor parks at its next scheduling boundary; queued threads
        and pending softirqs migrate to surviving CPUs.  Returns False if
        the CPU is virtual (vCPUs go away via revocation, not hotplug) or
        already down.
        """
        cpu = self.cpus[cpu_id]
        if cpu.is_virtual:
            return False
        return cpu.request_offline()

    def on_cpu_online(self, cpu):
        if "cpu_online" in self.tracer.reads:
            self.tracer.record(self.env.now, cpu.cpu_id, "cpu_online")

    def on_cpu_offline(self, cpu):
        """Hotplug teardown: migrate stranded work off a dead CPU.

        Queued threads are re-placed through normal wake placement, and
        pending softirqs are re-raised on the least-loaded online physical
        CPU (the Linux ``takeover_tasklets`` analogue) — without this, a
        TAICHI_VCPU dispatch raised just before the offline would strand
        its reserved vCPU forever.
        """
        if "cpu_offline" in self.tracer.reads:
            self.tracer.record(self.env.now, cpu.cpu_id, "cpu_offline")
        for thread in list(cpu.runqueue.threads()):
            if cpu.runqueue.dequeue(thread):
                self.place_thread(thread)
        orphans = self.softirq.drain(cpu)
        if orphans:
            survivors = [other for other in self.physical_cpus()
                         if other.online and other is not cpu]
            if survivors:
                target = min(survivors,
                             key=lambda c: (c.load(), str(c.cpu_id)))
                for vector, payload in orphans:
                    self.softirq.raise_softirq(target, vector, payload)

    def physical_cpus(self):
        return [cpu for cpu in self.cpus.values() if not cpu.is_virtual]

    def virtual_cpus(self):
        return [cpu for cpu in self.cpus.values() if cpu.is_virtual]

    # -- Thread management ---------------------------------------------------------

    def spawn(self, name, body, affinity=None, sched_class=SchedClass.FAIR,
              nice_weight=1.0):
        """Create a thread around generator ``body`` and make it runnable."""
        thread = KThread(
            name, body, affinity=affinity, sched_class=sched_class,
            nice_weight=nice_weight,
        )
        thread.done = self.env.event()
        self.threads[thread.tid] = thread
        self.place_thread(thread)
        return thread

    def place_thread(self, thread, preferred=None):
        """Enqueue a READY thread on the best allowed online CPU."""
        cpu = self.select_cpu(thread, preferred=preferred)
        if cpu is None:
            raise RuntimeError(
                f"no online CPU satisfies affinity {thread.affinity!r} "
                f"for {thread!r}"
            )
        cpu.enqueue(thread)
        tracer = self.tracer
        if "enqueue" in tracer.reads:
            tracer.record(self.env.now, cpu.cpu_id, "enqueue",
                          thread=thread.name)
        if "rq_depth" in tracer.reads:
            tracer.record(self.env.now, cpu.cpu_id, "rq_depth",
                          depth=len(cpu.runqueue))

    def select_cpu(self, thread, preferred=None):
        """Wake placement: preferred CPU if idle-ish, else least loaded.

        A CPU parking for hotplug removal is a last resort: placing there
        just bounces the thread back through offline migration.  This runs
        on every thread wake, so it is a single pass over the CPUs the
        thread's affinity allows (cached per affinity set), with one
        ``placement_load()`` call each, and no pass at all when the set
        allows one CPU (a pinned DP poller).
        """
        affinity = thread.affinity
        candidates = self._candidates.get(affinity)
        if candidates is None:
            candidates = self._candidates[affinity] = [
                cpu for cpu in self.cpus.values()
                if affinity is None or cpu.cpu_id in affinity]
        if len(candidates) == 1:
            # One allowed CPU: the scan below picks it whenever it is
            # online, idle or not, parking or not.
            cpu = candidates[0]
            return cpu if cpu.online else None
        first_idle = None            # first zero-load non-parking candidate
        best = None                  # least-loaded non-parking candidate
        best_key = None
        parking_first_idle = None    # same, among parking CPUs (last resort)
        parking_best = None
        parking_best_key = None
        for cpu in candidates:
            if not cpu.online:
                continue
            load = cpu.placement_load()
            key = (load, str(cpu.cpu_id))
            if cpu.offline_pending:
                if load == 0 and parking_first_idle is None:
                    parking_first_idle = cpu
                if parking_best_key is None or key < parking_best_key:
                    parking_best, parking_best_key = cpu, key
            else:
                if load == 0 and first_idle is None:
                    first_idle = cpu
                if best_key is None or key < best_key:
                    best, best_key = cpu, key
        if best is None and parking_best is None:
            return None
        if preferred is not None:
            preferred_cpu = self.cpus.get(preferred)
            if (
                preferred_cpu is not None
                and preferred_cpu.online
                and not preferred_cpu.offline_pending
                and thread.can_run_on(preferred)
                and preferred_cpu.placement_load() == 0
            ):
                return preferred_cpu
        if best is not None:
            return first_idle if first_idle is not None else best
        return parking_first_idle if parking_first_idle is not None \
            else parking_best

    def set_affinity(self, thread, cpu_ids):
        """Change a thread's CPU affinity at runtime (sched_setaffinity).

        A READY thread queued on a now-disallowed CPU is re-placed
        immediately, and one that stays queued is re-counted under its new
        affinity; a RUNNING thread is kicked and migrates at its next
        preemption point; a BLOCKED thread is handled by wake placement.
        """
        old_affinity = thread.affinity
        thread.affinity = frozenset(cpu_ids)
        if thread.state is ThreadState.READY:
            for cpu in self.cpus.values():
                if cpu.runqueue.rekey(thread, old_affinity):
                    if not thread.can_run_on(cpu.cpu_id):
                        cpu.runqueue.dequeue(thread)
                        self.place_thread(thread)
                    break
        elif thread.state is ThreadState.RUNNING and thread.cpu is not None:
            if not thread.can_run_on(thread.cpu.cpu_id):
                thread.cpu.kick()

    def wake_thread(self, thread, result=None):
        """Transition a BLOCKED thread to READY and place it."""
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.pending_result = result
        self.place_thread(thread, preferred=thread.last_cpu)

    def try_fill_idle(self, cpu):
        """Give an idling physical CPU something to do.

        First new-idle balancing (steal a waiting fair thread from a
        congested CPU or an unbacked vCPU; skipped when the kernel-wide
        affinity counts show no queued fair thread allowed on ``cpu``),
        then any registered idle callbacks (Tai Chi uses these to back
        runnable vCPUs on dedicated CP pCPUs, the forward-progress
        guarantee of Section 4.1).
        Returns True if work was produced.
        """
        if cpu.is_virtual:
            return False
        if (may_run_on(self.fair_affinities, cpu.cpu_id)
                and self.steal_work(cpu) is not None):
            return True
        for callback in self.idle_callbacks:
            if callback(cpu):
                return True
        return False

    def steal_work(self, idle_cpu):
        """Pull one waiting fair thread onto ``idle_cpu`` (newidle balance).

        The first victim (in CPU registration order) that is congested or
        an unbacked vCPU, and queues a fair thread allowed on ``idle_cpu``,
        gives up the eligible fair thread with the lowest ``(vruntime,
        tid)``.  Realtime threads are never stolen.  A victim whose queue
        holds no fair thread allowed on ``idle_cpu`` (its affinity counts
        say so) is passed over without a scan of its threads.
        """
        idle_id = idle_cpu.cpu_id
        for victim in self.cpus.values():
            rq = victim.runqueue
            if (victim is idle_cpu or not rq._fair
                    or not rq.may_give(idle_id)):
                continue
            unbacked_vcpu = victim.is_virtual and not getattr(
                victim, "is_backed", True)
            if not unbacked_vcpu and victim.load() < 2:
                continue
            best = rq.steal_candidate(idle_id)
            if best is None:
                continue
            rq.dequeue(best)
            self.steals += 1
            idle_cpu.enqueue(best)
            return best
        return None

    def finish_thread(self, thread):
        thread.state = ThreadState.EXITED
        thread.cpu = None
        thread.waker = None  # it refers back to the thread
        self.finished_threads += 1
        self.threads.pop(thread.tid, None)
        if thread.done is not None and not thread.done.triggered:
            thread.done.succeed(thread.exit_value)
        if "thread_exit" in self.tracer.reads:
            self.tracer.record(self.env.now, "-", "thread_exit", thread=thread.name)

    # -- Kernel objects ------------------------------------------------------------

    def spinlock(self, name="spinlock"):
        return Spinlock(self, name=name)

    # -- Statistics hooks ------------------------------------------------------------

    def record_nonpreemptible(self, duration_ns):
        self.nonpreemptible.add(duration_ns)

    def metrics_snapshot(self):
        """Kernel-wide stats for the metrics registry (lazy source)."""
        cpus = list(self.cpus.values())
        return {
            "cpus": len(cpus),
            "threads_live": len(self.threads),
            "threads_finished": self.finished_threads,
            "steals": self.steals,
            "context_switches": sum(cpu.context_switches for cpu in cpus),
            "softirq_runs": sum(cpu.softirq_runs for cpu in cpus),
            "busy_ns": sum(cpu.busy_ns for cpu in cpus),
            "idle_ns": sum(cpu.idle_ns for cpu in cpus),
            "nonpreemptible_ns": sum(cpu.nonpreemptible_ns for cpu in cpus),
            "max_rq_depth": max((len(cpu.runqueue) for cpu in cpus), default=0),
            "ipi_sent": self.ipi.sent_count,
            "ipi_delivered": self.ipi.delivered_count,
            "ipi_hooked": self.ipi.hooked_count,
            "ipi_dropped_offline": self.ipi.dropped_offline,
            "ipi_dropped_fault": self.ipi.dropped_fault,
            "softirq_raised": self.softirq.raised_count,
            "softirq_executed": self.softirq.executed_count,
            "sched_latency": self.sched_latency.summary(),
        }

    def __repr__(self):
        return f"<Kernel {self.name!r} cpus={len(self.cpus)} threads={len(self.threads)}>"
