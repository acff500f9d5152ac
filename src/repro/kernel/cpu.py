"""CPU executors: interpret thread instruction streams with Linux-like rules.

One :class:`CPU` owns a run queue and an executor process.  The executor
picks threads, charges context-switch costs, advances simulated time for
their instructions, refuses kernel preemption inside non-preemptible
sections, and runs pending softirqs at instruction boundaries.

The executor is one generator frame (:meth:`CPU._main`): the common
instructions advance time inline, one timeout each.  Interrupted stretches,
slice expiry and the rarer instructions go through two general primitives
— :meth:`CPU._advance` and :meth:`CPU._await` — that catch interrupts.  A
*kick* (reschedule request) sets ``need_resched`` and may end a preemptible
chunk early; a *revocation* (only meaningful for
:class:`~repro.virt.vcpu.VirtualCPU`) freezes the executor mid-instruction
until its backing physical CPU is re-granted.  That split is exactly the
paper's distinction between kernel preemption (blocked by non-preemptible
routines) and VM-exit (always possible).
"""

import enum

from repro.sim.errors import Interrupt
from repro.sim.events import Event, Timeout, _PENDING
from repro.kernel.instructions import (
    Compute,
    Exit,
    KernelSection,
    LockAcquire,
    LockRelease,
    Sleep,
    Syscall,
    WaitEvent,
    YieldCPU,
)
from repro.kernel.runqueue import RunQueue, SchedClass
from repro.kernel.thread import ThreadState


class CpuState(enum.Enum):
    OFFLINE = "offline"
    BOOTING = "booting"
    IDLE = "idle"
    RUNNING = "running"


class _KickCause:
    """Interrupt cause for reschedule kicks."""

    def __repr__(self):
        return "<kick>"


KICK = _KickCause()

# Outcomes of running one instruction / one thread stint.
_DONE = "done"
_PREEMPTED = "preempted"
_BLOCKED = "blocked"
_EXITED = "exited"


def _waker(kernel, thread):
    """Callback waking blocked ``thread`` with its event's value; built
    once per thread and kept as ``thread.waker``."""

    def _wake(event):
        kernel.wake_thread(thread, result=event._value)

    return _wake


class CPU:
    """A (physical) CPU of the SmartNIC OS."""

    is_virtual = False
    # Multiplier applied to instruction durations executed here; virtual
    # CPUs carrying guest-mode workloads (type-1 baseline) set this > 1 to
    # model nested-page-table and exit overheads.
    work_tax = 1.0

    def __init__(self, kernel, cpu_id, online=True):
        self.kernel = kernel
        self.env = kernel.env
        self.cpu_id = cpu_id
        self.runqueue = RunQueue(cpu_id, kernel.fair_affinities)
        self.state = CpuState.OFFLINE
        # True while the executor may run (state neither OFFLINE nor
        # BOOTING).  A plain attribute because wake placement reads it on
        # every candidate CPU; only the lifecycle methods below (set_online,
        # _go_offline, a STARTUP completion) write it.
        self.online = False
        self.current = None
        self.need_resched = False
        self.preempt_depth = 0

        # Statistics.
        self.busy_ns = 0
        self.idle_ns = 0
        self.context_switches = 0
        self.softirq_runs = 0
        self.nonpreemptible_ns = 0

        # Executor plumbing.
        self._proc = None
        self._interrupt_ok = False
        self._kick_pending = False
        self._idle_wakeup = None
        self._slice_end = None
        self._in_softirq = False
        self._offline_requested = False

        # Hook invoked whenever this CPU gains runnable work while it cannot
        # immediately run it (used by the Tai Chi vCPU scheduler).
        self.work_callback = None
        # Optional ``hook(thread, instruction)`` observing every instruction
        # issued on this CPU (Section 8's instruction-level auditing).
        self.instruction_hook = None

        if online:
            self.set_online()

    # -- Lifecycle -------------------------------------------------------------

    @property
    def offline_pending(self):
        """True between :meth:`request_offline` and the executor parking."""
        return self._offline_requested

    def set_online(self):
        """Bring the CPU online and start its executor."""
        if self.online:
            return
        self.state = CpuState.IDLE
        self.online = True
        self._offline_requested = False
        self._proc = self.env.process(self._main(), name=f"cpu{self.cpu_id}")
        self.kernel.on_cpu_online(self)

    def request_offline(self):
        """Ask the executor to park at its next scheduling boundary.

        Graceful hotplug removal: the running thread finishes its current
        non-preemptible stretch, then the executor migrates stranded work
        (via :meth:`Kernel.on_cpu_offline`) and returns.  The CPU can be
        brought back with INIT/STARTUP boot IPIs or :meth:`set_online`.
        """
        if not self.online or self._offline_requested:
            return False
        self._offline_requested = True
        self.kick()
        return True

    def _go_offline(self):
        self._offline_requested = False
        self.state = CpuState.OFFLINE
        self.online = False
        self.current = None
        self._proc = None
        self.need_resched = False
        self.kernel.on_cpu_offline(self)

    def receive_boot_ipi(self, vector):
        """Handle INIT/STARTUP hotplug IPIs for an offline CPU."""
        from repro.kernel.ipi import IPIVector

        # INIT is idempotent while booting: a CPU stuck in BOOTING because
        # its STARTUP was lost can be re-INITed by a later boot attempt.
        if vector is IPIVector.INIT and self.state in (
                CpuState.OFFLINE, CpuState.BOOTING):
            self.state = CpuState.BOOTING
        elif vector is IPIVector.STARTUP and self.state is CpuState.BOOTING:
            delay = self.kernel.params.cpu_boot_ns

            def _complete(_event):
                # Let set_online flip it, even if an earlier STARTUP
                # already brought the CPU up.
                self.state = CpuState.OFFLINE
                self.online = False
                self.set_online()

            self.env.timeout(delay).callbacks.append(_complete)

    # -- External control --------------------------------------------------------

    def kick(self):
        """Request a reschedule: wake an idle executor or interrupt a chunk."""
        self.need_resched = True
        if not self.online or self._proc is None:
            return
        wakeup = self._idle_wakeup
        if wakeup is not None and wakeup._value is _PENDING:
            wakeup.succeed()
        elif (
            self._interrupt_ok
            and not self._kick_pending
            and self.env._active_process is not self._proc
        ):
            self._kick_pending = True
            self._proc.interrupt(KICK)
        if self.work_callback is not None and not self.runqueue.is_empty:
            self.work_callback(self)

    def enqueue(self, thread):
        """Place a READY thread on this CPU's run queue and kick."""
        thread.state = ThreadState.READY
        thread.wait_since_ns = self.env.now
        self.runqueue.enqueue(thread)
        self.kick()

    def load(self):
        """Crude load metric: queue length plus the running thread."""
        return len(self.runqueue) + (1 if self.current is not None else 0)

    def placement_load(self):
        """Load as seen by wake placement (vCPUs add a backing penalty)."""
        return self.load()

    # -- Extension points (overridden by VirtualCPU) -----------------------------
    #
    # The executor consults ``_gate`` and ``on_idle_enter`` only on CPUs
    # with ``is_virtual`` set.

    def _gate(self):
        """Wait until the CPU may execute (vCPUs wait for a backing grant)."""
        return
        yield  # pragma: no cover - makes this a generator function

    def _handle_cause(self, cause):
        """React to a non-kick interrupt cause; vCPUs handle revocation."""
        return
        yield  # pragma: no cover

    def on_idle_enter(self):
        """Called when the executor finds no runnable thread."""

    # -- Time primitives ----------------------------------------------------------

    def _advance(self, ns, preempt_ok):
        """Consume ``ns`` of executor time; returns nanoseconds consumed.

        With ``preempt_ok`` the advance ends early (returning the partial
        amount) when a kick arrives or the running thread's slice expires.
        """
        remaining = int(ns)
        consumed = 0
        while remaining > 0:
            chunk = remaining
            if preempt_ok and self._slice_end is not None:
                chunk = min(chunk, max(self._slice_end - self.env.now, 0))
                if chunk == 0:
                    # Slice already expired: decide before burning more time.
                    if self._slice_expired_should_yield():
                        self.need_resched = True
                        return consumed
                    self._extend_slice()
                    continue
            start = self.env.now
            self._interrupt_ok = True
            try:
                yield self.env.timeout(chunk)
                self._interrupt_ok = False
                elapsed = chunk
            except Interrupt as interrupt:
                elapsed = self.env.now - start
                remaining -= elapsed
                consumed += elapsed
                self.busy_ns += elapsed
                kicked = yield from self._take_interrupt(interrupt.cause)
                if kicked and preempt_ok and self._should_preempt():
                    return consumed
                continue
            remaining -= elapsed
            consumed += elapsed
            self.busy_ns += elapsed
            if preempt_ok and remaining > 0 and self.need_resched and self._should_preempt():
                return consumed
        return consumed

    def _await(self, event, busy):
        """Wait for ``event``, surviving kicks (and revocations on vCPUs)."""
        start = self.env.now
        while True:
            self._interrupt_ok = True
            try:
                value = yield event
                self._interrupt_ok = False
                break
            except Interrupt as interrupt:
                yield from self._take_interrupt(interrupt.cause)
                if event.processed:
                    value = event.value
                    break
        elapsed = self.env.now - start
        if busy:
            self.busy_ns += elapsed
        return value

    def await_event(self, event, busy=True):
        """Public wrapper for softirq handlers running on this executor."""
        return self._await(event, busy)

    def consume(self, ns):
        """Public wrapper: burn ``ns`` non-preemptibly (softirq handlers)."""
        return self._advance(ns, preempt_ok=False)

    def _take_interrupt(self, cause):
        """Handle an interrupt caught at a wait; returns True for a kick.

        A kick runs pending softirqs (irq-exit semantics); any other cause
        goes to :meth:`_handle_cause`.  Every wait that catches an
        ``Interrupt`` — in :meth:`_advance`, :meth:`_await` and the
        executor's inline fast paths — handles it here.
        """
        self._interrupt_ok = False
        if cause is KICK:
            self._kick_pending = False
            yield from self._softirqs_inline()
            return True
        yield from self._handle_cause(cause)
        return False

    def _interrupted(self, interrupt, start, remaining, preempt_ok):
        """Finish an inline advance that ``interrupt`` cut short.

        The executor's fast paths yield one timeout for a whole
        ``remaining``-ns stretch begun at ``start``.  When an interrupt
        lands inside it, this accounts the part already run, handles the
        cause exactly as :meth:`_advance` does, and runs the rest through
        :meth:`_advance`.  Returns the nanoseconds consumed in total.
        """
        elapsed = self.env.now - start
        self.busy_ns += elapsed
        kicked = yield from self._take_interrupt(interrupt.cause)
        if kicked and preempt_ok and self._should_preempt():
            return elapsed
        return elapsed + (yield from self._advance(remaining - elapsed,
                                                   preempt_ok))

    def _await_rest(self, event, interrupt):
        """Finish an inline non-busy wait on ``event`` cut short by
        ``interrupt``, as :meth:`_await` would."""
        yield from self._take_interrupt(interrupt.cause)
        if event.processed:
            return event.value
        return (yield from self._await(event, busy=False))

    # -- Scheduler loop ------------------------------------------------------------

    def _main(self):
        """The executor: one generator frame runs the whole CPU.

        Idle waits, dispatch, instruction fetch and the common
        instructions (``Compute``, ``KernelSection``, ``Syscall`` and
        ``WaitEvent``, subclasses included) run inline: a timed
        instruction no slice end can cut is one ``Timeout``.  Everything
        else goes through the general machinery — an interrupt caught at
        an inline yield through :meth:`_interrupted` / :meth:`_await_rest`,
        slice expiry through :meth:`_advance`, ``Sleep``, locks,
        ``YieldCPU`` and ``Exit`` through :meth:`_run_instruction`,
        softirqs through :meth:`_run_softirqs`, the vCPU gate and
        revocation through :meth:`_gate` / :meth:`_handle_cause` — and
        creates the same events in the same order as a chain of nested
        generators would.  While spans are on, each stint's start and end
        also go straight to ``env.spans``, traced or not.
        """
        env = self.env
        kernel = self.kernel
        params = kernel.params
        runqueue = self.runqueue
        softirqs = kernel.softirq._pending
        cpu_id = self.cpu_id
        is_virtual = self.is_virtual
        spans = env.spans
        while True:
            if self._offline_requested:
                self._go_offline()
                return
            if is_virtual:
                yield from self._gate()
            if softirqs.get(cpu_id):
                yield from self._run_softirqs()
                continue
            thread = runqueue.pick_next()

            if thread is None:
                # Idle: try new-idle balancing, then wait for a kick.
                self.state = CpuState.IDLE
                if is_virtual:
                    self.on_idle_enter()
                if runqueue._rt or runqueue._fair or softirqs.get(cpu_id):
                    continue
                if kernel.try_fill_idle(self):
                    continue
                if runqueue._rt or runqueue._fair or softirqs.get(cpu_id):
                    continue
                wakeup = Event(env)
                self._idle_wakeup = wakeup
                start = env.now
                self._interrupt_ok = True
                try:
                    yield wakeup
                    self._interrupt_ok = False
                except Interrupt as interrupt:
                    yield from self._await_rest(wakeup, interrupt)
                self._idle_wakeup = None
                self.idle_ns += env.now - start
                continue

            # Dispatch: run ``thread`` until it blocks, exits, or is
            # preempted.  The thread is owed to this CPU from the moment
            # it is popped — ``current`` must be visible before any wait,
            # or a vCPU revoked during the context-switch charge would look
            # idle and strand it.
            self.need_resched = False
            self.context_switches += 1
            self.current = thread
            thread.cpu = self
            switch_ns = int(params.context_switch_ns)
            if switch_ns > 0:
                start = env.now
                self._interrupt_ok = True
                try:
                    yield Timeout(env, switch_ns)
                    self._interrupt_ok = False
                    self.busy_ns += switch_ns
                except Interrupt as interrupt:
                    yield from self._interrupted(interrupt, start, switch_ns,
                                                 False)

            now = env.now
            self.state = CpuState.RUNNING
            thread.state = ThreadState.RUNNING
            thread.last_cpu = cpu_id
            tracer = kernel.tracer
            if "sched_in" in tracer.reads:
                tracer.record(now, cpu_id, "sched_in",
                              thread=thread.name, rq=len(runqueue))
            if spans.enabled:
                spans.sched_in(cpu_id, thread.name, now)
            if thread.wait_since_ns is not None:
                kernel.sched_latency.record(now - thread.wait_since_ns)
                thread.wait_since_ns = None
            self._slice_end = (
                now + params.sched_slice_ns
                if thread.sched_class is SchedClass.FAIR
                else None
            )
            stint_start = now

            outcome = _DONE
            while outcome is _DONE:
                # Fetch: resume a preempted instruction or advance the body.
                instruction = thread.current_instruction
                if instruction is not None:
                    remaining = thread.remaining_ns
                else:
                    try:
                        if thread.started and thread.send is not None:
                            instruction = thread.send(thread.pending_result)
                        else:
                            # First advance, or a plain iterator body.
                            thread.started = True
                            instruction = next(thread.body)
                    except StopIteration as stop:
                        thread.exit_value = stop.value
                    else:
                        thread.pending_result = None
                        thread.current_instruction = instruction
                        remaining = thread.remaining_ns = int(
                            getattr(instruction, "ns", 0) * self.work_tax)

                if instruction is None:
                    outcome = _EXITED
                elif self.instruction_hook is not None:
                    self.instruction_hook(thread, instruction)

                # Exact-type checks first; subclasses take the same paths.
                kind = type(instruction)
                if kind is Compute or isinstance(instruction, Compute):
                    preempt_ok = (not thread.locks_held
                                  and self.preempt_depth == 0)
                    consumed = remaining
                    slice_end = self._slice_end
                    if (preempt_ok and slice_end is not None
                            and env.now + remaining > slice_end):
                        # The slice may end first: let _advance decide.
                        consumed = yield from self._advance(remaining, True)
                    elif remaining > 0:
                        start = env.now
                        self._interrupt_ok = True
                        try:
                            yield Timeout(env, remaining)
                            self._interrupt_ok = False
                            self.busy_ns += remaining
                        except Interrupt as interrupt:
                            consumed = yield from self._interrupted(
                                interrupt, start, remaining, preempt_ok)
                    if consumed < remaining:
                        thread.remaining_ns = remaining - consumed
                        outcome = _PREEMPTED
                    else:
                        thread.current_instruction = None
                        thread.remaining_ns = 0
                        thread.pending_result = None
                elif (kind is KernelSection or kind is Syscall
                      or isinstance(instruction, (KernelSection, Syscall))):
                    if remaining == 0 and isinstance(instruction, Syscall):
                        remaining = thread.remaining_ns = int(
                            (instruction.entry_ns + instruction.body_ns
                             + instruction.exit_ns) * self.work_tax)
                    self.preempt_depth += 1
                    start = env.now
                    if remaining > 0:
                        self._interrupt_ok = True
                        try:
                            yield Timeout(env, remaining)
                            self._interrupt_ok = False
                            self.busy_ns += remaining
                        except Interrupt as interrupt:
                            yield from self._interrupted(
                                interrupt, start, remaining, False)
                    self.preempt_depth -= 1
                    elapsed = env.now - start
                    self.nonpreemptible_ns += elapsed
                    kernel.record_nonpreemptible(elapsed)
                    thread.current_instruction = None
                    thread.remaining_ns = 0
                    thread.pending_result = None
                elif kind is WaitEvent or isinstance(instruction, WaitEvent):
                    event = instruction.event
                    thread.current_instruction = None
                    thread.remaining_ns = 0
                    if event.callbacks is None:
                        # Already processed: the body gets its value now.
                        thread.pending_result = event._value
                    else:
                        thread.pending_result = None  # set by wake_thread
                        thread.state = ThreadState.BLOCKED
                        thread.cpu = None
                        # No local name for the waker: the frame would
                        # keep it, and through it the thread, alive.
                        if thread.waker is None:
                            thread.waker = _waker(kernel, thread)
                        event.callbacks.append(thread.waker)
                        outcome = _BLOCKED
                elif instruction is not None:
                    outcome = yield from self._run_instruction(thread,
                                                               instruction)

                if softirqs.get(cpu_id):
                    yield from self._run_softirqs()
                if (outcome is _DONE and self.need_resched
                        and self._should_preempt()):
                    outcome = _PREEMPTED

            now = env.now
            ran_ns = now - stint_start
            runqueue.charge(thread, ran_ns)
            if "sched_out" in tracer.reads:
                tracer.record(now, cpu_id, "sched_out",
                              thread=thread.name, outcome=outcome,
                              ran_ns=ran_ns)
            if spans.enabled:
                spans.sched_out(cpu_id, thread.name, now)
            if "rq_depth" in tracer.reads:
                tracer.record(now, cpu_id, "rq_depth",
                              depth=len(runqueue))
            self.current = None
            self._slice_end = None
            self.state = CpuState.IDLE

            if outcome is _PREEMPTED:
                thread.state = ThreadState.READY
                thread.cpu = None
                kernel.place_thread(thread, preferred=cpu_id)
            elif outcome is _EXITED:
                kernel.finish_thread(thread)
            # _BLOCKED: the wake path will re-place the thread.

    def _run_softirqs(self):
        self.softirq_runs += 1
        self._in_softirq = True
        try:
            yield from self.kernel.softirq.run_pending(self)
        finally:
            self._in_softirq = False

    def _softirqs_inline(self):
        """Run pending softirqs from inside a wait (irq-exit semantics).

        Softirqs fire promptly even while the current thread spins on a
        lock or burns a long compute segment — interrupts stay enabled in
        those states on real kernels.  Nested softirq execution is refused,
        as in Linux.
        """
        if not self._in_softirq and self.kernel.softirq.pending(self):
            yield from self._run_softirqs()

    # -- Instruction interpreters -----------------------------------------------

    def _run_instruction(self, thread, instruction):
        """Interpret an instruction the executor does not run inline."""
        if isinstance(instruction, Sleep):
            return self._do_sleep(thread, instruction)
        if isinstance(instruction, LockAcquire):
            return (yield from self._do_lock_acquire(thread, instruction))
        if isinstance(instruction, LockRelease):
            instruction.lock.release(thread)
            self._finish_instruction(thread, None)
            return _DONE
        if isinstance(instruction, YieldCPU):
            self._finish_instruction(thread, None)
            return _PREEMPTED if not self.runqueue.is_empty else _DONE
        if isinstance(instruction, Exit):
            thread.exit_value = instruction.value
            self._finish_instruction(thread, None)
            if hasattr(thread.body, "close"):
                thread.body.close()
            return _EXITED
        raise TypeError(f"unknown instruction {instruction!r}")

    def _finish_instruction(self, thread, result):
        thread.current_instruction = None
        thread.remaining_ns = 0
        thread.pending_result = result

    def _do_sleep(self, thread, instruction):
        kernel = self.kernel
        thread.state = ThreadState.BLOCKED
        thread.cpu = None

        def _wake(_event):
            kernel.wake_thread(thread)

        self.env.timeout(instruction.ns).callbacks.append(_wake)
        self._finish_instruction(thread, None)
        return _BLOCKED

    def _do_lock_acquire(self, thread, instruction):
        lock = instruction.lock
        yield from self._advance(self.kernel.params.lock_acquire_ns, preempt_ok=False)
        if lock.try_acquire(thread):
            self._finish_instruction(thread, None)
            return _DONE
        # Contended: spin with preemption disabled until handed the lock.
        handoff = lock.add_waiter(thread)
        self.preempt_depth += 1
        start = self.env.now
        try:
            yield from self._await(handoff, busy=True)
        finally:
            self.preempt_depth -= 1
        lock.total_wait_ns += self.env.now - start
        self._finish_instruction(thread, None)
        return _DONE

    # -- Preemption policy ---------------------------------------------------------

    def _should_preempt(self):
        """Would the scheduler take the CPU from the current thread now?"""
        thread = self.current
        if thread is None:
            return True
        if thread.holds_locks or self.preempt_depth > 0:
            return False
        if self._offline_requested:
            return True  # hotplug removal pending: vacate the CPU
        if not thread.can_run_on(self.cpu_id):
            return True  # affinity changed under it: migrate off
        waiting = self.runqueue.peek_class()
        if waiting is None:
            return self.kernel.softirq.pending(self)
        if thread.sched_class is SchedClass.REALTIME:
            return False  # FIFO realtime: nothing outranks it here
        if waiting is SchedClass.REALTIME:
            return True
        return self._slice_end is not None and self.env.now >= self._slice_end

    def _slice_expired_should_yield(self):
        return self.runqueue.peek_class() is not None

    def _extend_slice(self):
        self._slice_end = self.env.now + self.kernel.params.sched_slice_ns

    def __repr__(self):
        kind = "vCPU" if self.is_virtual else "pCPU"
        return f"<{kind} {self.cpu_id} {self.state.value} rq={len(self.runqueue)}>"
