"""Processes: generator-driven actors that advance by yielding events."""

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event, PRIORITY_URGENT, _PENDING


class _InterruptEvent(Event):
    """Internal urgent event used to deliver an interrupt to a process.

    An interrupt whose process has finished by the time it is delivered
    is dropped (as in SimPy): two interrupts issued at one instant to a
    process that returns after catching the first must not throw the
    second into a finished generator.
    """

    __slots__ = ("_process",)

    def __init__(self, env, process, cause):
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self._process = process
        self.callbacks = [_deliver_interrupt]
        env.schedule(self, priority=PRIORITY_URGENT)


def _deliver_interrupt(event):
    process = event._process
    if process._value is _PENDING:
        process._resume(event)


class Process(Event):
    """Wraps a generator; the process *is* the event of its termination.

    The generator yields :class:`~repro.sim.events.Event` instances; when a
    yielded event is processed, the generator is resumed with the event's
    value (or has its exception thrown in).  Returning from the generator
    triggers the process event with the return value.

    Processes can be interrupted with :meth:`interrupt`, which raises
    :class:`~repro.sim.errors.Interrupt` inside the generator at its current
    yield point.
    """

    __slots__ = ("_generator", "name", "_target", "_resumer", "__weakref__")

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The event the process currently waits on (None while resuming).
        self._target = None
        # ``_resume`` bound once: every wait appends it, and an interrupt
        # removes it by identity.  The cycle it makes through ``self`` is
        # cut when the generator ends, so a finished process dies by
        # reference count.
        self._resumer = self._resume
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks = [self._resumer]
        env.schedule(init, priority=PRIORITY_URGENT)

    @property
    def target(self):
        """The event this process is currently waiting on (or ``None``)."""
        return self._target

    @property
    def is_alive(self):
        """True until the generator has terminated."""
        return self._value is _PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its yield point."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        _InterruptEvent(self.env, self, cause)

    def _resume(self, event):
        """Advance the generator with the state of ``event``."""
        env = self.env
        env._active_process = self
        # Forget the old target; if we are resumed by an interrupt the real
        # target may still fire later, in which case its callback must no
        # longer point at us.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resumer)
                except ValueError:
                    pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defuse()
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self._resumer = None
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._resumer = None
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: wait for it.
                next_event.callbacks.append(self._resumer)
                self._target = next_event
                break
            # Event already processed: loop around immediately with it.
            event = next_event

        env._active_process = None

    def __repr__(self):
        return f"<Process {self.name!r} at {id(self):#x}>"
