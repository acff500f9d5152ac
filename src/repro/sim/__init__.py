"""Discrete-event simulation engine underlying the Tai Chi reproduction.

This is a small, self-contained engine in the style of simpy: an
:class:`~repro.sim.environment.Environment` owns a simulated clock (integer
nanoseconds), an event heap and a FIFO of events ready now; *processes*
are Python generators that yield events (timeouts, stores, conditions)
and may be interrupted.  All higher layers (the kernel model, the
virtualization model, the hardware model) are built from these
primitives.

Quick example::

    from repro.sim import Environment

    env = Environment()

    def worker(env):
        yield env.timeout(1_000)        # 1 microsecond
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert proc.value == "done"
"""

from repro.sim.environment import Environment
from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.store import Store
from repro.sim.units import MILLISECONDS, MICROSECONDS, NANOSECONDS, SECONDS, ns_to_s, s_to_ns

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "MICROSECONDS",
    "MILLISECONDS",
    "NANOSECONDS",
    "Process",
    "RandomStreams",
    "SECONDS",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
    "derive_seed",
    "ns_to_s",
    "s_to_ns",
]
