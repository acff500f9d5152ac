"""Observability sessions: one trace/metrics scope spanning many envs.

Experiments routinely build several simulation environments (baseline
vs. Tai Chi vs. ablation).  An :class:`ObservabilitySession` is the
umbrella over all of them: while a session is active (via the
:func:`observe` context manager), every newly constructed
:class:`~repro.sim.environment.Environment` gets its tracer from the
session (one *stream* per environment, which exporters render as one
Chrome ``pid`` each) and shares the session's single
:class:`~repro.obs.registry.MetricsRegistry`.

No session active → each environment gets a private disabled tracer and
private registry, and the instrumentation spine costs one attribute
check per would-be event.
"""

from contextlib import contextmanager

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer

_ACTIVE = None


class ObservabilitySession:
    """Collects trace streams and metrics across simulation environments.

    ``trace=True`` alone makes the adopted tracers *retain* events, so
    :meth:`events` and the exporters see them.  With
    ``check_invariants=True`` every adopted environment also gets a
    streaming :class:`~repro.obs.analysis.InvariantEngine` hooked into
    its tracer, verifying the causal invariants (IPI delivery, slice
    pairing, single-CPU-per-thread, ...) and profiling the stream inline
    while the simulation runs; :meth:`violations` collects the findings
    and each engine's ``report()`` its profile.  The hook sees every
    event, but without ``trace=True`` nothing is stored.  Likewise
    ``spans=True`` alone hooks the span tracker and keeps no trace.
    """

    def __init__(self, trace=False, check_invariants=False, spans=False):
        self.trace = trace
        self.check_invariants = check_invariants
        # With ``spans=True`` every adopted environment's SpanTracker is
        # enabled at construction, so request roots opened anywhere in
        # the deployment carry correlation ids from the first event.
        self.spans = spans
        self.metrics = MetricsRegistry()
        self.streams = []          # [(label, Tracer)]
        self.invariant_engines = []  # [(label, InvariantEngine)]

    def adopt_environment(self, env, label=None):
        """Give ``env`` its tracer; called from Environment.__init__."""
        label = label or f"env{len(self.streams)}"
        tracer = Tracer(enabled=self.trace)
        if self.check_invariants:
            from repro.obs.analysis import InvariantEngine

            engine = InvariantEngine()
            tracer.add_hook(engine.observe)  # enables, but retains nothing
            self.invariant_engines.append((label, engine))
        self.streams.append((label, tracer))
        return tracer

    def violations(self):
        """Finalize inline checkers; returns ``[(stream_label, Violation)]``."""
        out = []
        for label, engine in self.invariant_engines:
            out.extend((label, violation) for violation in engine.finish())
        return out

    def events(self, kind=None):
        """All retained events across streams (optionally one kind);
        empty unless the session traces."""
        out = []
        for _, tracer in self.streams:
            out.extend(tracer.filter(kind=kind) if kind else list(tracer))
        return out

    def dropped_events(self):
        return sum(tracer.dropped for _, tracer in self.streams)

    def __repr__(self):
        return (
            f"<ObservabilitySession trace={self.trace} "
            f"streams={len(self.streams)}>"
        )


def current():
    """The active session, or None."""
    return _ACTIVE


@contextmanager
def observe(trace=False, check_invariants=False, spans=False):
    """Activate a session for the duration of the block (re-entrant)."""
    global _ACTIVE
    session = ObservabilitySession(trace=trace,
                                   check_invariants=check_invariants,
                                   spans=spans)
    previous = _ACTIVE
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous
