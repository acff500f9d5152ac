"""The unified metrics registry: named counters, gauges and sources.

One :class:`MetricsRegistry` hangs off every
:class:`~repro.sim.environment.Environment` (``env.metrics``); when an
observability session is active (:mod:`repro.obs.session`) all
environments share the session's registry, so a whole experiment's
metrics land in one queryable snapshot.

Two usage styles coexist deliberately:

* **live instruments** — ``registry.counter("dp.idle_yields")`` returns a
  :class:`Counter` whose ``inc()`` is cheap enough for warm paths (cache
  the instrument object, don't re-look it up per event);
* **sources** — subsystems that already keep their own cheap local stats
  (``kernel.steals``, ``scheduler.exits_by_reason`` …) register a
  zero-overhead *source* callable; it is invoked only at
  :meth:`MetricsRegistry.snapshot` time.

The second style is what keeps the spine near-zero-overhead: hot paths
never touch the registry, they keep bumping the plain attributes they
always had, and collection happens once at the end of a run.

**Naming convention:** every instrument and source name is dotted
``subsystem.component`` — ``dp.idle_yields``, ``core.sw_probe``,
``kernel.smartnic-os``, ``sim.engine``.  The first segment is the owning
package under ``repro``; no bare (undotted) names.
"""


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def __repr__(self):
        return f"<Counter {self.name!r} {self.value}>"


class Gauge:
    """Last-write-wins named value, with a running-max convenience."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def set_max(self, value):
        if value > self.value:
            self.value = value

    def __repr__(self):
        return f"<Gauge {self.name!r} {self.value}>"


class MetricsRegistry:
    """Get-or-create registry of named instruments plus snapshot sources."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._kinds = {}
        self._sources = {}

    # -- Instruments -----------------------------------------------------------

    def counter(self, name):
        return self._instrument(name, "counter", self._counters, Counter)

    def gauge(self, name):
        return self._instrument(name, "gauge", self._gauges, Gauge)

    def _instrument(self, name, kind, table, factory):
        existing_kind = self._kinds.get(name)
        if existing_kind is None:
            self._kinds[name] = kind
            instrument = factory(name)
            table[name] = instrument
            return instrument
        if existing_kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {existing_kind}, "
                f"cannot re-register as a {kind}"
            )
        return table[name]

    # -- Sources ---------------------------------------------------------------

    def add_source(self, name, fn):
        """Register ``fn() -> dict`` collected lazily at snapshot time.

        Duplicate names get a ``#n`` suffix (several kernels/services of
        the same name may coexist across deployments in one session).
        Returns the name actually used.
        """
        unique = name
        n = 1
        while unique in self._sources:
            n += 1
            unique = f"{name}#{n}"
        self._sources[unique] = fn
        return unique

    # -- Collection --------------------------------------------------------------

    def counter_values(self):
        """``{name: value}`` for every counter — no sources invoked.

        The telemetry bus samples this every interval: unlike
        :meth:`snapshot` it never calls source functions (which may carry
        wall-clock fields), so it is cheap and fully deterministic.
        """
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauge_values(self):
        """``{name: value}`` for every gauge — no sources invoked."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def snapshot(self):
        """One nested dict with every instrument value and source dump."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "sources": {name: fn() for name, fn in sorted(self._sources.items())},
        }

    def __repr__(self):
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} sources={len(self._sources)}>"
        )
