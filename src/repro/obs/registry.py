"""The unified metrics registry: named counters and sources.

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


class MetricsRegistry:
    """Get-or-create registry of named instruments plus snapshot sources."""

    def __init__(self):
        self._counters = {}
        self._sources = {}

    # -- Instruments -----------------------------------------------------------

    def counter(self, name):
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

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

    def snapshot(self):
        """One nested dict with every instrument value and source dump."""
        return {
            "counters": self.counter_values(),
            "sources": {name: fn() for name, fn in sorted(self._sources.items())},
        }

    def __repr__(self):
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"sources={len(self._sources)}>"
        )
