"""Streaming statistics and distribution summaries."""

import math

import numpy as np


#: Sentinel distinguishing "no default supplied" from ``default=None``.
_RAISE = object()


def percentile(values, q, default=_RAISE):
    """Percentile ``q`` (0-100) of ``values`` using linear interpolation.

    An empty sequence raises ``ValueError`` unless ``default`` is given,
    in which case it is returned instead — aggregation paths that may
    legitimately see zero samples (e.g. a fleet class with no startups
    in a window) pass ``default=None`` and render a null rather than
    crash.
    """
    if len(values) == 0:
        if default is _RAISE:
            raise ValueError("percentile of empty sequence")
        return default
    return float(np.percentile(np.asarray(values, dtype=float), q))


def percentiles(values, qs=(50, 90, 99), default=_RAISE):
    """Several percentiles in one sort: ``{"p50": ..., "p90": ..., ...}``.

    ``qs`` entries are 0-100 percentile ranks; fractional ranks render
    without a trailing zero (99.9 -> ``"p99.9"``).  An empty sequence
    raises unless ``default`` is given, in which case every label maps
    to it (``percentiles([], default=None) -> {"p50": None, ...}``).
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        if default is _RAISE:
            raise ValueError("percentiles of empty sequence")
        return {f"p{q:g}": default for q in qs}
    results = np.percentile(data, list(qs))
    return {f"p{q:g}": float(value) for q, value in zip(qs, results)}


def summarize(values, qs=(50, 90, 99)):
    """Distribution summary of raw samples: count/min/mean/max + percentiles.

    The one-stop helper for analyzers and reports; an empty sequence
    yields ``{"count": 0}`` rather than raising, so callers can render
    sections unconditionally.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return {"count": 0}
    summary = {
        "count": int(data.size),
        "min": float(data.min()),
        "mean": float(data.mean()),
        "max": float(data.max()),
    }
    summary.update(percentiles(data, qs))
    return summary


def ratio(numerator, denominator):
    """Safe ratio for derived metrics."""
    if not denominator:
        return float("inf") if numerator else 0.0
    return numerator / denominator


def overhead_pct(system_value, baseline_value):
    """Percent throughput loss of ``system_value`` vs ``baseline_value``."""
    if not baseline_value:
        return 0.0
    return (1.0 - system_value / baseline_value) * 100.0


def attainment_pct(within, total):
    """SLO attainment with the vacuous case pinned at 100 (no samples =
    no violations), so short smoke runs don't read as fleet-wide outages."""
    if total <= 0:
        return 100.0
    return 100.0 * within / total


class WelfordStats:
    """Single-pass mean/variance/min/max accumulator."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value):
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self):
        return self._mean if self.count else 0.0

    @property
    def variance(self):
        return self._m2 / self.count if self.count else 0.0

    @property
    def stdev(self):
        return math.sqrt(self.variance)

    def merge(self, other):
        """Combine another accumulator into this one (parallel Welford)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def __repr__(self):
        return (
            f"<WelfordStats n={self.count} mean={self.mean:.3f} "
            f"min={self.min:.3f} max={self.max:.3f}>"
        )


class LatencyRecorder:
    """Keeps every sample (bounded) plus streaming moments.

    Ping-style summaries (min/avg/max/mdev) and arbitrary percentiles both
    come from here.  ``cap`` bounds memory; once exceeded, uniform
    reservoir sampling keeps percentiles honest.
    """

    def __init__(self, name="latency", cap=200_000, rng=None):
        self.name = name
        self.cap = cap
        self.samples = []
        self.stats = WelfordStats()
        self._abs_dev_sum = 0.0
        self._rng = rng or np.random.default_rng(12345)

    def record(self, value):
        value = float(value)
        # WelfordStats.add inlined (every scheduling wake records here),
        # with the same float operations in the same order.
        stats = self.stats
        count = stats.count = stats.count + 1
        delta = value - stats._mean
        mean = stats._mean = stats._mean + delta / count
        stats._m2 += delta * (value - mean)
        if value < stats.min:
            stats.min = value
        if value > stats.max:
            stats.max = value
        self._abs_dev_sum += abs(value - mean)
        if len(self.samples) < self.cap:
            self.samples.append(value)
        else:
            # Reservoir sampling keeps a uniform subset.
            index = int(self._rng.integers(0, count))
            if index < self.cap:
                self.samples[index] = value

    @property
    def count(self):
        return self.stats.count

    @property
    def mean(self):
        return self.stats.mean

    @property
    def min(self):
        return self.stats.min if self.stats.count else 0.0

    @property
    def max(self):
        return self.stats.max if self.stats.count else 0.0

    @property
    def mdev(self):
        """Mean absolute deviation, as reported by ping."""
        if self.stats.count == 0:
            return 0.0
        return self._abs_dev_sum / self.stats.count

    def percentile(self, q, default=_RAISE):
        return percentile(self.samples, q, default=default)

    def p50(self):
        return self.percentile(50)

    def p99(self):
        return self.percentile(99)

    def p999(self):
        return self.percentile(99.9)

    def summary(self):
        """Dict summary convenient for experiment tables."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "min": self.min,
            "mean": self.mean,
            "max": self.max,
            "mdev": self.mdev,
            "p50": self.p50(),
            "p99": self.p99(),
            "p999": self.p999(),
        }

    def __repr__(self):
        return f"<LatencyRecorder {self.name!r} n={self.count}>"


class Histogram:
    """Fixed-bucket histogram over ``edges`` (len(edges)+1 buckets)."""

    def __init__(self, edges, name="histogram"):
        self.name = name
        self.edges = sorted(float(edge) for edge in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0

    def add(self, value, weight=1):
        index = 0
        for index, edge in enumerate(self.edges):
            if value < edge:
                break
        else:
            index = len(self.edges)
        self.counts[index] += weight
        self.total += weight

    def bucket_labels(self):
        labels = [f"<{self.edges[0]:g}"]
        for low, high in zip(self.edges, self.edges[1:]):
            labels.append(f"{low:g}-{high:g}")
        labels.append(f">={self.edges[-1]:g}")
        return labels

    def __repr__(self):
        return f"<Histogram {self.name!r} total={self.total}>"


class Cdf:
    """Empirical CDF over recorded samples."""

    def __init__(self, samples=()):
        self.samples = list(samples)

    def add(self, value):
        self.samples.append(float(value))

    def fraction_below(self, threshold):
        """P(X <= threshold)."""
        if not self.samples:
            return 0.0
        data = np.asarray(self.samples)
        return float(np.mean(data <= threshold))

    def quantile(self, q):
        """Value at cumulative fraction ``q`` in [0, 1]."""
        return percentile(self.samples, q * 100.0)

    def points(self, n=100):
        """(x, cumulative fraction) pairs for plotting/reporting."""
        if not self.samples:
            return []
        data = np.sort(np.asarray(self.samples))
        qs = np.linspace(0.0, 1.0, n)
        xs = np.quantile(data, qs)
        return list(zip(xs.tolist(), qs.tolist()))


class RateMeter:
    """Counts events over a simulated interval to report rates."""

    def __init__(self, name="rate"):
        self.name = name
        self.count = 0
        self.bytes = 0
        self.started_ns = None
        self.ended_ns = None

    def start(self, now_ns):
        self.started_ns = now_ns

    def add(self, now_ns, nbytes=0):
        if self.started_ns is None:
            self.started_ns = now_ns
        self.count += 1
        self.bytes += nbytes
        self.ended_ns = now_ns

    def per_second(self, duration_ns=None):
        duration = duration_ns
        if duration is None:
            if self.started_ns is None or self.ended_ns is None:
                return 0.0
            duration = self.ended_ns - self.started_ns
        if duration <= 0:
            return 0.0
        return self.count * 1e9 / duration

    def bytes_per_second(self, duration_ns=None):
        duration = duration_ns
        if duration is None:
            if self.started_ns is None or self.ended_ns is None:
                return 0.0
            duration = self.ended_ns - self.started_ns
        if duration <= 0:
            return 0.0
        return self.bytes * 1e9 / duration

    def __repr__(self):
        return f"<RateMeter {self.name!r} count={self.count}>"
