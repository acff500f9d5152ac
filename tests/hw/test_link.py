"""Tests for latency/bandwidth links."""

import pytest

from repro.hw import Link
from repro.sim import Environment


def test_transfer_time_includes_serialization_and_latency():
    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=1_000)
    # 1000 bytes at 8 Gb/s = 1000 ns serialization.
    deliver_at = link.transfer(1000)
    assert deliver_at == 1000 + 1000


def test_back_to_back_transfers_serialize():
    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=0)
    first = link.transfer(1000)
    second = link.transfer(1000)
    assert second == first + 1000


def test_delivery_callback_fires_at_delivery_time():
    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=500)
    seen = []
    link.transfer(1000, on_delivered=lambda event: seen.append(event.env.now))
    env.run()
    assert seen == [1500]


def test_zero_bandwidth_rejected():
    with pytest.raises(ValueError):
        Link(Environment(), "l", bandwidth_gbps=0, latency_ns=0)


def test_statistics():
    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=0)
    link.transfer(500)
    link.transfer(500)
    assert link.transfers == 2
    assert link.bytes_moved == 1000


def test_jitter_adds_nonnegative_delay():
    import numpy as np

    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=100,
                jitter_rng=np.random.default_rng(0), jitter_ns=50)
    deliveries = [link.transfer(8) for _ in range(20)]
    base = 8 * 8 / 8.0  # serialization
    assert all(d >= base + 100 for d in deliveries)


def test_block_jitter_draws_equal_scalar_draws():
    """Jitter comes from blocks of ``standard_exponential``; 10,000 draws
    equal 10,000 scalar ``exponential(jitter_ns)`` draws from the same
    seed, on their own and through a link."""
    import numpy as np

    jitter_ns, n = 600, 10_000
    scalar = np.random.default_rng(7)
    expected = [int(scalar.exponential(jitter_ns)) for _ in range(n)]

    blocked = np.random.default_rng(7)
    drawn = []
    while len(drawn) < n:
        drawn.extend(int(value) for value in (
            jitter_ns * blocked.standard_exponential(size=256)).tolist())
    assert drawn[:n] == expected

    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=100,
                jitter_rng=np.random.default_rng(7), jitter_ns=jitter_ns)
    jitters = []
    for _ in range(n):
        start = max(env.now, link._next_free_ns)
        jitters.append(link.transfer(8) - start - 8 - 100)
    assert jitters == expected
