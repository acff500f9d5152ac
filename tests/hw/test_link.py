"""Tests for latency/bandwidth links."""

import pytest

from repro.hw import Link
from repro.sim import Environment, RandomStreams


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
    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=100,
                jitter=RandomStreams(0).exponentials("jitter"), jitter_ns=50)
    deliveries = [link.transfer(8) for _ in range(20)]
    base = 8 * 8 / 8.0  # serialization
    assert all(d >= base + 100 for d in deliveries)


def test_block_jitter_draws_equal_scalar_draws():
    """Jitter comes from an ``ExponentialDraws``; 10,000 transfers see
    10,000 scalar ``exponential(jitter_ns)`` draws of the same stream."""
    jitter_ns, n = 600, 10_000
    scalar = RandomStreams(7).stream("wire-jitter")
    expected = [int(scalar.exponential(jitter_ns)) for _ in range(n)]

    env = Environment()
    link = Link(env, "l", bandwidth_gbps=8.0, latency_ns=100,
                jitter=RandomStreams(7).exponentials("wire-jitter"),
                jitter_ns=jitter_ns)
    jitters = []
    for _ in range(n):
        start = max(env.now, link._next_free_ns)
        jitters.append(link.transfer(8) - start - 8 - 100)
    assert jitters == expected


def test_zero_jitter_draws_nothing():
    draws = RandomStreams(7).exponentials("wire-jitter")
    link = Link(Environment(), "l", bandwidth_gbps=8.0, latency_ns=100,
                jitter=draws, jitter_ns=0)
    assert link.transfer(8) == 8 + 100
    assert draws._block == []
