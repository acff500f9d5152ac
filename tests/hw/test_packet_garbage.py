"""The packet path leaves no garbage for the cyclic collector.

A request's done event holds the request as its value once it succeeds,
so a request that kept its ``done`` would make one reference cycle per
packet.  ``IORequest.deliver`` and ``complete`` drop ``done`` as they
succeed it, and every packet dies by reference count.
"""

import gc
import weakref

import pytest

from repro.hw import IORequest, PacketKind
from repro.scenario import build
from repro.sim import Event
from repro.sim.units import MICROSECONDS, MILLISECONDS
from repro.workloads.netperf import run_tcp_rr, run_udp_stream

#: Objects one collection may find after a run.  A request/done cycle
#: per packet would leave two objects per packet: thousands here.
GARBAGE_BOUND = 50


class _Request(IORequest):
    __slots__ = ("__weakref__",)


class _Done(Event):
    __slots__ = ("__weakref__",)


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("runner, kwargs", [
    (run_tcp_rr, {"n_connections": 64}),   # closed loop: each client waits
    (run_udp_stream, {}),                  # open loop: latency callbacks
])
def test_packet_runs_leave_no_cyclic_garbage(no_gc, runner, kwargs):
    deployment = build("taichi", seed=0)
    deployment.warmup()
    runner(deployment, 200 * MICROSECONDS, **kwargs)
    gc.collect()
    accelerator = deployment.board.accelerator
    for duration_ms in (1, 3):
        packets = accelerator.packets_processed
        runner(deployment, duration_ms * MILLISECONDS, **kwargs)
        packets = accelerator.packets_processed - packets
        # The deployment is still alive: only what the run dropped counts.
        garbage = gc.collect()
        assert packets > 1_000 * duration_ms
        assert garbage <= GARBAGE_BOUND, (duration_ms, packets, garbage)


@pytest.mark.parametrize("dp_kind, kind", [
    ("net", PacketKind.NET_TX),              # the NIC port delivers it
    ("net", PacketKind.NET_RX),              # PCIe delivers it
    ("storage", PacketKind.STORAGE_SUBMIT),  # its device completion does
])
def test_delivered_request_and_done_die_by_refcount(no_gc, dp_kind, kind):
    deployment = build("static", seed=0, dp_kind=dp_kind)
    deployment.warmup()
    env = deployment.env
    queue_id = deployment.services[0].queue_ids[0]

    def send(request):
        done = request.done
        deployment.board.accelerator.submit(request)
        env.run(until=done)
        return done

    request = _Request(kind, 256, queue_id, service_ns=1_500,
                       done=_Done(env))
    done = send(request)
    assert done.processed and done.value is request
    assert request.done is None
    # A follower through the same service; without one the request dies
    # too (test_idle_service_lets_its_last_request_die).
    send(IORequest(kind, 256, queue_id, service_ns=1_500, done=Event(env)))
    refs = weakref.ref(request), weakref.ref(done)
    del request, done
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("dp_kind, kind", [
    ("net", PacketKind.NET_TX),
    ("net", PacketKind.NET_RX),
    ("storage", PacketKind.STORAGE_SUBMIT),
])
def test_idle_service_lets_its_last_request_die(no_gc, dp_kind, kind):
    """No follower packet: the DP loop drops its last packet (for storage,
    the completion whose payload is the request) before it waits idle."""
    deployment = build("static", seed=0, dp_kind=dp_kind)
    deployment.warmup()
    env = deployment.env
    queue_id = deployment.services[0].queue_ids[0]
    request = _Request(kind, 256, queue_id, service_ns=1_500,
                       done=_Done(env))
    done = request.done
    deployment.board.accelerator.submit(request)
    env.run(until=done)
    env.run(until=env.now + 10 * MICROSECONDS)
    assert deployment.services[0].packets_processed > 0
    refs = weakref.ref(request), weakref.ref(done)
    del request, done
    assert [ref() for ref in refs] == [None, None]


def test_complete_drops_done_once_it_succeeds_it(env):
    done = Event(env)
    request = IORequest(PacketKind.NET_TX, 64, "q", service_ns=100, done=done)
    request.t_submit = 10
    request.complete(110)
    assert request.done is None and done.triggered and done.value is request
    assert request.total_latency_ns == 100
