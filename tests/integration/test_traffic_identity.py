"""Pin every traffic runner's result bytes and event count.

Each runner draws its open-loop gaps, think times, host times, device
times and wire jitter from named random streams.  A host-side change to
how those streams are drawn (blocks instead of scalar calls) must leave
every draw, and so every result, unchanged.  Each case below runs one
runner on the ``taichi`` arm at seed 0 for 2 ms after warmup,
and pins the sha256 of its result dict (JSON, sorted keys) plus
the engine's ``events_processed``.

A change meant to move simulated results must update these pins, and
the ``EXPERIMENTS.md`` report and the benchmark digests with them.
"""

import hashlib
import json

import pytest

from repro.scenario import build
from repro.sim.units import MILLISECONDS
from repro.workloads import (
    run_fio,
    run_mysql,
    run_nginx,
    run_sockperf_tcp,
    run_sockperf_udp,
    run_tcp_crr,
    run_tcp_rr,
    run_tcp_stream,
    run_udp_stream,
)
from repro.workloads.traffic import ClosedLoopClients

#: case -> (runner, build kwargs, run kwargs)
CASES = {
    "udp_stream": (run_udp_stream, {}, {}),
    "tcp_stream": (run_tcp_stream, {}, {}),
    "tcp_rr": (run_tcp_rr, {}, {"n_connections": 128}),
    "tcp_crr": (run_tcp_crr, {}, {"n_connections": 64}),
    "sockperf_tcp": (run_sockperf_tcp, {}, {"n_connections": 128}),
    "sockperf_udp": (run_sockperf_udp, {}, {"rate_pps": 400_000}),
    "fio": (run_fio, {"dp_kind": "storage"}, {}),
    "nginx_http": (run_nginx, {}, {"protocol": "http", "max_clients": 128}),
    "nginx_https": (run_nginx, {}, {"protocol": "https", "max_clients": 128}),
    "mysql": (run_mysql, {}, {"n_threads": 64}),
}

#: case -> (sha256 of the result dict, events_processed)
PINS = {
    "udp_stream": (
        "9a6e06edf3b04e8936a1d24013ffca77f28f084dc548c467c80c43884f4cdb3f",
        57_050),
    "tcp_stream": (
        "3a29afa944634606995d57d3dcbac7033dbd7a14d99bdc511d39aa524717b24d",
        75_983),
    "tcp_rr": (
        "1ec9bd30845096550aab755ef0058c87306ea9983dd1e6bcc3b21276ba84a5c4",
        61_636),
    "tcp_crr": (
        "c8555db623fed347bb704a10de8d2ff3c755a1b6b0ec6eb70ddde1f8082ec650",
        53_741),
    "sockperf_tcp": (
        "6c0892d5144d463d2092a9887c1e8a8f242cf7697d9d35ab40bb824b83abbd55",
        61_636),
    "sockperf_udp": (
        "34cc3cc5624920c660ae78cb90278fdcd3a7ef31f50c5ee94c050d78087d9367",
        9_983),
    "fio": (
        "c60dc926a1aadef0b81e1d18355dbe35c840998b60612b784fcc89d5515fbf70",
        36_620),
    "nginx_http": (
        "9577c40b68ad4f60bcb11fe79f80ab8ae4f3ffbebd853afd0be4aa8bf7057906",
        60_003),
    "nginx_https": (
        "63e644a7df144c5dcaa3f75df23281fde40e65c3db62bb92a45ccbe0147c0eba",
        59_520),
    "mysql": (
        "664b43a8fb35ce514a4efb2279665597e8a78b1f1187cecd57dd04a239821402",
        26_744),
    "closed_loop_think": (
        "18e40f61f4bbb5ae4f03d570dc7e45003aaf5b2c5fb40c702d0b458613d85e7c",
        23_947),
}


def _digest(result):
    blob = json.dumps(result, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_result_and_events_are_pinned(case):
    runner, build_kwargs, run_kwargs = CASES[case]
    deployment = build("taichi", seed=0, **build_kwargs)
    deployment.warmup()
    result = runner(deployment, 2 * MILLISECONDS, **run_kwargs)
    events = deployment.env.profile()["events_processed"]
    assert (_digest(result), events) == PINS[case]


def test_closed_loop_think_times_are_pinned():
    """No runner sets a think time, so the closed-loop think stream is
    driven here directly, on its default stream."""
    deployment = build("taichi", seed=0)
    deployment.warmup()
    clients = ClosedLoopClients(deployment, n_clients=32, packets_per_txn=2,
                                size_bytes=128, service_ns=1_300,
                                think_ns=20_000)
    clients.start(2 * MILLISECONDS)
    deployment.run(deployment.env.now + 2 * MILLISECONDS)
    result = {
        "transactions": clients.transactions.count,
        "packets": clients.packets.count,
        "txn_mean_ns": clients.txn_latency.mean,
        "txn_p99_ns": clients.txn_latency.p99(),
    }
    events = deployment.env.profile()["events_processed"]
    assert (_digest(result), events) == PINS["closed_loop_think"]
