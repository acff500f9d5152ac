"""Tests for the accelerator pipeline and its probe hooks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Accelerator, AcceleratorParams, CpuIoState, HardwareWorkloadProbe, IORequest, PacketKind
from repro.sim import Environment, Store


def make(probe=None, params=None):
    env = Environment()
    accel = Accelerator(env, params=params, probe=probe)
    store = Store(env)
    accel.attach_queue("q0", store, dst_cpu_id=0)
    return env, accel, store


def request(queue_id="q0", service_ns=1000):
    return IORequest(PacketKind.NET_TX, 64, queue_id, service_ns=service_ns)


def test_packet_deposited_after_window():
    env, accel, store = make()
    req = request()
    accel.submit(req)
    env.run()
    assert len(store) == 1
    assert req.t_rx_ready == accel.window_ns
    assert req.t_submit == 0
    assert req.t_accel_start == 0


def test_unknown_queue_rejected():
    env, accel, store = make()
    with pytest.raises(KeyError):
        accel.submit(request(queue_id="missing"))


def test_probe_inspected_before_preprocessing():
    probe_env = Environment()
    probe = HardwareWorkloadProbe(probe_env)
    env = probe_env
    accel = Accelerator(env, probe=probe)
    store = Store(env)
    accel.attach_queue("q0", store, dst_cpu_id=3)
    accel.submit(request())
    env.run()
    # Inspected at submit and again at deposit.
    assert probe.packets_inspected == 2


def test_probe_fires_irq_for_v_state_target():
    env = Environment()
    probe = HardwareWorkloadProbe(env)
    fired = []
    probe.set_irq_handler(fired.append)
    probe.set_state(3, CpuIoState.V_STATE)
    accel = Accelerator(env, probe=probe)
    store = Store(env)
    accel.attach_queue("q0", store, dst_cpu_id=3)
    accel.submit(request())
    env.run()
    assert fired and fired[0] == 3
    assert probe.irqs_fired >= 1


def test_probe_masked_in_p_state():
    env = Environment()
    probe = HardwareWorkloadProbe(env)
    fired = []
    probe.set_irq_handler(fired.append)
    probe.set_state(3, CpuIoState.P_STATE)
    accel = Accelerator(env, probe=probe)
    store = Store(env)
    accel.attach_queue("q0", store, dst_cpu_id=3)
    accel.submit(request())
    env.run()
    assert not fired


def test_pipeline_serialization_under_burst():
    params = AcceleratorParams(pipelines=1)
    env, accel, store = make(params=params)
    first, second = request(), request()
    accel.submit(first)
    accel.submit(second)
    env.run()
    # With one engine the second packet starts preprocessing after the first.
    assert second.t_accel_start == first.t_accel_start + params.preprocess_ns


def test_retarget_queue():
    env, accel, store = make()
    accel.retarget_queue("q0", dst_cpu_id=7)
    assert accel.queue_owner("q0") == 7


def test_window_matches_figure6():
    env, accel, store = make()
    assert accel.window_ns == 3_200  # 2.7 us + 0.5 us


@given(
    pipelines=st.integers(min_value=1, max_value=8),
    submits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4_000),   # gap before submit
            st.integers(min_value=0, max_value=20_000),  # stall_until_ns
        ),
        min_size=1, max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_engine_heap_matches_linear_scan(pipelines, submits):
    """The engine heap claims the same (engine, start) as a min() scan."""
    params = AcceleratorParams(pipelines=pipelines)
    env, accel, store = make(params=params)
    free_ns = [0] * pipelines
    for gap, stall_until_ns in submits:
        env.run(until=env.now + gap)
        accel.stall_until_ns = stall_until_ns
        engine = min(range(pipelines), key=free_ns.__getitem__)
        start = max(env.now, free_ns[engine], stall_until_ns)
        free_ns[engine] = start + params.preprocess_ns

        before = set(accel._engines)
        req = request()
        accel.submit(req)
        (claimed,) = before - set(accel._engines)
        assert (claimed[1], req.t_accel_start) == (engine, start)
    assert sorted(accel._engines) == sorted(
        (free, engine) for engine, free in enumerate(free_ns))


class _RecordingProbe:
    """Stands in for the hardware probe: records each inspected CPU."""

    def __init__(self):
        self.inspected = []

    def on_packet(self, dst_cpu_id):
        self.inspected.append(dst_cpu_id)


def test_deposit_uses_the_queue_target_captured_at_submit():
    # A queue retargeted (or re-attached to a new store) while a packet is
    # in the pipeline: the packet still lands in the store, and the probe
    # re-inspects the CPU, that the queue had when it was submitted.
    env = Environment()
    probe = _RecordingProbe()
    accel = Accelerator(env, probe=probe)
    old, new = Store(env), Store(env)
    accel.attach_queue("q0", old, dst_cpu_id=3)
    first = request()
    accel.submit(first)
    accel.retarget_queue("q0", 5)
    env.run(until=accel.window_ns // 2)
    accel.attach_queue("q0", new, dst_cpu_id=7)
    second = request()
    accel.submit(second)
    env.run()
    assert list(old.items) == [first] and list(new.items) == [second]
    assert probe.inspected == [3, 7, 3, 7]
    assert first.t_rx_ready == accel.window_ns
    assert accel.queue_owner("q0") == 7 and accel.queue_inflight("q0") == 0
