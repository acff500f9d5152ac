"""Tests for poll-mode DP services."""

from repro.dp import DPServiceParams, deploy_dp_services
from repro.hw import IORequest, PacketKind, SmartNIC
from repro.sim import Environment, MILLISECONDS


def make_board():
    env = Environment()
    return env, SmartNIC(env)


class RecordingNotifier:
    """Minimal stand-in for the software workload probe."""

    def __init__(self, threshold=16):
        self.threshold = threshold
        self.notified = []

    def threshold_for(self, service):
        return self.threshold

    def notify_idle(self, service):
        self.notified.append(service.name)


def test_service_processes_packets_in_order():
    env, board = make_board()
    services = deploy_dp_services(board, "net", cpu_ids=[0])
    done_order = []
    for index in range(3):
        req = IORequest(PacketKind.NET_TX, 64, ("net", 0, 0), service_ns=1_000,
                        done=env.event())
        req.done.callbacks.append(
            lambda event, i=index: done_order.append(i))
        board.accelerator.submit(req)
    env.run(until=5 * MILLISECONDS)
    assert done_order == [0, 1, 2]
    assert services[0].packets_processed == 3


def test_processing_time_accounted():
    env, board = make_board()
    services = deploy_dp_services(board, "net", cpu_ids=[0])
    board.accelerator.submit(
        IORequest(PacketKind.NET_TX, 64, ("net", 0, 0), service_ns=2_000))
    env.run(until=5 * MILLISECONDS)
    assert services[0].processing_ns == 2_000


def test_idle_notification_after_threshold():
    env, board = make_board()
    services = deploy_dp_services(board, "net", cpu_ids=[0])
    notifier = RecordingNotifier(threshold=16)
    services[0].attach_idle_notifier(notifier)
    env.run(until=5 * MILLISECONDS)
    assert notifier.notified  # crossed threshold with no traffic
    assert services[0].is_idle_blocked


def test_traffic_resets_idle_counting():
    env, board = make_board()
    services = deploy_dp_services(board, "net", cpu_ids=[0])
    notifier = RecordingNotifier(threshold=1_000_000)  # effectively never
    services[0].attach_idle_notifier(notifier)
    board.accelerator.submit(
        IORequest(PacketKind.NET_TX, 64, ("net", 0, 0), service_ns=1_000))
    env.run(until=5 * MILLISECONDS)
    assert services[0].packets_processed == 1
    assert not notifier.notified


def test_resume_polling_unblocks_idle_service():
    env, board = make_board()
    services = deploy_dp_services(board, "net", cpu_ids=[0])
    notifier = RecordingNotifier(threshold=16)
    service = services[0]
    service.attach_idle_notifier(notifier)
    env.run(until=2 * MILLISECONDS)
    first_count = len(notifier.notified)
    assert service.is_idle_blocked
    service.resume_polling()
    env.run(until=4 * MILLISECONDS)
    # The service re-polled, found nothing, and notified again.
    assert len(notifier.notified) > first_count


def test_pollution_tax_applies_once():
    env, board = make_board()
    params = DPServiceParams(pollution_tax=2.0, pollution_window_ns=1_000)
    services = deploy_dp_services(board, "net", cpu_ids=[0], params=params)
    service = services[0]
    service.note_vcpu_ran()
    for _ in range(2):
        board.accelerator.submit(
            IORequest(PacketKind.NET_TX, 64, ("net", 0, 0), service_ns=1_000))
    env.run(until=5 * MILLISECONDS)
    # First packet taxed (2000 ns), second at base cost (1000 ns).
    assert service.processing_ns == 3_000


def test_storage_round_trip_completes_original_request():
    env, board = make_board()
    services = deploy_dp_services(board, "storage", cpu_ids=[0])
    done = env.event()
    request = IORequest(PacketKind.STORAGE_SUBMIT, 4096, ("storage", 0, 0),
                        service_ns=2_000, done=done)
    board.accelerator.submit(request)
    env.run(until=10 * MILLISECONDS)
    assert done.triggered
    # Submission + completion both cost DP processing.
    assert services[0].packets_processed == 2


def test_work_scale_multiplies_cost():
    env, board = make_board()
    params = DPServiceParams(work_scale=1.5)
    services = deploy_dp_services(board, "net", cpu_ids=[0], params=params)
    board.accelerator.submit(
        IORequest(PacketKind.NET_TX, 64, ("net", 0, 0), service_ns=1_000))
    env.run(until=5 * MILLISECONDS)
    assert services[0].processing_ns == 1_500


def test_utilization_metric():
    env, board = make_board()
    services = deploy_dp_services(board, "net", cpu_ids=[0])
    board.accelerator.submit(
        IORequest(PacketKind.NET_TX, 64, ("net", 0, 0), service_ns=10_000))
    env.run(until=1 * MILLISECONDS)
    util = services[0].utilization(1 * MILLISECONDS)
    assert abs(util - 0.01) < 0.005


def test_doorbell_rings_at_once_if_items_present():
    # A store that already holds packets rings the freshly armed bell,
    # checked in rx_stores order, without consuming anything.
    env, board = make_board()
    service = deploy_dp_services(board, "net", cpu_ids=[0],
                                 queues_per_cpu=2)[0]
    first, second = service.rx_stores
    second.put("a")
    second.put("b")
    service._arrival_event()
    assert service._bell.triggered
    assert service._bell.value == 2  # the first non-empty store's length
    assert len(first) == 0 and len(second) == 2


def test_arrival_event_keeps_one_relay_hop_for_several_stores():
    env, board = make_board()
    single, double = deploy_dp_services(board, "net", cpu_ids=[0, 1])
    double.adopt_queue(("net", 0, 0))
    assert single._arrival_event() is single._bell
    arrival = double._arrival_event()
    assert arrival is not double._bell
    assert arrival._events == [double._bell]


def test_adopt_and_release_retarget_store_consumer():
    env, board = make_board()
    first, second = deploy_dp_services(board, "net", cpu_ids=[0, 1])
    store = board.accelerator.queue_store(("net", 1, 0))
    assert store.consumer is second
    first.adopt_queue(("net", 1, 0))
    assert store.consumer is first
    # The previous poller lets go without unhooking the new consumer.
    second.release_queue(("net", 1, 0))
    assert store.consumer is first
    first.release_queue(("net", 1, 0))
    assert store.consumer is None
