"""The SmartNIC board: CPUs, accelerator, probe, and links in one device.

Defaults follow Table 4 of the paper: 12 CPUs (8 reserved for data-plane
services, 4 for control-plane tasks in the static-partition baseline),
PCIe Gen3 x8 toward the host, and a 200 Gb/s physical network port.
"""

from dataclasses import dataclass, field

from repro.hw.accelerator import Accelerator, AcceleratorParams
from repro.hw.port import Link
from repro.hw.probe import HardwareWorkloadProbe
from repro.kernel import Kernel, KernelParams
from repro.sim import RandomStreams
from repro.sim.store import Store


@dataclass
class BoardConfig:
    total_cpus: int = 12
    dp_cpus: int = 8
    cp_cpus: int = 4
    pcie_bandwidth_gbps: float = 63.0     # Gen3 x8 effective
    pcie_latency_ns: int = 900
    nic_bandwidth_gbps: float = 200.0
    wire_latency_ns: int = 8_000          # one-way to the benchmark peer
    wire_jitter_ns: int = 600
    accelerator: AcceleratorParams = field(default_factory=AcceleratorParams)
    kernel: KernelParams = field(default_factory=KernelParams)

    def __post_init__(self):
        if self.dp_cpus + self.cp_cpus != self.total_cpus:
            raise ValueError(
                f"dp_cpus ({self.dp_cpus}) + cp_cpus ({self.cp_cpus}) "
                f"must equal total_cpus ({self.total_cpus})"
            )


class SmartNIC:
    """A complete SmartNIC device model.

    CPU ids 0..dp_cpus-1 are the data-plane partition; the remainder are
    the control-plane partition (in the static baseline).  The hardware
    workload probe exists on every board — a ~30-line accelerator feature —
    but stays inert until a scheduler installs an IRQ handler.
    """

    def __init__(self, env, config=None, rng=None, name="smartnic"):
        self.env = env
        self.config = config or BoardConfig()
        self.rng = rng or RandomStreams(seed=0)
        self.name = name

        self.kernel = Kernel(env, params=self.config.kernel, name=f"{name}-os")
        for cpu_id in range(self.config.total_cpus):
            self.kernel.add_cpu(cpu_id)

        self.hw_probe = HardwareWorkloadProbe(env)
        self.accelerator = Accelerator(env, params=self.config.accelerator,
                                       probe=self.hw_probe)
        env.metrics.add_source(f"board.{name}", self.metrics_snapshot)
        self.pcie = Link(env, f"{name}-pcie", self.config.pcie_bandwidth_gbps,
                         self.config.pcie_latency_ns)
        self.nic_port = Link(
            env, f"{name}-port", self.config.nic_bandwidth_gbps,
            self.config.wire_latency_ns,
            jitter=self.rng.exponentials("wire-jitter"),
            jitter_ns=self.config.wire_jitter_ns,
        )

    @property
    def dp_cpu_ids(self):
        return list(range(self.config.dp_cpus))

    @property
    def cp_cpu_ids(self):
        return list(range(self.config.dp_cpus, self.config.total_cpus))

    def dp_cpu(self, index):
        return self.kernel.cpus[self.dp_cpu_ids[index]]

    def make_rx_queue(self, queue_id, dst_cpu_id, capacity=4096):
        """Create a shared rx queue and register it with the accelerator."""
        store = Store(self.env, capacity=capacity, name=f"rxq-{queue_id}")
        self.accelerator.attach_queue(queue_id, store, dst_cpu_id)
        return store

    def metrics_snapshot(self):
        """Board-level hardware stats for the metrics registry."""
        return {
            "probe_packets_inspected": self.hw_probe.packets_inspected,
            "probe_irqs_fired": self.hw_probe.irqs_fired,
            "accelerator_packets": self.accelerator.packets_processed,
        }

    def dp_utilization(self, window_ns, processing_ns_by_cpu):
        """Effective DP utilization: packet-processing time over the window."""
        if window_ns <= 0:
            return 0.0
        total = sum(processing_ns_by_cpu.values())
        return total / (window_ns * max(len(processing_ns_by_cpu), 1))

    def __repr__(self):
        return (
            f"<SmartNIC {self.name!r} cpus={self.config.total_cpus} "
            f"(dp={self.config.dp_cpus} cp={self.config.cp_cpus})>"
        )
