"""Deployment builders: board + DP services + a CP scheduling policy."""

from repro.core import TaiChi, TaiChiConfig
from repro.dp import DPServiceParams, deploy_dp_services
from repro.hw import SmartNIC
from repro.sim import Environment, RandomStreams


class Deployment:
    """A fully wired system under test.

    Subclasses override :meth:`_configure` to install their scheduler and
    must set :attr:`cp_affinity` — the CPU set CP tasks bind to.  The
    workload drivers only ever touch :attr:`board`, :attr:`services` and
    :attr:`cp_affinity`, so every system is exercised identically.
    """

    name = "base"

    def __init__(self, seed=0, board_config=None, dp_kind="net",
                 dp_params=None, dp_cpu_ids=None):
        self.env = Environment()
        self.rng = RandomStreams(seed=seed)
        self.board = SmartNIC(self.env, config=board_config, rng=self.rng)
        self.dp_kind = dp_kind
        self.dp_params = dp_params or DPServiceParams()
        self.taichi = None
        self.tenancy = None  # set by TenancyManager on multi-tenant boards
        self.cp_affinity = set(self.board.cp_cpu_ids)
        self._dp_cpu_ids = (
            list(dp_cpu_ids) if dp_cpu_ids is not None else self.board.dp_cpu_ids
        )
        self.services = []
        self._configure()
        # Fault injection: any plan active at construction time (see
        # repro.faults.session) arms an injector against this deployment.
        from repro.faults.session import current_plan
        plan = current_plan()
        self.fault_injector = None
        if plan is not None:
            from repro.faults.injector import FaultInjector
            self.fault_injector = FaultInjector(self, plan).arm()

    # -- Subclass hooks -----------------------------------------------------------

    def _configure(self):
        self._deploy_services()

    def _deploy_services(self, params=None):
        self.services = deploy_dp_services(
            self.board, self.dp_kind, cpu_ids=self._dp_cpu_ids,
            params=params or self.dp_params,
        )
        return self.services

    # -- Conveniences for workload drivers --------------------------------------------

    @property
    def kernel(self):
        return self.board.kernel

    def run(self, until_ns):
        self.env.run(until=until_ns)

    def warmup(self, ns=2_000_000):
        """Advance past boot transients (vCPU onlining etc.)."""
        self.env.run(until=self.env.now + ns)

    def dp_processing_ns(self):
        return sum(service.processing_ns for service in self.services)

    def stats(self):
        data = {
            "name": self.name,
            "dp_processing_ns": self.dp_processing_ns(),
            "sched_latency_mean_ns": self.kernel.sched_latency.mean,
        }
        if self.taichi is not None:
            data["taichi"] = self.taichi.stats()
        return data

    def __repr__(self):
        return f"<Deployment {self.name!r} services={len(self.services)}>"


class StaticPartitionDeployment(Deployment):
    """Production baseline: static 8 DP / 4 CP partition, no sharing."""

    name = "static"


class TaiChiDeployment(Deployment):
    """The full Tai Chi framework."""

    name = "taichi"

    def __init__(self, taichi_config=None, **kwargs):
        self._taichi_config = taichi_config or TaiChiConfig()
        super().__init__(**kwargs)

    def _configure(self):
        self._deploy_services()
        self.taichi = TaiChi(self.board, self._taichi_config)
        self.taichi.install()
        for service in self.services:
            self.taichi.attach_dp_service(service)
        self.cp_affinity = self.taichi.cp_affinity()


class TaiChiNoHwProbeDeployment(TaiChiDeployment):
    """Ablation: software probe only; DP resumes on slice expiry."""

    name = "taichi-no-hw-probe"

    def __init__(self, taichi_config=None, **kwargs):
        config = taichi_config or TaiChiConfig()
        config.hw_probe_enabled = False
        super().__init__(taichi_config=config, **kwargs)


class TaiChiVDPDeployment(TaiChiDeployment):
    """Type-1 stand-in: DP services themselves execute in vCPU contexts.

    Modeled by applying the guest-mode work tax (nested page tables,
    exit-heavy I/O) to the CPUs executing DP services; the Tai Chi
    machinery is otherwise identical, matching Section 6.3's Tai Chi-vDP.
    """

    name = "taichi-vdp"

    def __init__(self, guest_tax=1.07, **kwargs):
        self._guest_tax = guest_tax
        super().__init__(**kwargs)

    def _configure(self):
        super()._configure()
        for cpu_id in self._dp_cpu_ids:
            self.board.kernel.cpus[cpu_id].work_tax = self._guest_tax


class Type2Deployment(Deployment):
    """QEMU+KVM stand-in (Section 3.4 / 6.3).

    Device emulation and the guest OS permanently occupy one DP CPU
    (services deploy on the remaining seven); the emulated virtio backend
    adds a per-packet overhead on the I/O path; CP tasks run inside the
    guest, paying the guest-mode tax on the CP partition.  Native DP-CP
    IPC is broken — device-management interactions pay an RPC surcharge
    (``rpc_extra_ns`` consumed by callers that honor it).
    """

    name = "type2"

    def __init__(self, emulation_overhead=1.12, guest_cp_tax=1.08,
                 rpc_extra_ns=150_000, **kwargs):
        self._emulation_overhead = emulation_overhead
        self._guest_cp_tax = guest_cp_tax
        self.rpc_extra_ns = rpc_extra_ns
        super().__init__(**kwargs)

    def _configure(self):
        # One DP CPU is lost to QEMU + the guest OS.
        self._dp_cpu_ids = self._dp_cpu_ids[:-1]
        params = DPServiceParams(**{**self.dp_params.__dict__,
                                    "work_scale": self._emulation_overhead})
        self.dp_params = params
        self._deploy_services(params)
        for cpu_id in self.board.cp_cpu_ids:
            self.board.kernel.cpus[cpu_id].work_tax = self._guest_cp_tax


class NaiveCoscheduleDeployment(Deployment):
    """CP tasks co-scheduled directly onto DP CPUs by the kernel.

    The Figure 4 motivation case: when the DP service idles, the kernel
    runs CP tasks on its CPU; a CP task inside a non-preemptible routine
    then delays the DP service's wakeup by up to the routine length.
    """

    name = "naive"

    def _configure(self):
        self._deploy_services()
        self.cp_affinity = set(self._dp_cpu_ids) | set(self.board.cp_cpu_ids)


#: The arm registry: name -> class (built by ``repro.scenario.build``).
DEPLOYMENTS = {
    cls.name: cls
    for cls in (
        StaticPartitionDeployment,
        TaiChiDeployment,
        TaiChiNoHwProbeDeployment,
        TaiChiVDPDeployment,
        Type2Deployment,
        NaiveCoscheduleDeployment,
    )
}

