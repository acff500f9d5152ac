"""The tenancy runtime: partition one board's resources among tenants.

:class:`TenancyManager` is installed on a built deployment (after the arm
registry constructed it, before load starts).  It partitions the DP
services and — on Tai Chi arms — the vCPUs among the tenants
proportionally to their weights (largest-remainder, at least one each),
tags every service/vCPU with its owner's tenant id, computes each
tenant's CP affinity, seeds per-tenant probe thresholds, and hooks the
vCPU scheduler for weighted-fair backing:

* **isolation on** (the default): a tenant-owned DP CPU donates idle
  cycles only to that tenant's own vCPUs, and the shared CP pCPUs back
  the runnable tenant with the *lowest weight-normalized granted time* —
  so one tenant's CP storm cannot ride another tenant's data-plane CPUs,
  and the shared pool divides by weight;
* **isolation off**: the scheduler keeps its tenancy-blind round-robin
  (the pre-tenancy behavior) while grant accounting still attributes
  every slice — the measurable counterfactual the ``ext_multitenant``
  experiment compares against.

Grant accounting is conserved by construction (every slice lands in
exactly one tenant's ledger plus the board total) and is checkable from
the trace stream: ``tenant.pick`` events carry each weighted-fair
decision, ``tenant.grant`` events the running ledgers (see
:mod:`repro.obs.invariants`).
"""


class TenantRuntime:
    """One tenant's live slice: owned resources plus the grant ledger."""

    def __init__(self, spec, index):
        self.spec = spec
        self.index = index              # declaration order (tie-breaks)
        self.tenant_id = spec.tenant_id
        self.weight = spec.weight
        self.services = []
        self.vcpus = []
        self.cp_affinity = set()
        self.granted_ns = 0             # donated-slice time, accounted at
        self.grants = 0                 # slice end

    def normalized_usage_ns(self):
        """Granted time normalized by weight — the fairness currency."""
        return self.granted_ns / self.weight

    def __repr__(self):
        return (f"<TenantRuntime {self.tenant_id!r} weight={self.weight:g} "
                f"services={len(self.services)} vcpus={len(self.vcpus)}>")


def weighted_partition(n_items, runtimes, resource):
    """Split ``n_items`` whole items by weight (largest remainder, >=1).

    Returns one count per runtime, summing to ``n_items``.  Deterministic:
    ties break on declaration order.  Raises (naming the resource) when
    there are fewer items than tenants.
    """
    if len(runtimes) > n_items:
        raise ValueError(
            f"cannot partition {n_items} {resource} among "
            f"{len(runtimes)} tenants: every tenant needs at least one")
    total = sum(runtime.weight for runtime in runtimes)
    quotas = [n_items * runtime.weight / total for runtime in runtimes]
    counts = [max(int(quota), 1) for quota in quotas]
    while sum(counts) > n_items:
        # Shrink the most over-provisioned tenant that can still give.
        index = max(
            (i for i in range(len(counts)) if counts[i] > 1),
            key=lambda i: (counts[i] - quotas[i], -i))
        counts[index] -= 1
    while sum(counts) < n_items:
        index = max(range(len(counts)),
                    key=lambda i: (quotas[i] - counts[i], -i))
        counts[index] += 1
    return counts


class TenancyManager:
    """Owns the tenant partition and the per-tenant grant ledgers."""

    def __init__(self, deployment, tenants, isolation=True):
        from repro.tenancy.spec import normalize_tenants

        self.deployment = deployment
        self.env = deployment.env
        self.isolation = bool(isolation)
        specs = normalize_tenants(tenants)
        self.runtimes = [TenantRuntime(spec, index)
                         for index, spec in enumerate(specs)]
        self.by_id = {runtime.tenant_id: runtime
                      for runtime in self.runtimes}
        self._by_cpu = {}               # DP cpu_id -> TenantRuntime
        self._by_vcpu = {}              # VirtualCPU -> TenantRuntime
        self.total_granted_ns = 0
        self.installed = False

    # -- Installation -------------------------------------------------------------

    def install(self):
        """Partition the built deployment's resources among the tenants."""
        if self.installed:
            raise RuntimeError("tenancy is already installed on this board")
        deployment = self.deployment
        services = list(deployment.services)
        counts = weighted_partition(len(services), self.runtimes,
                                    "DP services")
        cursor = 0
        for runtime, count in zip(self.runtimes, counts):
            for service in services[cursor:cursor + count]:
                self.assign_service(service, runtime)
            cursor += count

        taichi = getattr(deployment, "taichi", None)
        if taichi is not None:
            vcpus = list(taichi.vcpus)
            counts = weighted_partition(len(vcpus), self.runtimes, "vCPUs")
            cursor = 0
            cp_pcpus = set(deployment.board.cp_cpu_ids)
            for runtime, count in zip(self.runtimes, counts):
                for vcpu in vcpus[cursor:cursor + count]:
                    vcpu.tenant_id = runtime.tenant_id
                    runtime.vcpus.append(vcpu)
                    self._by_vcpu[vcpu] = runtime
                cursor += count
                # CP tasks ride the tenant's own vCPUs plus the shared
                # dedicated CP pCPUs (which back tenants by weight).
                runtime.cp_affinity = (
                    {vcpu.cpu_id for vcpu in runtime.vcpus} | cp_pcpus)
            taichi.attach_tenancy(self)
        else:
            # Baseline arms have no vCPUs to partition: every tenant's CP
            # work shares the deployment's CP partition — which is exactly
            # the isolation gap the multi-tenant experiment measures.
            for runtime in self.runtimes:
                runtime.cp_affinity = set(deployment.cp_affinity)
        deployment.tenancy = self
        self.installed = True
        return self

    def assign_service(self, service, runtime):
        """Tag ``service`` as owned by ``runtime`` (install + repartition)."""
        service.tenant_id = runtime.tenant_id
        runtime.services.append(service)
        self._by_cpu[service.cpu_id] = runtime
        taichi = getattr(self.deployment, "taichi", None)
        if taichi is not None and runtime.spec.probe_threshold is not None:
            taichi.sw_probe.seed_threshold(service,
                                           runtime.spec.probe_threshold)

    def adopt_service(self, service):
        """Assign a repartition-created DP service to the tenant with the
        least weight-normalized DP capacity (ties: declaration order)."""
        runtime = min(self.runtimes,
                      key=lambda r: (len(r.services) / r.weight, r.index))
        self.assign_service(service, runtime)
        return runtime

    def release_service(self, service):
        """Detach a retired DP service (dynamic repartitioning)."""
        runtime = self._by_cpu.pop(service.cpu_id, None)
        if runtime is not None and service in runtime.services:
            runtime.services.remove(service)
        return runtime

    # -- Scheduler policy ---------------------------------------------------------

    def tenant_of_cpu(self, cpu_id):
        """The tenant owning DP CPU ``cpu_id`` (None for CP pCPUs)."""
        return self._by_cpu.get(cpu_id)

    def tenant_of_vcpu(self, vcpu):
        return self._by_vcpu.get(vcpu)

    def may_back(self, cpu_id, vcpu):
        """Donation policy: may ``cpu_id`` host a slice for ``vcpu``?

        Shared CP pCPUs back any tenant.  With isolation on, a
        tenant-owned DP CPU donates only to its own tenant's vCPUs.
        """
        if not self.isolation:
            return True
        owner = self._by_cpu.get(cpu_id)
        if owner is None:
            return True
        return self._by_vcpu.get(vcpu) is owner

    def choose(self, heads, cpu_id):
        """Weighted-fair pick among per-tenant queue heads.

        ``heads`` maps TenantRuntime (or None for untagged vCPUs) to the
        tenant's first runnable vCPU in FIFO order.  The tenant with the
        lowest weight-normalized granted time wins; declaration order
        breaks ties; untagged vCPUs (no tenant) always go first.  Emits a
        ``tenant.pick`` trace event carrying the decision and every
        backlogged tenant's normalized usage, which is what makes the
        fair-share invariant checkable from the stream.
        """
        runtime = min(
            heads,
            key=lambda r: ((0.0, -1) if r is None
                           else (r.normalized_usage_ns(), r.index)))
        if runtime is not None:
            tracer = self.deployment.kernel.tracer
            if "tenant.pick" in tracer.reads:
                backlogged = {
                    other.tenant_id: int(other.normalized_usage_ns())
                    for other in heads
                    if other is not None and other is not runtime
                }
                tracer.record(
                    self.env.now, cpu_id, "tenant.pick",
                    tenant=runtime.tenant_id,
                    usage_ns=int(runtime.normalized_usage_ns()),
                    backlogged=backlogged)
        return heads[runtime]

    def note_grant(self, vcpu, slice_ns, cpu_id):
        """Account one finished donated slice to its tenant's ledger."""
        slice_ns = int(slice_ns)
        self.total_granted_ns += slice_ns
        runtime = self._by_vcpu.get(vcpu)
        if runtime is None:
            return
        runtime.granted_ns += slice_ns
        runtime.grants += 1
        tracer = self.deployment.kernel.tracer
        if "tenant.grant" in tracer.reads:
            tracer.record(self.env.now, cpu_id, "tenant.grant",
                          tenant=runtime.tenant_id, ns=slice_ns,
                          tenant_total_ns=runtime.granted_ns,
                          total_ns=self.total_granted_ns)

    # -- Reporting ----------------------------------------------------------------

    def stats(self):
        """Per-tenant partition + grant-ledger view (metrics/summaries)."""
        return {
            "isolation": self.isolation,
            "total_granted_ns": self.total_granted_ns,
            "tenants": {
                runtime.tenant_id: {
                    "weight": runtime.weight,
                    "services": [service.name
                                 for service in runtime.services],
                    "vcpus": [vcpu.cpu_id for vcpu in runtime.vcpus],
                    "granted_ns": runtime.granted_ns,
                    "grants": runtime.grants,
                }
                for runtime in self.runtimes
            },
        }

    def __repr__(self):
        mode = "isolated" if self.isolation else "shared"
        return (f"<TenancyManager {mode} "
                f"tenants={[r.tenant_id for r in self.runtimes]}>")


def verify_tenant_summary(summary):
    """Cross-check a multi-tenant soak summary's books; returns problems.

    Checks (empty list = clean):

    * grant conservation — per-tenant ledgers sum to the board total;
    * sample accounting — within-SLO counts never exceed totals;
    * declared per-tenant DP SLOs hold at p99 when isolation is on.
    """
    problems = []
    tenants = summary.get("tenants")
    tenancy = summary.get("tenancy")
    if not tenants or tenancy is None:
        return ["summary carries no tenant blocks"]
    ledger_sum = sum(block["granted_ns"] for block in tenants.values())
    if ledger_sum != tenancy["total_granted_ns"]:
        problems.append(
            f"grant ledgers do not conserve: tenants sum to "
            f"{ledger_sum} ns but the board granted "
            f"{tenancy['total_granted_ns']} ns")
    for tid, block in tenants.items():
        if block["dp_within_slo"] > block["dp_slo_total"]:
            problems.append(
                f"tenant {tid!r}: dp_within_slo {block['dp_within_slo']} "
                f"exceeds dp_slo_total {block['dp_slo_total']}")
        if block["startup_within_slo"] > block["startup_slo_total"]:
            problems.append(
                f"tenant {tid!r}: startup_within_slo "
                f"{block['startup_within_slo']} exceeds startup_slo_total "
                f"{block['startup_slo_total']}")
        p99 = block["dp_latency_us"].get("p99")
        if (tenancy["isolation"] and block.get("dp_slo_declared")
                and p99 is not None and p99 > block["dp_slo_us"]):
            problems.append(
                f"tenant {tid!r}: dp rx-wait p99 {p99:.1f}us breaches its "
                f"declared SLO {block['dp_slo_us']:.1f}us despite "
                f"isolation")
    return problems
