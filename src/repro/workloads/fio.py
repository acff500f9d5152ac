"""fio-equivalent storage benchmark: 4 KB blocks, 16 jobs with libaio."""

from repro.workloads.traffic import StorageClients

BLOCK_BYTES = 4096
SUBMIT_SERVICE_NS = 2_500   # SPDK-side submission processing per block


def run_fio(deployment, duration_ns, n_jobs=16, iodepth=8):
    """fio_rw: 4 KB random I/O across all storage DP services.

    Requires a deployment built with ``dp_kind="storage"``.  IOPS is
    CPU-bound on the SmartNIC: every block costs a submission pass and a
    completion-queue pass on a DP core, so losing a core (type-2) or
    paying a guest tax (type-1) shows up directly.
    """
    if deployment.dp_kind != "storage":
        raise ValueError("run_fio needs a deployment with dp_kind='storage'")
    clients = StorageClients(
        deployment, n_jobs=n_jobs, iodepth=iodepth,
        block_bytes=BLOCK_BYTES, service_ns=SUBMIT_SERVICE_NS,
    )
    clients.start(duration_ns)
    deployment.run(deployment.env.now + duration_ns)
    iops = clients.completed.per_second(duration_ns)
    return {
        "case": "fio_rw",
        "n_jobs": n_jobs,
        "iodepth": iodepth,
        "iops": iops,
        "bw_mbps": iops * BLOCK_BYTES / 1e6,
        "lat_mean_ns": clients.io_latency.mean,
        "lat_p99_ns": clients.io_latency.p99() if clients.io_latency.count else 0,
    }
