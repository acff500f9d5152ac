"""Comparison systems for the evaluation.

Every deployment builds the same SmartNIC board and DP workload surface but
schedules CP tasks differently:

* ``static`` — the production SOTA baseline (Section 6.1): fixed 8 DP / 4
  CP CPU partition, no sharing;
* ``taichi`` — the full framework;
* ``taichi-no-hw-probe`` — Tai Chi with the hardware workload probe
  disabled (Table 5's ablation);
* ``taichi-vdp`` — type-1 stand-in: identical to Tai Chi but DP services
  execute in vCPU contexts, paying the guest-mode tax (Section 6.3);
* ``type2`` — QEMU+KVM stand-in: one DP CPU consumed by device emulation
  and the guest OS, emulation overhead on the I/O path, CP inside a guest;
* ``naive`` — direct co-scheduling of CP tasks onto DP CPUs through the
  kernel scheduler (the Figure 4 motivation case).

``DEPLOYMENTS`` is the arm registry: :func:`repro.scenario.build`
constructs any entry by name, with its constructor's parameters as knobs.
"""

from repro.baselines.deployments import (
    DEPLOYMENTS,
    Deployment,
    NaiveCoscheduleDeployment,
    StaticPartitionDeployment,
    TaiChiDeployment,
    TaiChiNoHwProbeDeployment,
    TaiChiVDPDeployment,
    Type2Deployment,
)

__all__ = [
    "DEPLOYMENTS",
    "Deployment",
    "NaiveCoscheduleDeployment",
    "StaticPartitionDeployment",
    "TaiChiDeployment",
    "TaiChiNoHwProbeDeployment",
    "TaiChiVDPDeployment",
    "Type2Deployment",
]
