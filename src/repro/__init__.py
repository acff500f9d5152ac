"""Tai Chi reproduction: SmartNIC DP/CP co-scheduling via hybrid virtualization.

A simulation-based, from-scratch reproduction of "Tai Chi: A General
High-Efficiency Scheduling Framework for SmartNICs in Hyperscale Clouds"
(SOSP 2025).  See DESIGN.md for the system inventory and EXPERIMENTS.md
for paper-vs-measured results.

Public API tour::

    from repro.sim import Environment                    # DES engine
    from repro.hw import SmartNIC                        # the board
    from repro.dp import deploy_dp_services              # DPDK/SPDK models
    from repro.core import TaiChi, TaiChiConfig          # the framework
    from repro.scenario import build                     # systems under test
    from repro.workloads import run_ping, run_synth_cp   # Table 3 benchmarks
    from repro.experiments import run_experiment         # tables & figures
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
