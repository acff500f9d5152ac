"""Sensitivity sweep: preprocessing window vs. vCPU switch cost.

Observation 4 of the paper rests on one inequality: the accelerator's
I/O preprocessing window (3.2 us on their hardware) exceeds the vCPU
context-switch cost (~2 us), so preemption started at packet detection
completes before the packet reaches the rx queue.  This sweep varies the
window across and beyond the switch cost and measures the added ping RTT
under CP pressure — the crossover should sit where window ~= switch cost,
and the added latency should shrink to ~zero above it.

This is the kind of figure a port to a different SmartNIC (slower
accelerator, faster cores) would need before deployment.
"""

from repro.core import TaiChiConfig
from repro.experiments.common import scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.hw import AcceleratorParams, BoardConfig
from repro.scenario import arm_knobs, arms_under_test, build
from repro.sim.units import MICROSECONDS, MILLISECONDS, SECONDS
from repro.workloads import run_ping
from repro.workloads.background import start_cp_background

# Preprocessing-stage durations to sweep (transfer stays at 0.5 us).
PREPROCESS_NS = (500, 1_000, 1_500, 2_700, 4_000)
TRANSFER_NS = 500

#: Reference arm and the swept arm (``run --arm`` overrides).
DEFAULT_ARMS = ("baseline", "taichi")


def _measure(arm, preprocess_ns, duration_ns, seed, config=None):
    board_config = BoardConfig(
        accelerator=AcceleratorParams(preprocess_ns=preprocess_ns,
                                      transfer_ns=TRANSFER_NS),
    )
    kwargs = {}
    if "taichi_config" in arm_knobs(arm) and config is not None:
        kwargs["taichi_config"] = config
    deployment = build(arm, seed=seed, board_config=board_config,
                       **kwargs)
    # Saturating CP pressure keeps the pinged CPU in a vCPU slice whenever
    # a probe arrives, so every ping exercises the revoke path.
    start_cp_background(deployment, n_monitors=4, rolling_tasks=10)
    deployment.warmup()
    return run_ping(deployment, duration_ns)


@register("ext_window_sweep",
          "Latency hiding vs preprocessing-window size",
          "Observation 4 (sensitivity analysis)")
def run(scale=1.0, seed=0):
    duration = scaled_duration(1 * SECONDS, scale,
                               floor_ns=200 * MILLISECONDS)
    # A fixed empty-poll threshold keeps yield timing identical across the
    # sweep; the adaptive loop would otherwise trade yields away exactly in
    # the configurations we want to measure.
    config = TaiChiConfig(adaptive_threshold=False)
    switch_us = config.costs.switch_total_ns / MICROSECONDS
    arms = arms_under_test(DEFAULT_ARMS)
    rows = []
    for preprocess_ns in PREPROCESS_NS:
        window_ns = preprocess_ns + TRANSFER_NS
        baseline = _measure(arms[0], preprocess_ns, duration, seed)
        taichi = _measure(arms[-1], preprocess_ns, duration, seed,
                          config=config)
        rows.append({
            "window_us": window_ns / MICROSECONDS,
            "window_covers_switch": window_ns >= config.costs.switch_total_ns,
            "baseline_qwait_us": baseline["queue_wait_avg_ns"] / MICROSECONDS,
            "taichi_qwait_us": taichi["queue_wait_avg_ns"] / MICROSECONDS,
            "added_qwait_us":
                (taichi["queue_wait_avg_ns"] - baseline["queue_wait_avg_ns"])
                / MICROSECONDS,
            "added_rtt_avg_us": (taichi["avg_ns"] - baseline["avg_ns"])
            / MICROSECONDS,
        })
    covered = [row for row in rows if row["window_covers_switch"]]
    uncovered = [row for row in rows if not row["window_covers_switch"]]
    return ExperimentResult(
        exp_id="ext_window_sweep",
        title="Added DP latency vs accelerator preprocessing window",
        paper_ref="Observation 4",
        rows=rows,
        derived={
            "switch_cost_us": switch_us,
            "worst_added_qwait_covered_us":
                max(row["added_qwait_us"] for row in covered),
            "worst_added_qwait_uncovered_us":
                max(row["added_qwait_us"] for row in uncovered)
                if uncovered else 0.0,
        },
        paper={
            "claim": (
                "the 3.2us window hides the 2us switch; below the switch "
                "cost, part of the switch leaks into packet latency"
            ),
        },
    )
