"""Table 5: ping RTT across baseline / Tai Chi / Tai Chi w/o HW probe.

Moderate CP pressure keeps vCPU slices active on the pinged CPU.  With the
hardware workload probe, the 3.2 us preprocessing window hides the vCPU
switch and RTT matches the baseline; without it, DP resumption waits for
slice expiry and max RTT / mdev inflate severely (the paper: +203 % max,
+80 % mdev).
"""

from repro.core.config import TaiChiConfig
from repro.experiments.common import ratio, scaled_duration
from repro.experiments.registry import register
from repro.experiments.report import ExperimentResult
from repro.scenario import arm_knobs, arms_under_test, build
from repro.sim.units import MICROSECONDS, MILLISECONDS, SECONDS
from repro.workloads import run_ping
from repro.workloads.background import start_cp_background

#: Reference arm, Tai Chi, and the probe ablation (``run --arm`` overrides;
#: the derived ratios always compare the last arms against the first).
DEFAULT_ARMS = ("baseline", "taichi", "taichi-no-hw-probe")

_LABELS = {"taichi-no-hw-probe": "taichi w/o HW probe"}


@register("table5", "RTT across three mechanisms", "Table 5")
def run(scale=1.0, seed=0):
    arms = arms_under_test(DEFAULT_ARMS)
    duration = scaled_duration(2 * SECONDS, scale, floor_ns=300 * MILLISECONDS)
    rows = []
    for arm in arms:
        kwargs = {}
        if "taichi_config" in arm_knobs(arm):
            kwargs["taichi_config"] = TaiChiConfig(
                max_slice_ns=100 * MICROSECONDS)
        deployment = build(arm, seed=seed, **kwargs)
        start_cp_background(deployment, n_monitors=4, rolling_tasks=3)
        deployment.warmup()
        result = run_ping(deployment, duration)
        rows.append({
            "mechanism": _LABELS.get(arm, arm),
            "min_us": result["min_ns"] / MICROSECONDS,
            "avg_us": result["avg_ns"] / MICROSECONDS,
            "max_us": result["max_ns"] / MICROSECONDS,
            "mdev_us": result["mdev_ns"] / MICROSECONDS,
        })
    base = rows[0]
    if arms == DEFAULT_ARMS:
        taichi, noprobe = rows[1], rows[2]
        derived = {
            "taichi_avg_vs_baseline": ratio(taichi["avg_us"], base["avg_us"]),
            "noprobe_avg_vs_baseline": ratio(noprobe["avg_us"], base["avg_us"]),
            "noprobe_max_vs_baseline": ratio(noprobe["max_us"], base["max_us"]),
            "noprobe_mdev_vs_baseline": ratio(noprobe["mdev_us"], base["mdev_us"]),
        }
    else:
        derived = {
            f"{arm}_avg_vs_{arms[0]}": ratio(row["avg_us"], base["avg_us"])
            for arm, row in zip(arms[1:], rows[1:])
        }
    return ExperimentResult(
        exp_id="table5",
        title="Ping RTT: the hardware probe hides scheduling latency",
        paper_ref="Table 5",
        rows=rows,
        derived=derived,
        paper={
            "baseline_us": {"min": 26, "avg": 30, "max": 38, "mdev": 5},
            "taichi_us": {"min": 27, "avg": 30, "max": 38, "mdev": 5},
            "noprobe_us": {"min": 32, "avg": 37, "max": 115, "mdev": 9},
        },
    )
