"""Validation harness: run every experiment and check the paper's shape.

Each expectation is a *shape band*, not an absolute number — the substrate
is a simulator, so the reproduction targets who-wins / by-what-factor /
where-crossovers-fall.  ``EXPECTATIONS`` is the one place a band is
written; the tier-1 shape test and ``validate`` both score against it.
``write_experiments_md`` turns a validation run into the repository's
EXPERIMENTS.md.
"""

import time

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.fleet.pool import pool_outcomes
from repro.obs import observe


class Expectation:
    """One checkable claim about an experiment's result.

    ``check`` takes the whole ``ExperimentResult``: most bands read
    ``result.derived``, row bands look rows up by key (a missing row raises
    ``KeyError``, which scores as a failure).
    """

    def __init__(self, description, check):
        self.description = description
        self.check = check

    def evaluate(self, result):
        try:
            return bool(self.check(result))
        except (KeyError, TypeError, ZeroDivisionError):
            return False


def _rows_by(result, key):
    """Index ``result.rows`` by one column."""
    return {row[key]: row for row in result.rows}


def _rises(result, column):
    """True when ``column`` never falls from one row to the next."""
    values = [row[column] for row in result.rows]
    return values == sorted(values)


EXPECTATIONS = {
    "fig2": [
        Expectation("CP execution degrades >2.5x at density x4 (paper: 8x; "
                    ">4.5x at full scale, less at reduced storm sizes)",
                    lambda r: r.derived["cp_exec_degradation_at_x4"] > 2.5),
        Expectation("VM startup breaches its SLO at density x4 (paper: 3.1x)",
                    lambda r: r.derived["startup_vs_slo_at_x4"] > 1.0),
        Expectation("CP execution time rises monotonically with density",
                    lambda r: _rises(r, "cp_exec_vs_x1")),
        Expectation("VM startup vs SLO rises monotonically with density",
                    lambda r: _rises(r, "startup_vs_slo")),
    ],
    "fig3": [
        Expectation(">99% of DP utilization samples below 32.5% "
                    "(paper: ~99.7%)",
                    lambda r: 0.99 < r.derived["fraction_below_32.5pct"]
                    <= 1.0),
    ],
    "fig4": [
        Expectation("non-preemptible spike is orders of magnitude above "
                    "the clean wakeup path",
                    lambda r: r.derived["spike_vs_clean"] > 100),
    ],
    "fig5": [
        Expectation("94.5% of >1ms routines fall in 1-5ms",
                    lambda r: 0.93 < r.derived["fraction_1_to_5ms"] < 0.96),
        Expectation("maximum duration capped at 67 ms",
                    lambda r: r.derived["max_duration_ms"] <= 67),
    ],
    "fig6": [
        Expectation("3.2us preprocessing window exceeds the 2us switch",
                    lambda r: r.derived["window_hides_switch"]),
        Expectation("preprocessing window is the paper's 3.2us",
                    lambda r: r.derived["preprocessing_window_us"] == 3.2),
    ],
    "fig11": [
        Expectation("Tai Chi speedup at 32-way concurrency >1.8x (paper: 4x;"
                    " structural cap ~3x in this configuration)",
                    lambda r: r.derived["speedup_at_32"] > 1.8),
        Expectation("the gap grows with concurrency (speedup at 32 >= at 1)",
                    lambda r: _rows_by(r, "concurrency")[32]["speedup"]
                    >= _rows_by(r, "concurrency")[1]["speedup"]),
    ],
    "fig12": [
        Expectation("Tai Chi tcp_crr overhead <2% (paper: 0.2%)",
                    lambda r: abs(r.derived["taichi"]) < 2.0),
        Expectation("Tai Chi-vDP overhead 4-12% (paper: ~8%)",
                    lambda r: 4.0 < r.derived["taichi-vdp"] < 12.0),
        Expectation("type-2 overhead 15-30% (paper: ~26%)",
                    lambda r: 15.0 < r.derived["type2"] < 30.0),
    ],
    "fig13": [
        Expectation("Tai Chi IOPS overhead <2% (paper: 0.06%)",
                    lambda r: abs(r.derived["taichi"]) < 2.0),
        Expectation("Tai Chi-vDP overhead 4-12% (paper: ~6%)",
                    lambda r: 4.0 < r.derived["taichi-vdp"] < 12.0),
        Expectation("type-2 overhead 15-30% (paper: ~25.7%)",
                    lambda r: 15.0 < r.derived["type2"] < 30.0),
    ],
    "fig14": [
        Expectation("average DP overhead <3% (paper: 0.6%)",
                    lambda r: abs(r.derived["avg_overhead_pct"]) < 3.0),
    ],
    "fig15": [
        Expectation("average MySQL overhead <4% (paper: 1.56%)",
                    lambda r: abs(r.derived["avg_overhead_pct"]) < 4.0),
    ],
    "fig16": [
        Expectation("average Nginx overhead <4% (paper: 0.51%)",
                    lambda r: abs(r.derived["avg_overhead_pct"]) < 4.0),
    ],
    "fig17": [
        Expectation("Tai Chi reduces startup >2x at density x4 (paper: 3.1x)",
                    lambda r: r.derived["startup_reduction_at_x4"] > 2.0),
        Expectation("Tai Chi reduces startup at every density",
                    lambda r: all(row["reduction"] > 1.0 for row in r.rows)),
        Expectation("Tai Chi startup vs SLO below the baseline's at every "
                    "density",
                    lambda r: all(row["taichi_vs_slo"] < row["baseline_vs_slo"]
                                  for row in r.rows)),
    ],
    "table1": [
        Expectation("kernel co-scheduling preemption is ms-scale",
                    lambda r: r.derived["kernel_preemption_ms"] > 0.5),
        Expectation("Tai Chi preemption is us-scale",
                    lambda r: r.derived["taichi_preemption_us_p50"] < 100),
    ],
    "table2": [
        Expectation("Tai Chi runs a single OS",
                    lambda r: _rows_by(r, "architecture")
                    ["Tai Chi (hybrid)"]["os_count"] == 1),
        Expectation("type-2 runs two OSes",
                    lambda r: _rows_by(r, "architecture")
                    ["Type-2 (QEMU+KVM)"]["os_count"] == 2),
        Expectation("Tai Chi keeps native DP-CP IPC",
                    lambda r: _rows_by(r, "architecture")
                    ["Tai Chi (hybrid)"]["dp_cp_ipc"] == "Native"),
        Expectation("Tai Chi DP overhead is below type-2's",
                    lambda r: _rows_by(r, "architecture")
                    ["Tai Chi (hybrid)"]["dp_overhead_pct"]
                    < _rows_by(r, "architecture")
                    ["Type-2 (QEMU+KVM)"]["dp_overhead_pct"]),
    ],
    "table5": [
        Expectation("Tai Chi RTT within 5% of baseline",
                    lambda r: r.derived["taichi_avg_vs_baseline"] < 1.05),
        Expectation("w/o HW probe max RTT >2x baseline (paper: 3x)",
                    lambda r: r.derived["noprobe_max_vs_baseline"] > 2.0),
        Expectation("w/o HW probe mdev >2x baseline (paper: 1.8x)",
                    lambda r: r.derived["noprobe_mdev_vs_baseline"] > 2.0),
    ],
    "ext_dp_boost": [
        Expectation("IOPS gain >12% (paper: 39%; tracks our +25% CPU)",
                    lambda r: r.derived["iops_gain_pct"] > 12),
        Expectation("CPS gain >12% (paper: 43%)",
                    lambda r: r.derived["cps_gain_pct"] > 12),
    ],
    "ablation_threshold": [
        Expectation("adaptive harvests more than a fixed large threshold",
                    lambda r: r.derived["adaptive_harvested_ms"]
                    > r.derived["large_harvested_ms"]),
        Expectation("a fixed small threshold has >5% false positives",
                    lambda r: r.derived["small_false_positive_rate"] > 0.05),
    ],
    "ablation_slice": [
        Expectation("adaptive slices cut switch overhead >30% vs fixed",
                    lambda r: r.derived["adaptive_switch_overhead_pct"]
                    < r.derived["fixed_switch_overhead_pct"] * 0.7),
    ],
    "ext_preemptible_kernel": [
        Expectation("vCPU wrapping improves worst-case RT latency >2x",
                    lambda r: r.derived["max_latency_improvement"] > 2.0),
        Expectation("wrapped, the worst RT wakeup is sub-millisecond",
                    lambda r: _rows_by(r, "setup")
                    ["hog in a vCPU context (Tai Chi)"]["rt_wake_max_us"]
                    < 1000),
        Expectation("direct, the worst RT wakeup is ms-scale",
                    lambda r: _rows_by(r, "setup")
                    ["hog direct on the RT task's CPU"]["rt_wake_max_us"]
                    > 1000),
    ],
    "ext_audit": [
        Expectation("audit records captured with privileged flags",
                    lambda r: r.derived["records"] > 5),
        Expectation("privileged instructions are 10-90% of the records",
                    lambda r: 0.1 < r.derived["privileged_fraction"] < 0.9),
    ],
    "ext_probe_fusion": [
        Expectation("fusion lowers premature-exit rate",
                    lambda r: r.derived["premature_rate_fused"]
                    < r.derived["premature_rate_plain"]),
        Expectation("fusion avoids some premature exits",
                    lambda r: r.derived["premature_exits_avoided"] > 0),
    ],
    "ext_cache_isolation": [
        Expectation("pollution overhead >2% and removed by isolation",
                    lambda r: r.derived["pollution_overhead_pct"] > 2.0),
    ],
    "ext_window_sweep": [
        Expectation("windows covering the switch cost add <0.5us queue wait",
                    lambda r: r.derived["worst_added_qwait_covered_us"] < 0.5),
        Expectation("windows below the switch cost leak latency",
                    lambda r: r.derived["worst_added_qwait_uncovered_us"]
                    > r.derived["worst_added_qwait_covered_us"]),
    ],
    "ext_fault_resilience": [
        Expectation("degradation improves DP p99 under the fault storm",
                    lambda r: r.derived["dp_p99_improvement"] > 1.0),
        Expectation("degradation holds startup compliance at or above bare",
                    lambda r: r.derived["startup_compliance_gain_pct"] >= 0),
        Expectation("faults were injected and the layer responded",
                    lambda r: r.derived["faults_injected"] > 0
                    and r.derived["degradation_responses"] > 0),
    ],
    "ext_fleet_scale": [
        Expectation("Tai Chi beats static on fleet-wide DP p99",
                    lambda r: r.derived["fleet_dp_p99_improvement"] > 1.0),
        Expectation("Tai Chi beats static on fleet DP SLO attainment",
                    lambda r: r.derived["taichi_dp_slo_pct"]
                    > r.derived["static_dp_slo_pct"]),
        Expectation("Tai Chi beats static on VM-startup SLO attainment",
                    lambda r: r.derived["taichi_startup_slo_pct"]
                    > r.derived["static_startup_slo_pct"]),
    ],
    "ext_fleet_durability": [
        Expectation("fleet completes degraded with partial coverage",
                    lambda r: r.derived["degraded"]
                    and 0.0 < r.derived["coverage_fraction"] < 1.0),
        Expectation("only the permanent failer lands in failed_nodes",
                    lambda r: r.derived["failed_nodes"] == 1
                    and r.derived["permanent_contained"]),
        Expectation("the transient node recovers via retry",
                    lambda r: r.derived["transient_recovered"]
                    and r.derived["transient_attempts"] == 2),
        Expectation("a retried success is byte-identical to first-try",
                    lambda r: r.derived["retry_summary_identical"]),
        Expectation("resume reproduces the uninterrupted report exactly",
                    lambda r: r.derived["resume_identical"]
                    and r.derived["resumed_nodes"] > 0),
    ],
    "ext_multitenant": [
        Expectation("isolation-on holds the victim's declared DP p99 SLO "
                    "under the neighbor storm",
                    lambda r: r.derived["victim_dp_p99_on_us"] <= 300.0),
        Expectation("isolation-off demonstrably breaches the same bound",
                    lambda r: r.derived["victim_dp_p99_off_us"] > 300.0),
        Expectation("cross-tenant interference >1.5x on victim DP p99",
                    lambda r: r.derived["interference_ratio"] > 1.5),
        Expectation("victim DP SLO attainment >=98% with isolation on",
                    lambda r: r.derived["victim_dp_slo_on_pct"] >= 98.0),
        Expectation("isolation-off costs the victim >=2pp DP attainment",
                    lambda r: r.derived["victim_dp_slo_off_pct"]
                    <= r.derived["victim_dp_slo_on_pct"] - 2.0),
        Expectation("victim startup SLO attainment >=90% with isolation on",
                    lambda r: r.derived["victim_startup_on_pct"] >= 90.0),
        Expectation("isolation invariants verify clean under the storm",
                    lambda r:
                    r.derived["isolation_invariant_violations"] == 0),
        Expectation("harvesting starts neighbor VMs the static partition "
                    "cannot",
                    lambda r: r.derived["noisy_vms_on"]
                    > r.derived["noisy_vms_static"]),
    ],
    "ext_production_soak": [
        Expectation("Tai Chi adds no DP tail latency (p999 within 10% of "
                    "the static baseline)",
                    lambda r: r.derived["dp_p999_vs_baseline"] < 1.10),
        Expectation("Tai Chi startup compliance at or above the baseline",
                    lambda r: r.derived["taichi_startup_compliance_pct"]
                    >= r.derived["static_startup_compliance_pct"]),
        Expectation("startups are faster under Tai Chi",
                    lambda r: r.derived["startup_speedup"] > 1.0),
    ],
}


def _validate_one(payload):
    """Pool worker: run one experiment and score its expectations.

    Expectations are evaluated in-worker (the check lambdas don't pickle,
    so the parent can't ship ``Expectation`` objects — only the resulting
    ``(description, ok)`` pairs cross the process boundary).
    """
    exp_id, scale, seed = payload
    started = time.time()
    with observe() as session:
        result = run_experiment(exp_id, scale=scale, seed=seed)
        result.metrics.update(_engine_metrics(session.metrics))
    checks = [
        (expectation.description, expectation.evaluate(result))
        for expectation in EXPECTATIONS.get(exp_id, [])
    ]
    return {
        "id": exp_id,
        "result": result,
        "checks": checks,
        "elapsed_s": time.time() - started,
    }


def _passed(outcome):
    return all(ok for _, ok in outcome["checks"])


def run_validation(scale=1.0, seed=0, exp_ids=None, progress=None, jobs=1):
    """Run experiments and evaluate expectations.

    Returns a list of dicts: {id, result, checks: [(description, ok)],
    elapsed_s}, in ``exp_ids`` order.  Experiments fan out through
    :func:`~repro.fleet.pool.pool_outcomes`: ``jobs > 1`` uses a process
    pool and ``jobs=1`` runs each experiment in this process.  Progress
    lines print as experiments finish, which with ``jobs > 1`` is
    completion order.  An experiment that raises does not stop the
    others; once all have run, a ``RuntimeError`` names each failed id
    and its error.
    """
    exp_ids = sorted(EXPERIMENTS) if exp_ids is None else list(exp_ids)
    payloads = [(exp_id, scale, seed) for exp_id in exp_ids]

    def _progress(outcome):
        if progress is None:
            return
        if not outcome.ok:
            progress(f"[ERR ] {outcome.label}: {outcome.failure['error']}")
            return
        status = "OK " if _passed(outcome.value) else "FAIL"
        progress(f"[{status}] {outcome.label} "
                 f"({outcome.value['elapsed_s']:.1f}s)")

    outcomes = pool_outcomes(_validate_one, payloads, jobs=jobs,
                             label=lambda payload: payload[0],
                             on_outcome=_progress)
    errors = [f"{outcome.label}: {outcome.failure['error']}"
              for outcome in outcomes if not outcome.ok]
    if errors:
        raise RuntimeError(f"{len(errors)} experiment(s) raised: "
                           + "; ".join(errors))
    return [outcome.value for outcome in outcomes]


def _engine_metrics(registry):
    """Sum DES self-profiling across every environment an experiment built.

    Only simulated counts are kept (no wall time), so the report's bytes do
    not depend on the host.
    """
    sources = registry.snapshot()["sources"]
    profiles = [value for name, value in sources.items()
                if name.split("#")[0] == "sim.engine"]
    if not profiles:
        return {}
    return {
        "engine_environments": len(profiles),
        "engine_events": sum(p["events_processed"] for p in profiles),
        "engine_events_skipped": sum(p.get("events_skipped", 0)
                                     for p in profiles),
        "engine_fast_forward_windows": sum(p.get("fast_forward_windows", 0)
                                           for p in profiles),
        "engine_heap_peak": max(p["heap_peak"] for p in profiles),
    }


def profile_scheduling(exp_id="fig4", scale=1.0, seed=0):
    """Run one experiment and profile its scheduling behaviour.

    Reruns ``exp_id`` under a session whose inline pass checks the
    invariants and profiles every stream in one go, retaining no trace.
    Returns ``{"exp_id", "streams", "violations"}`` — the data behind
    EXPERIMENTS.md's scheduling-latency profile section.
    """
    with observe(check_invariants=True) as session:
        run_experiment(exp_id, scale=scale, seed=seed)
        violations = session.violations()
    streams = {label: engine.report()
               for label, engine in session.invariant_engines}
    return {"exp_id": exp_id, "streams": streams, "violations": violations}


def _profile_md_lines(profile):
    """Render a ``profile_scheduling`` result as EXPERIMENTS.md lines."""
    from repro.obs.analysis import format_stream_report

    violations = profile["violations"]
    lines = [
        f"## Scheduling-latency profile ({profile['exp_id']})",
        "",
        "One traced run, profiled by `repro.obs.analysis` (the same engine",
        "behind `taichi-experiments analyze`): wakeup latency, switch-cost",
        "accounting by exit reason, IPI latency, and preprocessing-window",
        "hit rates, with the causal-invariant catalog checked inline.",
        "",
        "```",
    ]
    for label, report in profile["streams"].items():
        if not report["events"]:
            continue
        lines.append(format_stream_report(label, report))
    lines.append("```")
    lines.append("")
    if violations:
        lines.append(f"**{len(violations)} invariant violation(s) detected:**")
        lines.append("")
        for label, violation in violations[:10]:
            lines.append(f"- `{label}`: {violation.checker}: "
                         f"{violation.message}")
    else:
        checker_count = _checker_count()
        lines.append(f"**Invariants: all {checker_count} checkers passed "
                     "(0 violations).**")
    lines.append("")
    return lines


def _resilience_md_lines(outcome):
    """Render the fault-resilience outcome as an EXPERIMENTS.md section."""
    result = outcome["result"]
    derived = result.derived
    rows = {row["system"]: row for row in result.rows}
    bare = rows.get("Tai Chi, degradation off", {})
    hardened = rows.get("Tai Chi, degradation on", {})
    verdict = ("**both SLOs held**" if _passed(outcome)
               else "**SLO regression under faults**")
    lines = [
        "## Resilience under fault injection",
        "",
        "The `ext_fault_resilience` experiment replays the default `storm`",
        "fault preset (lossy IPIs, a dark-then-lying hardware probe, CPU",
        "hotplug flaps, pipeline and poll-loop stalls) against the same",
        "production-style workload twice — with the graceful-degradation",
        "layer installed and bare.",
        "",
        f"- DP tail latency: p99 {bare.get('dp_p99_us', 0):.1f} us bare vs "
        f"{hardened.get('dp_p99_us', 0):.1f} us hardened "
        f"({derived.get('dp_p99_improvement', 0):.2f}x better with "
        "degradation on)",
        f"- VM-startup SLO compliance: "
        f"{derived.get('bare_startup_compliance_pct', 0):.1f}% bare vs "
        f"{derived.get('hardened_startup_compliance_pct', 0):.1f}% hardened "
        f"({derived.get('startup_compliance_gain_pct', 0):+.1f} points)",
        f"- {derived.get('faults_injected', 0)} faults injected, "
        f"{derived.get('degradation_responses', 0)} degradation responses "
        "(watchdog requeues, probe demotions, IPI retries, SLO-guard "
        "interventions)",
        f"- Verdict: {verdict}",
        "",
    ]
    return lines


def _multitenant_md_lines(outcome):
    """Render the multi-tenant outcome as an EXPERIMENTS.md section."""
    derived = outcome["result"].derived
    verdict = ("**isolation holds the victim's SLO that sharing breaches**"
               if _passed(outcome) else "**isolation contrast not shown**")
    lines = [
        "## Multi-tenant isolation",
        "",
        "The `ext_multitenant` experiment pools one board among a weight-4",
        "victim tenant (declared 300 us DP SLO) and three weight-1 noisy",
        "neighbors (spiky incast, heavy CP hum, dense VM storms) while the",
        "hardware probe is dark — the regime where a squatting neighbor",
        "vCPU strands rx traffic for a whole adaptive slice.",
        "",
        f"- Victim DP rx-wait p99: "
        f"{derived.get('victim_dp_p99_on_us', 0):.1f} us isolated vs "
        f"{derived.get('victim_dp_p99_off_us', 0):.1f} us shared "
        f"({derived.get('interference_ratio', 0):.2f}x interference)",
        f"- Victim DP SLO attainment: "
        f"{derived.get('victim_dp_slo_on_pct', 0):.1f}% isolated vs "
        f"{derived.get('victim_dp_slo_off_pct', 0):.1f}% shared",
        f"- Victim startup SLO attainment: "
        f"{derived.get('victim_startup_on_pct', 0):.1f}% isolated "
        f"({derived.get('victim_startup_static_pct', 0):.1f}% on the "
        "static partition)",
        f"- Neighbor VMs started: {derived.get('noisy_vms_on', 0)} under "
        f"Tai Chi vs {derived.get('noisy_vms_static', 0)} on the static "
        "partition",
        f"- Isolation invariant violations: "
        f"{derived.get('isolation_invariant_violations', 0)}",
        f"- Verdict: {verdict}",
        "",
    ]
    return lines


def _checker_count():
    from repro.obs.invariants import DEFAULT_CHECKERS

    return len(DEFAULT_CHECKERS)


def write_experiments_md(path, outcomes, scale, seed, profile=None):
    """Render a validation run as the repository's EXPERIMENTS.md."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.experiments validate "
        f"--scale {scale} --seed {seed} --out {path}`.",
        "",
        "Every table and figure of the paper's evaluation (plus the",
        "motivation figures, the Section 8/9 extensions, and two design",
        "ablations) is regenerated by the live simulation.  Absolute",
        "numbers differ from the paper — the substrate is a",
        "discrete-event simulator, not Alibaba's production fleet — so",
        "each experiment is judged on *shape*: who wins, by roughly what",
        "factor, and where the crossovers fall.",
        "",
    ]
    passed = sum(1 for outcome in outcomes if _passed(outcome))
    lines.append(f"**Shape checks: {passed}/{len(outcomes)} experiments "
                 "pass all their bands.**")
    lines.append("")
    for outcome in outcomes:
        result = outcome["result"]
        lines.append(f"## {outcome['id']} — {result.title}")
        lines.append("")
        lines.append(f"*Paper reference: {result.paper_ref}; "
                     f"scale {scale}.*")
        lines.append("")
        lines.append("```")
        lines.append(result.to_text())
        lines.append("```")
        lines.append("")
        lines.append("Shape checks:")
        lines.append("")
        for description, ok in outcome["checks"]:
            marker = "x" if ok else " "
            lines.append(f"- [{marker}] {description}")
        lines.append("")
    for outcome in outcomes:
        if outcome["id"] == "ext_fault_resilience":
            lines.extend(_resilience_md_lines(outcome))
            break
    for outcome in outcomes:
        if outcome["id"] == "ext_multitenant":
            lines.extend(_multitenant_md_lines(outcome))
            break
    if profile is not None:
        lines.extend(_profile_md_lines(profile))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return path
