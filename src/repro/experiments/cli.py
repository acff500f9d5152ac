"""Command-line interface for the experiment harness."""

import argparse
import json
import os
import sys
import time


def _expand_capture_paths(paths):
    """Expand directories to their sorted ``*.jsonl`` captures."""
    expanded = []
    for path in paths:
        if os.path.isdir(path):
            expanded.extend(sorted(
                os.path.join(path, name) for name in os.listdir(path)
                if name.endswith(".jsonl")))
        else:
            expanded.append(path)
    return expanded


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="taichi-experiments",
        description="Reproduce the Tai Chi paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("exp_id", help="experiment id, e.g. fig11, or 'all'")
    run_parser.add_argument("--scale", type=float, default=1.0,
                            help="duration/size scale factor (default 1.0)")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--out", default=None,
                            help="also append the report to this file")
    run_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="write a Chrome trace-event JSON file "
                                 "(open in Perfetto / chrome://tracing)")
    run_parser.add_argument("--jsonl", default=None, metavar="PATH",
                            help="write raw trace events as JSON lines")
    run_parser.add_argument("--metrics", default=None, metavar="PATH",
                            help="write a metrics-registry snapshot as JSON")
    run_parser.add_argument("--check-invariants", action="store_true",
                            help="verify causal invariants (IPI delivery, "
                                 "slice pairing, ...) inline during the run; "
                                 "exit 1 on any violation")
    run_parser.add_argument("--faults", default=None, metavar="SPEC",
                            help="inject faults into every deployment the "
                                 "experiment builds: a preset name (storm, "
                                 "ipi_storm, probe_outage) or a FaultPlan "
                                 "JSON file; scaled along with --scale")
    run_parser.add_argument("--arm", default=None, metavar="NAME[,NAME...]",
                            help="override the scheduler arms the experiment "
                                 "compares (registry names, e.g. "
                                 "baseline,taichi; reference arm first)")
    run_parser.add_argument("--spans", action="store_true",
                            help="emit causal request spans (span.begin/"
                                 "span.end) for VM startups and DP packets; "
                                 "analyze --critical-path and trace-request "
                                 "consume them from --jsonl captures")

    soak_parser = sub.add_parser(
        "soak",
        help="run the shared production-soak driver on one scenario "
             "(arm name or Scenario JSON path) and print its summary")
    soak_parser.add_argument(
        "scenario", help="arm name (taichi, baseline, ...) or a Scenario "
                         "JSON file")
    soak_parser.add_argument("--scale", type=float, default=1.0,
                             help="scale the soak duration and any fault "
                                  "plan (default 1.0)")
    soak_parser.add_argument("--seed", type=int, default=0)
    soak_parser.add_argument("--duration-ms", type=float, default=400.0,
                             help="soak window before drain (default 400)")
    soak_parser.add_argument("--drain-ms", type=float, default=200.0,
                             help="drain window for in-flight startups "
                                  "(default 200)")
    soak_parser.add_argument("--dp-slo-us", type=float, default=300.0,
                             help="DP probe latency SLO (default 300us)")
    soak_parser.add_argument("--json", default=None, metavar="PATH",
                             help="also write the full summary as JSON")
    soak_parser.add_argument("--spans", action="store_true",
                             help="trace causal request spans and report "
                                  "per-channel tail exemplars with "
                                  "critical-path attribution")
    soak_parser.add_argument("--check-invariants", action="store_true",
                             help="verify causal invariants inline (on "
                                  "multi-tenant scenarios this includes the "
                                  "isolation invariants and the summary's "
                                  "grant-ledger books); exit 1 on any "
                                  "violation")

    analyze_parser = sub.add_parser(
        "analyze",
        help="profile JSONL trace captures (scheduling latency, switch "
             "costs, IPI latency) and check causal invariants")
    analyze_parser.add_argument(
        "paths", nargs="+",
        help="JSONL captures from run --jsonl / fleet --capture-dir; "
             "directories expand to their *.jsonl files")
    analyze_parser.add_argument("--json", default=None, metavar="PATH",
                                help="also write the full report as JSON")
    analyze_parser.add_argument("--no-invariants", action="store_true",
                                help="skip the invariant checkers")
    analyze_parser.add_argument("--critical-path", action="store_true",
                                help="reconstruct span trees from the "
                                     "capture and report per-channel "
                                     "critical-path segment shares and "
                                     "tail exemplars (needs a --spans run)")

    trace_req_parser = sub.add_parser(
        "trace-request",
        help="render one request's span-tree waterfall (critical-path "
             "segments over time) from a JSONL capture")
    trace_req_parser.add_argument(
        "capture", help="JSONL capture from a --spans run")
    trace_req_parser.add_argument(
        "request_id", help="request id, e.g. pkt-182 or vm7 (analyze "
                           "--critical-path lists exemplar ids)")

    validate_parser = sub.add_parser(
        "validate", help="run all experiments and check the paper's shapes")
    validate_parser.add_argument("--scale", type=float, default=1.0)
    validate_parser.add_argument("--seed", type=int, default=0)
    validate_parser.add_argument("--jobs", type=int, default=1,
                                 help="experiments to run in parallel "
                                      "(default 1: serial)")
    validate_parser.add_argument("--out", default=None,
                                 help="write an EXPERIMENTS.md-style report")
    validate_parser.add_argument("--only", default=None,
                                 help="comma-separated experiment ids")

    fleet_parser = sub.add_parser(
        "fleet",
        help="simulate a multi-board fleet scenario across a process pool "
             "and report fleet-wide SLOs")
    fleet_parser.add_argument(
        "spec", help="preset name (rack, pod) or FleetSpec JSON path")
    fleet_parser.add_argument("--jobs", type=int, default=1,
                              help="node simulations to run in parallel")
    fleet_parser.add_argument("--scale", type=float, default=1.0,
                              help="scale per-node durations and fault "
                                   "plans (default 1.0)")
    fleet_parser.add_argument("--seed", type=int, default=None,
                              help="override the spec's root seed")
    fleet_parser.add_argument("--nodes", type=int, default=None, metavar="N",
                              help="simulate only the spec's first N nodes")
    fleet_parser.add_argument("--out", default=None, metavar="PATH",
                              help="write a markdown fleet report")
    fleet_parser.add_argument("--json", default=None, metavar="PATH",
                              help="write the canonical (deterministic) "
                                   "JSON report")
    fleet_parser.add_argument("--capture-dir", default=None, metavar="DIR",
                              help="write one JSONL trace capture per node "
                                   "(feed the directory to 'analyze')")
    fleet_parser.add_argument("--check-invariants", action="store_true",
                              help="check causal invariants on every node; "
                                   "exit 1 on any violation")
    fleet_parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                              help="write one interval snapshot series per "
                                   "node plus merged.jsonl and "
                                   "fleet.openmetrics")
    fleet_parser.add_argument("--telemetry-interval-ms", type=float,
                              default=None, metavar="MS",
                              help="override the spec's snapshot cadence")
    fleet_parser.add_argument("--spans", action="store_true",
                              help="trace causal request spans on every "
                                   "node; summaries carry tail exemplars "
                                   "and the aggregate a fleet-wide "
                                   "worst-request table ('top' renders it)")
    fleet_parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                              help="journal each node's outcome as it "
                                   "completes (atomic per-node JSON); an "
                                   "interrupted run continues with --resume")
    fleet_parser.add_argument("--resume", action="store_true",
                              help="skip nodes already journaled in "
                                   "--checkpoint-dir; the resumed run's "
                                   "final JSON is byte-identical to an "
                                   "uninterrupted one")
    fleet_parser.add_argument("--allow-failures", action="store_true",
                              help="exit 0 with a degraded report when "
                                   "nodes fail terminally (default: render "
                                   "the degraded report and exit 1)")
    fleet_parser.add_argument("--max-attempts", type=int, default=None,
                              metavar="N",
                              help="override the spec's retry policy: total "
                                   "attempts per node (1 = no retry)")
    fleet_parser.add_argument("--retry-backoff-s", type=float, default=None,
                              metavar="S",
                              help="override the retry backoff before the "
                                   "second attempt (doubles per attempt)")
    fleet_parser.add_argument("--node-timeout-s", type=float, default=None,
                              metavar="S",
                              help="per-attempt wall-clock budget per node "
                                   "(pooled runs only; a stuck worker is "
                                   "shed and the pool rebuilt)")

    top_parser = sub.add_parser(
        "top",
        help="render a fleet health table (per-node tail latency, SLO "
             "attainment, probe health, active alerts)")
    top_parser.add_argument(
        "source",
        help="a fleet --telemetry-dir directory or a fleet --json report")

    args = parser.parse_args(argv)

    if args.command == "analyze":
        from repro.obs.analysis import (
            analysis_to_json, analyze_capture, format_analysis,
            write_analysis_json,
        )

        paths = _expand_capture_paths(args.paths)
        if not paths:
            print("no JSONL captures found", file=sys.stderr)
            return 2
        check = not args.no_invariants

        def _critical_path(path, analysis):
            if not args.critical_path:
                return
            from repro.obs.analysis import critical_path_from_streams
            from repro.obs.spans import format_critical_path

            _trees, report = critical_path_from_streams(path)
            analysis["critical_path"] = report
            print(format_critical_path(report))

        if len(paths) == 1:
            analysis = analyze_capture(paths[0], check_invariants=check)
            print(format_analysis(analysis))
            _critical_path(paths[0], analysis)
            if args.json:
                write_analysis_json(args.json, analysis)
                print(f"wrote analysis report to {args.json}")
            return 1 if analysis["violations"] else 0
        analyses = {}
        total_violations = 0
        for path in paths:
            label = os.path.splitext(os.path.basename(path))[0]
            analysis = analyze_capture(path, check_invariants=check)
            analyses[label] = analysis
            total_violations += len(analysis["violations"])
            print(f"==== {label} ({path}) ====")
            print(format_analysis(analysis))
            _critical_path(path, analysis)
            print()
        print(f"combined: {len(paths)} captures, "
              f"{total_violations} invariant violations")
        if args.json:
            payload = {label: analysis_to_json(analysis)
                       for label, analysis in analyses.items()}
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"wrote combined analysis report to {args.json}")
        return 1 if total_violations else 0

    if args.command == "soak":
        from repro.scenario import load_scenario, run_soak
        from repro.sim.units import MILLISECONDS

        scenario = load_scenario(args.scenario)

        def _soak():
            return run_soak(
                scenario, seed=args.seed,
                duration_ns=int(args.duration_ms * args.scale
                                * MILLISECONDS),
                drain_ns=int(args.drain_ms * MILLISECONDS),
                dp_slo_us=args.dp_slo_us, fault_scale=args.scale,
                spans=args.spans)

        violations = []
        if args.check_invariants:
            from repro.obs import observe

            with observe(check_invariants=True) as session:
                summary = _soak()
            violations = session.violations()
        else:
            summary = _soak()
        print(f"scenario: arm={scenario.arm} traffic={scenario.traffic} "
              f"faults={scenario.faults or '-'}"
              + (f" tenants={len(scenario.tenants)}"
                 if scenario.tenants else ""))
        latency = summary["dp_latency_us"]
        print(f"dp probes: {summary['dp_sample_count']} "
              f"(p50 {latency.get('p50', 0.0):.1f} us, "
              f"p99 {latency.get('p99', 0.0):.1f} us, "
              f"p99.9 {latency.get('p99.9', 0.0):.1f} us); "
              f"SLO attainment {summary['dp_slo_attainment_pct']:.2f}% "
              f"at {summary['dp_slo_us']:.0f} us")
        print(f"vm startups: {summary['vms_started']}/"
              f"{summary['vms_requested']} started; "
              f"SLO attainment {summary['startup_slo_attainment_pct']:.2f}% "
              f"at {summary['startup_slo_ms']:.0f} ms")
        for tid, block in sorted((summary.get("tenants") or {}).items()):
            tenant_dp = block["dp_latency_us"]
            print(f"tenant {tid} (weight {block['weight']:g}): "
                  f"dp p99 {tenant_dp.get('p99', 0.0):.1f} us, "
                  f"dp SLO {block['dp_slo_attainment_pct']:.2f}%, "
                  f"startup SLO "
                  f"{block['startup_slo_attainment_pct']:.2f}%, "
                  f"granted {block['granted_ns'] / 1e6:.1f} ms")
        faults = summary["faults"]
        if faults["injected"]:
            print(f"faults: {faults['injected']} injected, "
                  f"{faults['cleared']} cleared")
        if args.spans:
            spans_info = summary["spans"]
            print(f"spans: {spans_info['completed']} requests traced, "
                  f"{spans_info['open']} open at end of run")
            for channel in sorted(summary["exemplars"]):
                records = summary["exemplars"][channel]
                if not records:
                    continue
                worst = records[0]
                print(f"  {channel} worst request: {worst['request']} "
                      f"{worst['duration_ns'] / 1e6:.3f} ms, dominated by "
                      f"{worst['dominant']} ({worst['dominant_pct']:.0f}%)")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(summary, handle, indent=2)
                handle.write("\n")
            print(f"wrote soak summary to {args.json}")
        if args.check_invariants:
            problems = []
            if summary.get("tenants"):
                from repro.tenancy import verify_tenant_summary

                problems = verify_tenant_summary(summary)
            if violations or problems:
                print(f"INVARIANT VIOLATIONS: "
                      f"{len(violations) + len(problems)}")
                for label, violation in violations[:20]:
                    print(f"  stream {label!r}:")
                    for row in str(violation).splitlines():
                        print(f"  {row}")
                for problem in problems:
                    print(f"  summary: {problem}")
                return 1
            print("invariants: all checks passed (0 violations)")
        return 0

    if args.command == "fleet":
        from repro.fleet import (
            FleetRunFailed, FleetRunner, format_fleet_text, load_fleet_spec,
            verify_fleet_report, write_fleet_json, write_fleet_md,
        )
        from repro.fleet.durability import retry_with

        spec = load_fleet_spec(args.spec)
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
        if args.nodes is not None:
            spec = spec.subset(args.nodes)
        if args.spans:
            spec.spans = True
        if args.telemetry_interval_ms is not None:
            spec.telemetry_interval_ms = args.telemetry_interval_ms
        retry = retry_with(spec.retry, max_attempts=args.max_attempts,
                           backoff_s=args.retry_backoff_s,
                           timeout_s=args.node_timeout_s)
        runner = FleetRunner(spec, jobs=args.jobs, scale=args.scale,
                             capture_dir=args.capture_dir,
                             check_invariants=args.check_invariants,
                             telemetry_dir=args.telemetry_dir,
                             retry=retry,
                             checkpoint_dir=args.checkpoint_dir,
                             resume=args.resume, allow_failures=True)
        report = runner.run()
        failed = (report["aggregate"].get("failed_nodes") or [])
        print(format_fleet_text(report))
        if args.out:
            write_fleet_md(args.out, report)
            print(f"wrote fleet report to {args.out}")
        if args.json:
            write_fleet_json(args.json, report)
            print(f"wrote canonical fleet JSON to {args.json}")
        if args.capture_dir:
            print(f"wrote per-node captures to {args.capture_dir}/")
        if args.telemetry_dir:
            print(f"wrote per-node telemetry, merged.jsonl and "
                  f"fleet.openmetrics to {args.telemetry_dir}/")
        if args.checkpoint_dir:
            print(f"journaled node outcomes to {args.checkpoint_dir}/ "
                  f"(resume with --resume)")
        if args.check_invariants:
            problems = verify_fleet_report(report)
            if problems:
                print("FLEET REPORT INCONSISTENT:")
                for problem in problems:
                    print(f"  {problem}")
                return 1
        if (args.check_invariants
                and not report["aggregate"]["fleet"]["invariants_ok"]):
            return 1
        if failed and not args.allow_failures:
            print(str(FleetRunFailed(failed, report)), file=sys.stderr)
            return 1
        return 0

    if args.command == "top":
        from repro.fleet.telemetry import render_top

        print(render_top(args.source))
        return 0

    if args.command == "trace-request":
        from repro.obs.analysis import find_request_tree
        from repro.obs.spans import format_waterfall

        tree = find_request_tree(args.capture, args.request_id)
        if tree is None:
            print(f"request {args.request_id!r} not found in "
                  f"{args.capture} (was the capture taken with --spans? "
                  f"analyze --critical-path lists exemplar ids)",
                  file=sys.stderr)
            return 2
        print(format_waterfall(tree))
        return 0

    # Import here so `--help` stays fast.
    from repro.experiments import EXPERIMENTS, run_experiment

    if args.command == "validate":
        from repro.experiments.validate import (
            profile_scheduling, run_validation, write_experiments_md,
        )

        exp_ids = args.only.split(",") if args.only else None
        outcomes = run_validation(scale=args.scale, seed=args.seed,
                                  exp_ids=exp_ids, progress=print,
                                  jobs=args.jobs)
        failures = [outcome["id"] for outcome in outcomes
                    if not all(ok for _, ok in outcome["checks"])]
        profile = profile_scheduling(scale=args.scale, seed=args.seed)
        n_violations = len(profile["violations"])
        status = "OK " if n_violations == 0 else "FAIL"
        print(f"[{status}] latency profile ({profile['exp_id']}): "
              f"{n_violations} invariant violations")
        if args.out:
            write_experiments_md(args.out, outcomes, args.scale, args.seed,
                                 profile=profile)
            print(f"wrote {args.out}")
        if n_violations:
            failures.append("latency-profile")
        if failures:
            print(f"shape-check failures: {failures}")
            return 1
        print(f"all {len(outcomes)} experiments pass their shape checks")
        return 0

    if args.command == "list":
        for exp_id in sorted(EXPERIMENTS):
            entry = EXPERIMENTS[exp_id]
            print(f"{exp_id:14s} {entry['paper_ref']:12s} {entry['title']}")
        return 0

    from repro.obs import (
        format_metrics, observe, write_chrome_trace, write_jsonl,
        write_metrics_json,
    )

    from repro.faults import active_fault_plan, load_plan
    from repro.scenario import arm_override, parse_arm_list

    fault_plan = None
    if args.faults:
        fault_plan = load_plan(args.faults).scaled(args.scale)
        print(f"fault injection: plan {fault_plan.name!r} "
              f"({len(fault_plan.faults)} faults, scale {args.scale})")

    arms = parse_arm_list(args.arm) if args.arm else None
    if arms:
        print(f"arm override: {', '.join(arms)}")

    tracing = args.trace is not None or args.jsonl is not None
    targets = sorted(EXPERIMENTS) if args.exp_id == "all" else [args.exp_id]
    reports = []
    with observe(trace=tracing,
                 check_invariants=args.check_invariants,
                 spans=args.spans) as session, \
            active_fault_plan(fault_plan), arm_override(arms):
        for exp_id in targets:
            started = time.time()
            result = run_experiment(exp_id, scale=args.scale, seed=args.seed)
            elapsed = time.time() - started
            text = result.to_text() + f"\n[{elapsed:.1f}s wall]"
            print(text)
            print()
            reports.append(text)
        if args.trace:
            write_chrome_trace(args.trace, session.streams)
            dropped = session.dropped_events()
            note = f" ({dropped} events dropped)" if dropped else ""
            print(f"wrote Chrome trace to {args.trace}{note}")
        if args.jsonl:
            write_jsonl(args.jsonl, session.streams)
            print(f"wrote trace events to {args.jsonl}")
        if args.metrics:
            write_metrics_json(args.metrics, session.metrics)
            print(f"wrote metrics snapshot to {args.metrics}")
            print()
            print(format_metrics(session.metrics.snapshot()))
    if args.out:
        with open(args.out, "a") as handle:
            handle.write("\n\n".join(reports) + "\n")
    if args.check_invariants:
        violations = session.violations()
        if violations:
            print(f"INVARIANT VIOLATIONS: {len(violations)}")
            for label, violation in violations[:20]:
                print(f"  stream {label!r}:")
                for row in str(violation).splitlines():
                    print(f"  {row}")
            if len(violations) > 20:
                print(f"  ... {len(violations) - 20} more")
            return 1
        print("invariants: all checks passed (0 violations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
