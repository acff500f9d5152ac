"""Tests for the experiments CLI."""

import os

import pytest

from repro.experiments.cli import main


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("fig11", "table5", "ext_dp_boost", "ablation_slice"):
        assert exp_id in out


def test_run_single_experiment(capsys):
    assert main(["run", "fig6", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out
    assert "preprocessing_window_us" in out


def test_run_writes_out_file(tmp_path, capsys):
    out_path = os.path.join(tmp_path, "report.txt")
    assert main(["run", "fig3", "--scale", "0.1", "--out", out_path]) == 0
    capsys.readouterr()
    with open(out_path) as handle:
        assert "fig3" in handle.read()


def test_run_unknown_experiment_raises():
    with pytest.raises(KeyError):
        main(["run", "fig999"])


def test_validate_subset(capsys):
    assert main(["validate", "--scale", "0.1", "--only", "fig3,fig6"]) == 0
    out = capsys.readouterr().out
    assert "[OK ] fig3" in out
    assert "[OK ] fig6" in out
    assert "pass their shape checks" in out


def test_validate_writes_markdown(tmp_path, capsys):
    out_path = os.path.join(tmp_path, "EXP.md")
    assert main(["validate", "--scale", "0.1", "--only", "fig6",
                 "--out", out_path]) == 0
    out = capsys.readouterr().out
    assert "latency profile (fig4): 0 invariant violations" in out
    with open(out_path) as handle:
        text = handle.read()
    assert "# EXPERIMENTS" in text
    assert "fig6" in text
    assert "Scheduling-latency profile" in text
    assert "wakeup" in text


def test_seed_changes_are_accepted(capsys):
    assert main(["run", "fig3", "--scale", "0.1", "--seed", "7"]) == 0
    capsys.readouterr()


def test_run_with_trace_and_metrics_exports(tmp_path, capsys):
    import json

    trace_path = os.path.join(tmp_path, "t.json")
    jsonl_path = os.path.join(tmp_path, "t.jsonl")
    metrics_path = os.path.join(tmp_path, "m.json")
    assert main(["run", "fig4", "--trace", trace_path,
                 "--jsonl", jsonl_path, "--metrics", metrics_path]) == 0
    out = capsys.readouterr().out
    assert "wrote Chrome trace" in out
    assert "sim.engine" in out  # metrics summary echoed to the terminal

    with open(trace_path) as handle:
        doc = json.load(handle)
    kinds = {event["name"] for event in doc["traceEvents"]}
    assert "vcpu v0" in kinds          # vmenter/vmexit became virt slices
    assert "ipi_route" in kinds
    phases = {event["ph"] for event in doc["traceEvents"]}
    assert {"M", "X", "i", "C"} <= phases

    with open(jsonl_path) as handle:
        lines = [json.loads(line) for line in handle]
    assert any(line["kind"] == "vmenter" for line in lines)

    with open(metrics_path) as handle:
        metrics = json.load(handle)
    engine_sources = [name for name in metrics["sources"]
                      if name.split("#")[0] == "sim.engine"]
    assert engine_sources
    first = metrics["sources"][engine_sources[0]]
    assert first["events_processed"] > 0
    assert "events_per_wall_s" in first


def test_run_check_invariants_clean(capsys):
    assert main(["run", "fig4", "--scale", "0.2", "--check-invariants"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed (0 violations)" in out


def test_analyze_capture_roundtrip(tmp_path, capsys):
    import json

    jsonl_path = os.path.join(tmp_path, "t.jsonl")
    json_path = os.path.join(tmp_path, "analysis.json")
    assert main(["run", "fig4", "--jsonl", jsonl_path,
                 "--check-invariants"]) == 0
    capsys.readouterr()

    assert main(["analyze", jsonl_path, "--json", json_path]) == 0
    out = capsys.readouterr().out
    assert "wakeup->sched_in latency" in out
    assert "switch cost" in out
    assert "all checks passed (0 violations)" in out

    with open(json_path) as handle:
        doc = json.load(handle)
    assert not doc["violations"]
    virt = [report for report in doc["streams"].values()
            if report["switch_cost_ns"]["count"]]
    assert virt
    # Every vmexit->vmenter transition costs vmexit_ns + vmenter_ns = 2 us.
    assert virt[0]["switch_cost_ns"]["max"] == pytest.approx(2000)


def test_run_with_faults_plan_and_analyze(tmp_path, capsys):
    from repro.faults import FaultPlan, FaultSpec
    from repro.sim import MILLISECONDS

    plan = FaultPlan(name="cli-mini", faults=[
        FaultSpec("probe_outage", at_ns=15 * MILLISECONDS,
                  duration_ns=10 * MILLISECONDS),
        FaultSpec("cpu_offline", at_ns=20 * MILLISECONDS,
                  duration_ns=5 * MILLISECONDS, params={"cpu": "cp"}),
    ])
    plan_path = os.path.join(tmp_path, "plan.json")
    plan.to_json(plan_path)
    jsonl_path = os.path.join(tmp_path, "faulted.jsonl")

    assert main(["run", "fig14", "--scale", "0.2", "--faults", plan_path,
                 "--jsonl", jsonl_path, "--check-invariants"]) == 0
    out = capsys.readouterr().out
    assert "fault injection: plan 'cli-mini'" in out
    assert "all checks passed (0 violations)" in out

    # The capture carries the fault events; analyze accounts for them and
    # the fault-aware checkers accept the perturbed stream.
    assert main(["analyze", jsonl_path]) == 0
    out = capsys.readouterr().out
    assert "faults:" in out
    assert "all checks passed (0 violations)" in out


def test_run_with_unknown_faults_spec_is_rejected():
    with pytest.raises(ValueError, match="--faults expects"):
        main(["run", "fig14", "--scale", "0.1", "--faults", "nonsense"])


def test_validate_parallel_matches_serial_order(capsys, tmp_path):
    out_path = os.path.join(tmp_path, "EXPERIMENTS.md")
    assert main(["validate", "--scale", "0.1", "--jobs", "2",
                 "--only", "fig3,fig6", "--out", out_path]) == 0
    out = capsys.readouterr().out
    # Progress prints in completion order; the report keeps --only order.
    assert "[OK ] fig3" in out and "[OK ] fig6" in out
    with open(out_path) as handle:
        text = handle.read()
    assert text.index("## fig3") < text.index("## fig6")


def test_fleet_command_end_to_end(tmp_path, capsys):
    import json

    md_path = os.path.join(tmp_path, "fleet.md")
    json_path = os.path.join(tmp_path, "fleet.json")
    capture_dir = os.path.join(tmp_path, "caps")
    assert main(["fleet", "rack", "--nodes", "2", "--jobs", "2",
                 "--scale", "0.05", "--check-invariants",
                 "--out", md_path, "--json", json_path,
                 "--capture-dir", capture_dir]) == 0
    out = capsys.readouterr().out
    assert "fleet 'rack': 2 nodes" in out
    assert "dp SLO attainment" in out

    with open(md_path) as handle:
        assert "# Fleet report" in handle.read()
    with open(json_path) as handle:
        doc = json.load(handle)
    assert "timing" not in doc  # canonical report is deterministic
    assert doc["aggregate"]["fleet"]["invariants_ok"]
    captures = sorted(os.listdir(capture_dir))
    assert captures == ["rack-00.jsonl", "rack-01.jsonl"]

    # The capture directory feeds straight into the analyzer.
    analysis_path = os.path.join(tmp_path, "analysis.json")
    assert main(["analyze", capture_dir, "--json", analysis_path]) == 0
    out = capsys.readouterr().out
    assert "==== rack-00" in out
    assert "combined: 2 captures, 0 invariant violations" in out
    with open(analysis_path) as handle:
        combined = json.load(handle)
    assert set(combined) == {"rack-00", "rack-01"}
    assert not combined["rack-00"]["violations"]


def test_fleet_custom_spec_with_overrides(tmp_path, capsys):
    from repro.fleet import uniform_spec

    spec_path = os.path.join(tmp_path, "custom.json")
    uniform_spec("custom", "taichi", 3, duration_ms=40.0,
                 drain_ms=20.0).to_json(spec_path)
    assert main(["fleet", spec_path, "--nodes", "1", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "fleet 'custom': 1 nodes, seed 5" in out


def test_fleet_rejects_unknown_spec():
    with pytest.raises(ValueError, match="preset"):
        main(["fleet", "not-a-preset"])


def test_analyze_empty_directory(tmp_path, capsys):
    empty = os.path.join(tmp_path, "empty")
    os.makedirs(empty)
    assert main(["analyze", empty]) == 2
    assert "no JSONL captures found" in capsys.readouterr().err


def test_fleet_telemetry_dir_and_top(tmp_path, capsys):
    telemetry_dir = os.path.join(tmp_path, "telemetry")
    assert main(["fleet", "rack", "--nodes", "2", "--jobs", "1",
                 "--scale", "0.1", "--telemetry-dir", telemetry_dir,
                 "--telemetry-interval-ms", "5"]) == 0
    out = capsys.readouterr().out
    assert "telemetry" in out
    assert os.path.exists(os.path.join(telemetry_dir, "merged.jsonl"))
    assert os.path.exists(os.path.join(telemetry_dir, "fleet.openmetrics"))

    assert main(["top", telemetry_dir]) == 0
    top_out = capsys.readouterr().out
    assert "rack-00" in top_out
    assert "dp p99" in top_out


def test_top_reads_fleet_json(tmp_path, capsys):
    json_path = os.path.join(tmp_path, "fleet.json")
    assert main(["fleet", "rack", "--nodes", "2", "--jobs", "1",
                 "--scale", "0.1", "--json", json_path]) == 0
    capsys.readouterr()
    assert main(["top", json_path]) == 0
    assert "rack-00" in capsys.readouterr().out


def test_soak_spans_prints_worst_request(capsys):
    assert main(["soak", "taichi", "--duration-ms", "60",
                 "--drain-ms", "30", "--spans"]) == 0
    out = capsys.readouterr().out
    assert "requests traced" in out
    assert "dp worst request: pkt-" in out
    assert "dominated by" in out


def test_analyze_critical_path_and_trace_request(tmp_path, capsys):
    # One spans-on fleet capture drives analyze --critical-path (the CI
    # smoke flow) and the per-request waterfall view.
    capture_dir = os.path.join(tmp_path, "captures")
    assert main(["fleet", "rack", "--nodes", "1", "--jobs", "1",
                 "--scale", "0.1", "--spans",
                 "--capture-dir", capture_dir]) == 0
    capsys.readouterr()
    capture = os.path.join(capture_dir, "rack-00.jsonl")
    json_path = os.path.join(tmp_path, "analysis.json")

    assert main(["analyze", capture, "--critical-path",
                 "--json", json_path]) == 0
    out = capsys.readouterr().out
    assert "== channel 'dp'" in out
    assert "tail dominated by" in out
    assert "exemplar pkt-" in out

    import json as json_mod
    with open(json_path) as handle:
        payload = json_mod.load(handle)
    block = payload["critical_path"]["dp"]
    assert block["exemplars"]
    worst = block["exemplars"][0]["request"]

    assert main(["trace-request", capture, worst]) == 0
    waterfall = capsys.readouterr().out
    assert worst in waterfall
    assert "critical path:" in waterfall

    assert main(["trace-request", capture, "pkt-does-not-exist"]) == 2
    assert "not found" in capsys.readouterr().err


def test_fleet_spans_json_feeds_top_worst_requests(tmp_path, capsys):
    json_path = os.path.join(tmp_path, "fleet.json")
    assert main(["fleet", "rack", "--nodes", "2", "--jobs", "1",
                 "--scale", "0.1", "--spans", "--json", json_path]) == 0
    capsys.readouterr()
    assert main(["top", json_path]) == 0
    out = capsys.readouterr().out
    assert "worst requests" in out
    assert "dominant" in out
