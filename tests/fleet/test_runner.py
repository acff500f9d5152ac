"""FleetRunner: seeds, captures, floors, telemetry, spans, node scoring."""

import json
import os

import pytest

from repro.fleet import (
    FleetRunner,
    FleetSpec,
    canonical_report,
    fleet_markdown,
    format_fleet_text,
    run_node,
    uniform_spec,
    write_fleet_json,
)
from repro.fleet.node import node_seed
from repro.sim.rng import derive_seed


def _tiny_spec(n_nodes=2, **kwargs):
    kwargs.setdefault("duration_ms", 40.0)
    kwargs.setdefault("drain_ms", 20.0)
    return uniform_spec("tiny", "taichi", n_nodes, **kwargs)


def _canonical_json(report):
    return json.dumps(canonical_report(report), sort_keys=True)


def test_node_seeds_derived_from_root():
    spec = _tiny_spec()
    report = FleetRunner(spec, jobs=1, scale=0.5).run()
    for node in report["nodes"]:
        assert node["seed"] == derive_seed(spec.seed, "fleet-node",
                                           node["node_id"])
    assert node_seed(0, "node-00") != node_seed(1, "node-00")


def test_seed_changes_results():
    spec = _tiny_spec()
    a = FleetRunner(spec, jobs=1, scale=0.5).run()
    b = FleetRunner(spec.with_seed(1), jobs=1, scale=0.5).run()
    assert _canonical_json(a) != _canonical_json(b)


def test_duration_floors():
    spec = _tiny_spec()
    payloads = FleetRunner(spec, jobs=1, scale=1e-6).payloads()
    assert payloads[0]["duration_ns"] == 30_000_000
    assert payloads[0]["drain_ns"] == 20_000_000


def test_rejects_bad_scale():
    with pytest.raises(ValueError, match="scale must be positive"):
        FleetRunner(_tiny_spec(), scale=0)


def test_capture_dir_feeds_analyzer(tmp_path):
    from repro.obs.analysis import analyze_capture

    capture_dir = os.path.join(tmp_path, "caps")
    spec = _tiny_spec()
    report = FleetRunner(spec, jobs=1, scale=1.0,
                         capture_dir=capture_dir,
                         check_invariants=True).run()
    assert report["aggregate"]["fleet"]["invariants_ok"]
    for node in report["nodes"]:
        path = os.path.join(capture_dir, f"{node['node_id']}.jsonl")
        assert node["capture_path"] == path
        analysis = analyze_capture(path)
        assert not analysis["violations"]
        assert any(stream["events"]
                   for stream in analysis["streams"].values())


def test_faulted_node_reports_injections():
    # rack-05 rides out a probe outage behind the degradation layer.
    rack = FleetSpec.preset("rack")
    node = next(n for n in rack.nodes if n.scenario.faults is not None)
    payload = {
        "node": node.to_dict(),
        "root_seed": 0,
        "duration_ns": 40_000_000,
        "drain_ns": 20_000_000,
        "dp_slo_us": 300.0,
        "fault_scale": 0.1,
    }
    summary = run_node(payload)
    assert summary["faults"]["injected"] > 0


def test_summary_has_no_wall_clock():
    summary = run_node({
        "node": {"node_id": "n0"},
        "root_seed": 0,
        "duration_ns": 30_000_000,
        "drain_ns": 20_000_000,
        "dp_slo_us": 300.0,
    })
    flat = json.dumps(summary)
    assert "wall_time" not in flat
    assert summary["metrics"]["engine_events"] > 0


def test_reports_render(tmp_path):
    report = FleetRunner(_tiny_spec(), jobs=1, scale=1.0).run()
    text = format_fleet_text(report)
    assert "fleet-wide" in text
    assert "node-00" in text
    md = fleet_markdown(report)
    assert md.startswith("# Fleet report")
    json_path = os.path.join(tmp_path, "fleet.json")
    write_fleet_json(json_path, report)
    with open(json_path) as handle:
        doc = json.load(handle)
    assert "timing" not in doc
    assert doc["aggregate"]["fleet"]["nodes"] == 2


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel speedup needs >1 CPU")
def test_parallel_is_faster_on_multicore():
    spec = _tiny_spec(n_nodes=4, duration_ms=120.0, drain_ms=40.0)
    serial = FleetRunner(spec, jobs=1).run()
    parallel = FleetRunner(spec, jobs=4).run()
    assert parallel["timing"]["wall_s"] < serial["timing"]["wall_s"] * 0.9


# -- telemetry + sketch shipping -----------------------------------------------


def test_nodes_ship_sketches_not_raw_arrays_by_default():
    report = FleetRunner(_tiny_spec(), jobs=1, scale=0.5).run()
    for node in report["nodes"]:
        assert "dp_sketch" in node
        assert "startup_sketch" in node
        assert "dp_samples_us" not in node
        assert "startup_samples_ms" not in node
    assert "dp_sketch" in report["aggregate"]["fleet"]


def test_fleet_quantiles_bracket_raw_order_statistics():
    # The acceptance bound: each merged-sketch quantile must land within
    # the documented relative error of the pooled raw order statistics.
    # Nodes ship only sketches, so the raw pool comes from re-running
    # each node's payload as a plain soak, which keeps the arrays.
    import math

    from repro.fleet import NodeSpec
    from repro.metrics.sketch import DEFAULT_ALPHA
    from repro.scenario import run_soak

    runner = FleetRunner(FleetSpec.preset("rack").subset(3), jobs=1,
                         scale=0.1)
    report = runner.run()
    pool = []
    for payload in runner.payloads():
        node = NodeSpec.from_dict(payload["node"])
        pool.extend(run_soak(
            node.scenario, seed=node_seed(payload["root_seed"], node.node_id),
            duration_ns=payload["duration_ns"], drain_ns=payload["drain_ns"],
            dp_slo_us=payload["dp_slo_us"],
            fault_scale=payload["fault_scale"],
            label=node.node_id)["dp_samples_us"])
    pool.sort()
    # The re-run soaks drew exactly the samples the fleet's nodes drew.
    assert pool
    assert len(pool) == sum(node["dp_sample_count"]
                            for node in report["nodes"])
    fleet = report["aggregate"]["fleet"]["dp_latency_us"]
    for q in (50, 90, 99):
        rank = q / 100.0 * (len(pool) - 1)
        lower = pool[math.floor(rank)]
        upper = pool[math.ceil(rank)]
        estimate = fleet[f"p{q}"]
        assert lower * (1 - DEFAULT_ALPHA) - 1e-9 <= estimate
        assert estimate <= upper * (1 + DEFAULT_ALPHA) + 1e-9


def test_telemetry_dir_writes_per_node_and_merged(tmp_path):
    from repro.fleet import load_fleet_telemetry, load_merged_series
    from repro.obs.telemetry import parse_openmetrics

    telemetry_dir = os.path.join(tmp_path, "telemetry")
    report = FleetRunner(_tiny_spec(), jobs=1, scale=0.5,
                         telemetry_dir=telemetry_dir).run()
    assert report["telemetry_dir"] == telemetry_dir

    by_node = load_fleet_telemetry(telemetry_dir)
    assert sorted(by_node) == [node["node_id"] for node in report["nodes"]]
    for snapshots, meta in by_node.values():
        assert snapshots
        assert meta["stream_type"] == "telemetry"

    merged = load_merged_series(telemetry_dir)
    assert merged
    first = merged[0]
    assert first["stream"] == "fleet"
    assert "rq_depth" in first["gauges"]
    assert first["gauges"]["rq_depth"]["nodes"] == 2

    with open(os.path.join(telemetry_dir, "fleet.openmetrics")) as handle:
        samples = parse_openmetrics(handle.read())
    assert any(name.startswith("taichi_") for name in samples)


def test_top_renders_fleet_health(tmp_path):
    from repro.fleet import render_top

    telemetry_dir = os.path.join(tmp_path, "telemetry")
    spec = _tiny_spec()
    FleetRunner(spec, jobs=1, scale=0.5, telemetry_dir=telemetry_dir).run()
    text = render_top(telemetry_dir)
    for node in spec.nodes:
        assert node.node_id in text
    assert "dp p99" in text

    # Also renders straight from a fleet JSON report.
    json_path = os.path.join(tmp_path, "fleet.json")
    report = FleetRunner(spec, jobs=1, scale=0.5).run()
    write_fleet_json(json_path, report)
    assert spec.nodes[0].node_id in render_top(json_path)


# -- causal spans across the fleet ---------------------------------------------


def test_spans_fleet_byte_identical_across_jobs():
    spec = _tiny_spec(n_nodes=2)
    spec.spans = True
    serial = FleetRunner(spec, jobs=1, scale=1.0).run()
    parallel = FleetRunner(spec, jobs=2, scale=1.0).run()
    assert _canonical_json(serial) == _canonical_json(parallel)


def test_spans_fleet_pools_worst_requests():
    spec = _tiny_spec(n_nodes=2)
    spec.spans = True
    report = FleetRunner(spec, jobs=1, scale=1.0).run()

    for node in report["nodes"]:
        assert "exemplars" in node
        assert node["spans"]["completed"] > 0
    worst = report["aggregate"]["worst_requests"]
    assert "dp" in worst
    node_ids = {node.node_id for node in spec.nodes}
    durations = [entry["duration_ns"] for entry in worst["dp"]]
    assert durations == sorted(durations, reverse=True)
    for entry in worst["dp"]:
        assert entry["node_id"] in node_ids
        assert entry["dominant"] in entry["segments"]
        assert sum(entry["segments"].values()) == entry["duration_ns"]


def test_spans_off_fleet_report_has_no_span_keys():
    spec = _tiny_spec(n_nodes=1)
    report = FleetRunner(spec, jobs=1, scale=1.0).run()
    assert "worst_requests" not in report["aggregate"]
    assert "exemplars" not in report["nodes"][0]
    assert "spans" not in report["spec"]


def test_top_renders_worst_requests_from_fleet_json(tmp_path):
    # Satellite contract: `top` against a fleet --json report alone (no
    # --telemetry-dir anywhere) renders the pooled worst-request table.
    from repro.fleet import render_top

    spec = _tiny_spec(n_nodes=2)
    spec.spans = True
    report = FleetRunner(spec, jobs=1, scale=1.0).run()
    json_path = os.path.join(tmp_path, "fleet.json")
    write_fleet_json(json_path, report)
    text = render_top(json_path)
    assert "worst requests" in text
    worst = report["aggregate"]["worst_requests"]["dp"][0]
    assert worst["request"] in text
    assert worst["node_id"] in text


def test_payloads_are_pure(tmp_path):
    # Building payloads must not create capture/telemetry dirs; only
    # run() touches the filesystem.
    capture_dir = str(tmp_path / "captures")
    telemetry_dir = str(tmp_path / "telemetry")
    runner = FleetRunner(_tiny_spec(), scale=0.5, capture_dir=capture_dir,
                         telemetry_dir=telemetry_dir)
    payloads = runner.payloads()
    assert payloads[0]["capture_path"].startswith(capture_dir)
    assert not os.path.exists(capture_dir)
    assert not os.path.exists(telemetry_dir)
    runner.run()
    assert os.path.isdir(capture_dir)
    assert os.path.isdir(telemetry_dir)
