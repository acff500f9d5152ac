"""CLI surface of the scenario layer: run --arm and the soak subcommand."""

import json
import os

import pytest

from repro.experiments.cli import main
from repro.scenario import Scenario
from repro.scenario.session import current_arms


def test_run_with_arm_override(capsys):
    assert main(["run", "fig12", "--scale", "0.05",
                 "--arm", "baseline,taichi"]) == 0
    out = capsys.readouterr().out
    assert "arm override: baseline, taichi" in out
    assert "baseline" in out
    assert "taichi" in out
    # fig12's default third/fourth arms were overridden away: taichi-vdp
    # survives only in the static paper-reference block, not as a
    # measured row or derived metric.
    assert out.count("taichi-vdp") == 1
    # The override does not leak past the CLI invocation.
    assert current_arms() is None


def test_run_rejects_unknown_arm():
    with pytest.raises(ValueError, match="unknown arm"):
        main(["run", "fig12", "--scale", "0.05", "--arm", "warpdrive"])


def test_soak_with_arm_name(capsys):
    assert main(["soak", "taichi", "--scale", "0.1", "--duration-ms", "300",
                 "--drain-ms", "100"]) == 0
    out = capsys.readouterr().out
    assert "scenario: arm=taichi" in out
    assert "dp probes:" in out
    assert "vm startups:" in out


def test_soak_from_scenario_json(tmp_path, capsys):
    scenario_path = os.path.join(tmp_path, "scenario.json")
    Scenario(arm="baseline", traffic="steady", tenants=[
        {"tenant_id": "gold", "weight": 3.0},
        {"tenant_id": "bronze", "traffic": "spiky"}]).to_json(scenario_path)
    summary_path = os.path.join(tmp_path, "summary.json")
    assert main(["soak", scenario_path, "--scale", "0.1",
                 "--duration-ms", "300", "--drain-ms", "100",
                 "--check-invariants", "--json", summary_path]) == 0
    out = capsys.readouterr().out
    assert "scenario: arm=baseline traffic=steady" in out
    with open(summary_path) as handle:
        summary = json.load(handle)
    assert summary["deployment"] == "baseline"
    assert summary["dp_sample_count"] > 0


def test_soak_faulted_scenario_reports_faults(tmp_path, capsys):
    scenario_path = os.path.join(tmp_path, "faulted.json")
    Scenario(arm="taichi", faults="probe_outage",
             degradation=True).to_json(scenario_path)
    assert main(["soak", scenario_path, "--duration-ms", "40",
                 "--drain-ms", "15"]) == 0
    out = capsys.readouterr().out
    assert "faults=probe_outage" in out
    assert "injected" in out
