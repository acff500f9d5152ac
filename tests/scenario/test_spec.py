"""Scenario validation, JSON round-trip, and construction."""

import os

import pytest

from repro.baselines import DEPLOYMENTS
from repro.core import TaiChiConfig
from repro.faults import FaultPlan
from repro.scenario import Scenario, WorkloadMix, build, load_scenario


def test_defaults_are_a_valid_taichi_scenario():
    scenario = Scenario()
    assert scenario.arm == "taichi"
    assert scenario.traffic == "bursty"
    deployment = scenario.build(seed=3)
    assert isinstance(deployment, DEPLOYMENTS["taichi"])
    assert deployment.fault_injector is None


def test_unknown_arm_message_matches_fleet_contract():
    with pytest.raises(ValueError, match="unknown deployment class 'vapor'"):
        Scenario(arm="vapor")


def test_unknown_traffic_profile_rejected():
    with pytest.raises(ValueError, match="unknown traffic profile 'chaos'"):
        Scenario(traffic="chaos")


def test_unknown_fault_preset_rejected():
    with pytest.raises(ValueError, match="unknown fault preset 'meteor'"):
        Scenario(faults="meteor")


def test_post_knobs_require_taichi_family():
    with pytest.raises(ValueError,
                       match="dp_boost requires a Tai Chi deployment class"):
        Scenario(arm="baseline", dp_boost=1)
    with pytest.raises(ValueError,
                       match="degradation requires a Tai Chi deployment"):
        Scenario(arm="type2", degradation=True)


def test_unknown_knob_rejected_at_spec_time():
    with pytest.raises(ValueError, match="does not accept knob"):
        Scenario(arm="naive", knobs={"taichi_config": {}})
    # The retired ``engine`` knob fails loudly, also from saved JSON.
    retired = {"arm": "taichi", "knobs": {"engine": {"fast_forward": False}}}
    pattern = r"knob\(s\) \['engine'\]; accepted knobs: \["
    with pytest.raises(ValueError, match=pattern):
        Scenario(**retired)
    with pytest.raises(ValueError, match=pattern):
        Scenario.from_dict(retired)


def test_bad_knob_values_fail_at_spec_time_naming_the_knob():
    for knobs, message in (
            ({"taichi_config": {"bogus": 1}},
             r"knob 'taichi_config': unknown keys \['bogus'\]"),
            ({"board_config": "x"},
             r"knob 'board_config' must be a dict of BoardConfig fields, "
             r"got str"),
            ({"board_config": {"kernel": {"nope": 2}}},
             r"knob 'board_config'.kernel: unknown keys \['nope'\]"),
            ({"board_config": {"accelerator": 3}},
             r"knob 'board_config'.accelerator must be a dict of "
             r"AcceleratorParams fields, got int"),
            ({"taichi_config": {"costs": {"zzz": 1}}},
             r"knob 'taichi_config'.costs: unknown keys \['zzz'\]"),
            ({"dp_params": [1]},
             r"knob 'dp_params' must be a dict of DPServiceParams")):
        with pytest.raises(ValueError, match=message):
            Scenario(arm="taichi", knobs=knobs)
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict({"arm": "taichi", "knobs": knobs})


def test_bad_scalar_knob_values_fail_at_spec_time_naming_the_field():
    for arm, knobs, message in (
            ("static", {"dp_kind": 7},
             r"knobs: dp_kind must be a non-empty string, got 7"),
            ("static", {"dp_cpu_ids": "abc"},
             r"knobs: dp_cpu_ids must be a list of CPU ids, got 'abc'"),
            ("static", {"dp_cpu_ids": [0, "1"]},
             r"knobs: dp_cpu_ids must be an integer, got '1'"),
            ("taichi-vdp", {"guest_tax": "high"},
             r"knobs: guest_tax must be a finite number, got 'high'"),
            ("type2", {"rpc_extra_ns": 1.5},
             r"knobs: rpc_extra_ns must be an integer, got 1.5"),
            ("static", {"dp_params": {"burst": "many"}},
             r"knob 'dp_params': burst must be an integer, got 'many'"),
            ("taichi", {"taichi_config": {"adaptive_slice": "false"}},
             r"knob 'taichi_config': adaptive_slice must be true or false"),
            ("taichi", {"taichi_config": {"costs": {"guest_work_tax": "x"}}},
             r"knob 'taichi_config'.costs: guest_work_tax must be a finite"),
            ("static", {"board_config": {"kernel": {"cpu_boot_ns": 2.5}}},
             r"knob 'board_config'.kernel: cpu_boot_ns must be an integer")):
        with pytest.raises(ValueError, match=message):
            Scenario(arm=arm, knobs=knobs)
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict({"arm": arm, "knobs": knobs})
    with pytest.raises(ValueError, match=r"knobs: dp_boost must be an integer"):
        build("taichi", dp_boost="2")


def test_good_scalar_knob_values_keep_their_serialised_form():
    knobs = {"dp_kind": "storage", "dp_cpu_ids": [0, 1, 2, 3],
             "guest_tax": 1, "dp_params": {"work_scale": 2, "burst": 8}}
    scenario = Scenario(arm="taichi-vdp", knobs=knobs)
    assert scenario.to_dict()["knobs"] == knobs
    deployment = scenario.build(seed=0)
    assert [service.cpu_id for service in deployment.services] == [0, 1, 2, 3]
    assert deployment.dp_params.burst == 8


def test_good_knob_values_keep_their_serialised_form():
    knobs = {"board_config": {"kernel": {"context_switch_ns": 1_000}},
             "taichi_config": {"costs": {"vmexit_ns": 900}},
             "dp_params": {"poll_ns": 150}}
    scenario = Scenario(arm="taichi", knobs=knobs)
    assert scenario.to_dict()["knobs"] == knobs
    deployment = scenario.build(seed=0)
    assert deployment.board.config.kernel.context_switch_ns == 1_000
    assert deployment.taichi.config.costs.vmexit_ns == 900


def test_fields_outside_the_spec_shape_are_named():
    for data, message in (
            ({"trace": True}, r"unknown keys \['trace'\]"),
            ({"check_invariants": True},
             r"unknown keys \['check_invariants'\]"),
            ({"knobs": {"dp_boost": 1}},
             r"knobs \['dp_boost'\] are Scenario fields"),
            ({"knobs": {"degradation": True}},
             r"knobs \['degradation'\] are Scenario fields")):
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict(data)


def test_workload_dict_is_coerced():
    scenario = Scenario(workload={"dp_utilization": 0.5})
    assert isinstance(scenario.workload, WorkloadMix)
    assert scenario.workload.dp_utilization == 0.5


def test_json_round_trip_with_knobs_faults_and_boost(tmp_path):
    scenario = Scenario(
        arm="taichi", traffic="spiky",
        workload=WorkloadMix(dp_utilization=0.4, vm_batch_max=12),
        knobs={"taichi_config": TaiChiConfig(adaptive_threshold=False),
               "dp_kind": "storage"},
        dp_boost=1, degradation=True, faults="storm")
    path = os.path.join(tmp_path, "scenario.json")
    scenario.to_json(path)
    revived = Scenario.from_json(path)
    assert revived.to_dict() == scenario.to_dict()
    assert revived.traffic == "spiky"
    assert revived.dp_boost == 1
    assert revived.degradation is True
    # Dict knobs revive into real dataclasses at build time.
    deployment = revived.build(seed=1)
    assert deployment.taichi.config.adaptive_threshold is False
    assert deployment.dp_kind == "storage"
    assert deployment.taichi.degradation is not None


def test_build_arms_fault_injector_when_faults_present():
    scenario = Scenario(arm="taichi", faults="probe_outage")
    deployment = scenario.build(seed=2)
    assert deployment.fault_injector is not None
    plan = scenario.fault_plan(scale=0.5)
    assert isinstance(plan, FaultPlan)
    assert plan.faults


def test_fault_plan_none_without_faults():
    assert Scenario().fault_plan() is None


def test_load_scenario_resolves_all_spellings(tmp_path):
    assert load_scenario("baseline").arm == "baseline"
    assert load_scenario({"arm": "naive"}).arm == "naive"
    scenario = Scenario(arm="taichi-vdp")
    assert load_scenario(scenario) is scenario
    path = os.path.join(tmp_path, "s.json")
    scenario.to_json(path)
    assert load_scenario(path).arm == "taichi-vdp"
    with pytest.raises(ValueError, match="expected an arm name"):
        load_scenario("no-such-thing")
