"""Tests for FleetSpec / NodeSpec / presets."""

import pytest

from repro.faults import FaultPlan
from repro.fleet import (
    FleetSpec,
    NodeSpec,
    PRESETS,
    load_fleet_spec,
    uniform_spec,
)
from repro.scenario import Scenario, WorkloadMix


def nested(**scenario):
    """A node from its nested JSON form."""
    return NodeSpec.from_dict({"node_id": "n0", "scenario": scenario})


def test_nodespec_defaults():
    node = NodeSpec(node_id="n0")
    assert node.scenario == Scenario()
    assert node.scenario.arm == "taichi"
    assert node.scenario.traffic == "bursty"
    assert isinstance(node.scenario.workload, WorkloadMix)
    assert node.scenario.fault_plan() is None
    assert node.to_dict() == {"node_id": "n0",
                              "scenario": Scenario().to_dict()}


def test_nodespec_rejects_unknown_deployment():
    with pytest.raises(ValueError, match="unknown deployment class"):
        nested(arm="bogus")


def test_nodespec_rejects_unknown_traffic():
    with pytest.raises(ValueError, match="unknown traffic profile"):
        nested(traffic="tsunami")


def test_nodespec_rejects_unknown_fault_preset():
    with pytest.raises(ValueError, match="unknown fault preset"):
        nested(faults="bogus_storm")


def test_nodespec_rejects_the_flat_form():
    flat = {"node_id": "n", "deployment": "static"}
    with pytest.raises(ValueError, match=r"node 'n': unknown keys "
                       r"\['deployment'\]; accepted fields: "
                       r"\['node_id', 'scenario'\]"):
        NodeSpec.from_dict(flat)
    with pytest.raises(ValueError, match="scenario must be a Scenario"):
        NodeSpec("n", "static")


def test_missing_required_fields_are_named():
    with pytest.raises(ValueError, match=r"^node: missing required fields "
                       r"\['node_id'\]$"):
        NodeSpec.from_dict({"scenario": {}})
    with pytest.raises(ValueError, match=r"^fleet: missing required fields "
                       r"\['name', 'nodes'\]$"):
        FleetSpec.from_dict({})
    with pytest.raises(ValueError, match=r"^fleet: missing required fields "
                       r"\['nodes'\]$"):
        FleetSpec.from_dict({"name": "f", "seed": 3})
    with pytest.raises(ValueError, match=r"fault #0: missing required "
                       r"fields \['kind', 'at_ns'\]$"):
        FaultPlan.from_dict({"faults": [{"duration_ns": 5}]})


def test_nodespec_boost_and_degradation_need_taichi():
    with pytest.raises(ValueError, match="dp_boost requires"):
        nested(arm="static", dp_boost=2)
    with pytest.raises(ValueError, match="degradation requires"):
        nested(arm="static", degradation=True)
    # Fine on any Tai Chi-family class.
    nested(arm="taichi-vdp", dp_boost=1, degradation=True)


def test_nodespec_fault_preset_resolves():
    plan = nested(faults="probe_outage").scenario.fault_plan()
    assert isinstance(plan, FaultPlan)
    assert plan.faults


def test_fleet_rejects_duplicate_node_ids():
    with pytest.raises(ValueError, match="duplicate node_id"):
        FleetSpec(name="f", nodes=[NodeSpec(node_id="a"),
                                   NodeSpec(node_id="a")])


def test_fleet_rejects_empty():
    with pytest.raises(ValueError, match="at least one node"):
        FleetSpec(name="f", nodes=[])


def test_presets_shapes():
    rack = FleetSpec.preset("rack")
    assert len(rack) == 8
    classes = {node.scenario.arm for node in rack.nodes}
    assert classes == {"taichi", "static"}
    pod = FleetSpec.preset("pod")
    assert len(pod) == 64
    assert sum(node.scenario.arm == "static" for node in pod.nodes) == 16


def test_preset_unknown():
    with pytest.raises(ValueError, match="unknown fleet preset"):
        FleetSpec.preset("galaxy")


def test_subset_and_with_seed():
    rack = FleetSpec.preset("rack")
    small = rack.subset(3)
    assert [node.node_id for node in small.nodes] == \
        [node.node_id for node in rack.nodes[:3]]
    assert rack.with_seed(9).seed == 9
    assert rack.seed == 0  # original untouched
    with pytest.raises(ValueError, match="--nodes must be"):
        rack.subset(99)


def test_uniform_spec_same_node_ids_across_arms():
    a = uniform_spec("arm-a", "taichi", 4, dp_boost=2)
    b = uniform_spec("arm-b", "static", 4)
    assert [n.node_id for n in a.nodes] == [n.node_id for n in b.nodes]


def test_load_fleet_spec_dispatch(tmp_path):
    assert load_fleet_spec("rack").name == "rack"
    path = tmp_path / "custom.json"
    uniform_spec("custom", "taichi", 2).to_json(path)
    assert load_fleet_spec(str(path)).name == "custom"
    with pytest.raises(ValueError, match="preset"):
        load_fleet_spec("not-a-preset")
    assert set(PRESETS) == {"rack", "pod"}
