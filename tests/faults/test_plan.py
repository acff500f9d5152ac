"""FaultPlan validation, scaling, file loading, and presets."""

import pytest

from repro.faults import FaultPlan, FaultSpec, load_plan
from repro.faults.plan import PRESETS
from repro.sim import MICROSECONDS, MILLISECONDS


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("power_cut", at_ns=0, duration_ns=1)


def test_unknown_parameter_is_rejected():
    with pytest.raises(ValueError, match="does not take parameters"):
        FaultSpec("ipi_drop", at_ns=0, duration_ns=1,
                  params={"probability": 0.5})


def test_repeat_requires_period():
    with pytest.raises(ValueError, match="period_ns"):
        FaultSpec("ipi_drop", at_ns=0, duration_ns=1, repeat=3)


def test_window_kinds_require_duration():
    with pytest.raises(ValueError, match="needs a duration_ns"):
        FaultSpec("probe_outage", at_ns=0)
    # Instant kinds are fine without one.
    FaultSpec("dp_stall", at_ns=0, params={"stall_ns": 1000})


def test_occurrences_expand_repeats():
    spec = FaultSpec("ipi_drop", at_ns=100, duration_ns=10,
                     repeat=3, period_ns=50)
    assert spec.occurrences() == [100, 150, 200]


def test_scaled_shrinks_times_but_not_magnitudes():
    plan = FaultPlan(name="t", faults=[
        FaultSpec("ipi_drop", at_ns=400 * MILLISECONDS,
                  duration_ns=200 * MILLISECONDS, params={"prob": 0.7}),
    ])
    half = plan.scaled(0.5)
    spec = half.faults[0]
    assert spec.at_ns == 200 * MILLISECONDS
    assert spec.duration_ns == 100 * MILLISECONDS
    assert spec.params["prob"] == 0.7


def test_scaled_floors_keep_tiny_plans_meaningful():
    plan = FaultPlan(name="t", faults=[
        FaultSpec("ipi_drop", at_ns=100 * MILLISECONDS,
                  duration_ns=50 * MILLISECONDS, repeat=2,
                  period_ns=60 * MILLISECONDS),
        FaultSpec("dp_stall", at_ns=500 * MILLISECONDS,
                  params={"stall_ns": 2 * MILLISECONDS}),
    ])
    tiny = plan.scaled(0.001)
    window, stall = tiny.faults
    assert window.at_ns == 3 * MILLISECONDS        # warmup floor
    assert window.duration_ns == 1 * MILLISECONDS  # duration floor
    assert window.period_ns == 1 * MILLISECONDS
    assert stall.duration_ns == 0                  # instant kind stays instant
    assert stall.params["stall_ns"] == 100 * MICROSECONDS


def test_scaled_rejects_nonpositive_factor():
    with pytest.raises(ValueError, match="positive"):
        FaultPlan(name="t", faults=[]).scaled(0)


def test_presets_all_construct_and_validate():
    for name in PRESETS:
        plan = FaultPlan.preset(name)
        assert len(plan) > 0
        assert plan.name == name


def test_unknown_preset_is_rejected():
    with pytest.raises(ValueError, match="unknown fault preset"):
        FaultPlan.preset("meteor_strike")


def test_load_plan_resolves_presets_and_files(tmp_path):
    assert load_plan("ipi_storm").name == "ipi_storm"
    path = tmp_path / "plan.json"
    FaultPlan.preset("probe_outage").to_json(path)
    assert load_plan(str(path)).name == "probe_outage"
    with pytest.raises(ValueError, match="--faults expects"):
        load_plan("not-a-preset")
