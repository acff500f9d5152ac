"""The arm registry: every arm builds, knobs validate, errors help."""

import os
import re

import pytest

from repro.baselines import DEPLOYMENTS
from repro.core import TaiChiConfig
from repro.scenario import arm_knobs, arm_names, build, get_arm

_DOCS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                     "docs", "scenarios.md")

#: Constructor knobs every deployment accepts (``Deployment.__init__``).
COMMON_KNOBS = {"board_config", "dp_kind", "dp_params", "dp_cpu_ids"}


def _documented_arms():
    """``{name: (class name, knobs)}`` from the docs' arm table."""
    with open(_DOCS) as handle:
        rows = [line.strip().strip("|").split("|") for line in handle
                if line.startswith("| `")]
    arms = {}
    for names, cls, extra, post in rows:
        knobs = COMMON_KNOBS | set(re.findall(r"`(\w+)`", extra))
        if post.strip() == "yes":
            knobs |= {"dp_boost", "degradation"}
        for name in re.findall(r"`([\w-]+)`", names):
            arms[name] = (re.search(r"`(\w+)`", cls).group(1), knobs)
    return arms


def test_every_registered_arm_builds_with_defaults():
    for name, cls in DEPLOYMENTS.items():
        deployment = build(name)
        assert isinstance(deployment, cls), name
        assert deployment.services, name


def test_registry_covers_all_deployment_classes():
    for name, cls in DEPLOYMENTS.items():
        assert get_arm(name) is cls
        assert cls.name == name


def test_knob_sets_match_the_documented_table():
    documented = _documented_arms()
    assert sorted(documented) == arm_names()
    for name, (cls_name, knobs) in documented.items():
        assert get_arm(name).__name__ == cls_name, name
        assert arm_knobs(name) == knobs, name


def test_baseline_alias_resolves_to_static():
    assert get_arm("baseline") is get_arm("static")
    assert "baseline" in arm_names()
    deployment = build("baseline")
    assert isinstance(deployment, DEPLOYMENTS["static"])


def test_arm_names_include_aliases():
    assert arm_names() == sorted(set(DEPLOYMENTS) | {"baseline"})


def test_unknown_arm_lists_choices():
    with pytest.raises(ValueError, match="unknown arm 'warp'") as exc:
        build("warp")
    assert "taichi" in str(exc.value)


def test_unknown_knob_reports_arm_and_accepted_set():
    with pytest.raises(ValueError, match="arm 'static' does not accept") as exc:
        build("static", taichi_config=TaiChiConfig())
    message = str(exc.value)
    assert "taichi_config" in message
    assert "accepted knobs" in message
    assert "dp_kind" in message
    with pytest.raises(ValueError, match=r"arm 'naive' .*\['guest_tax'\]"):
        build("naive", guest_tax=0.5)


def test_dp_boost_repartitions_after_warmup():
    plain = build("taichi")
    boosted = build("taichi", dp_boost=2)
    assert len(boosted.services) == len(plain.services) + 2
    # The extra services run on CPUs harvested from the CP partition.
    moved = ({service.cpu_id for service in boosted.services}
             - {service.cpu_id for service in plain.services})
    assert moved <= set(plain.board.cp_cpu_ids)


def test_dp_boost_rejected_on_non_taichi_arms():
    with pytest.raises(ValueError, match="does not accept knob"):
        build("baseline", dp_boost=2)


def test_degradation_knob_installs_the_layer():
    deployment = build("taichi", degradation=True)
    assert deployment.taichi.degradation is not None
    assert build("taichi").taichi.degradation is None


def test_dict_knobs_are_coerced_to_dataclasses():
    deployment = build("taichi", taichi_config={"adaptive_threshold": False})
    assert deployment.taichi.config.adaptive_threshold is False
    deployment = build(
        "baseline",
        board_config={"accelerator": {"preprocess_ns": 2_700,
                                      "transfer_ns": 500}})
    assert deployment.board.config.accelerator.preprocess_ns == 2_700
