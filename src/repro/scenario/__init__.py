"""Declarative scenarios: the arm × workload matrix as data.

Public surface::

    from repro.scenario import Scenario, build, arms_under_test, run_soak

    deployment = build("taichi", seed=0, taichi_config=config)   # one arm
    scenario = Scenario(arm="taichi", traffic="spiky")           # one cell
    summary = run_soak(scenario, seed=0)                         # soak it

:func:`build` is the one deployment constructor.  Experiments call it
(optionally via :func:`arms_under_test` to honor the CLI ``--arm``
override); the fleet runner and the soak experiments drive
:func:`run_soak`; ``FleetSpec`` nodes embed a :class:`Scenario`.  The
arms are the :data:`repro.baselines.DEPLOYMENTS` classes: a new entry
there works everywhere, with its constructor's parameters as its knobs.
"""

from repro.scenario.arms import (
    arm_knobs,
    arm_names,
    build,
    get_arm,
)
from repro.scenario.session import (
    arm_override,
    arms_under_test,
    current_arms,
    parse_arm_list,
)
from repro.scenario.soak import run_soak
from repro.scenario.spec import (
    Scenario,
    TRAFFIC_PROFILES,
    WorkloadMix,
    load_scenario,
)

__all__ = [
    "Scenario",
    "TRAFFIC_PROFILES",
    "WorkloadMix",
    "arm_knobs",
    "arm_names",
    "arm_override",
    "arms_under_test",
    "build",
    "current_arms",
    "get_arm",
    "load_scenario",
    "parse_arm_list",
    "run_soak",
]
