"""Lint: all deployment construction flows through the arm registry.

The scenario layer is only a single source of truth if nothing sidesteps
it.  Outside the registry itself (``repro/scenario/``) and the class
definitions (``repro/baselines/``), no module under ``src/repro`` may
call a ``*Deployment(...)`` constructor directly — experiments, fleet,
and any future driver must go through ``repro.scenario.build``.
"""

import os
import re

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, "..", "..", "src", "repro"))

#: Directories allowed to name deployment classes in call position.
_ALLOWED = ("scenario", "baselines")

_DIRECT_CALL = re.compile(r"\b[A-Za-z_]*Deployment\(")

#: Directories allowed to construct a TenancyManager directly (the soak
#: driver lives in ``repro/scenario``) — everyone else reaches
#: multi-tenant behavior through ``Scenario.tenants``.
_TENANCY_ALLOWED = ("tenancy", "scenario")

_TENANCY_CALL = re.compile(r"\bTenancyManager\(")


def _scan(pattern, allowed):
    offenders = []
    for root, _dirs, files in os.walk(_SRC):
        rel = os.path.relpath(root, _SRC)
        if rel.split(os.sep)[0] in allowed:
            continue
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                for lineno, line in enumerate(handle, 1):
                    if pattern.search(line):
                        offenders.append(
                            f"{os.path.relpath(path, _SRC)}:{lineno}: "
                            f"{line.strip()}")
    return offenders


def test_no_direct_deployment_construction_outside_the_registry():
    offenders = _scan(_DIRECT_CALL, _ALLOWED)
    assert not offenders, (
        "direct deployment construction outside repro/scenario and "
        "repro/baselines — use repro.scenario.build():\n"
        + "\n".join(offenders))


def test_no_direct_tenancy_manager_construction_outside_tenancy():
    offenders = _scan(_TENANCY_CALL, _TENANCY_ALLOWED)
    assert not offenders, (
        "direct TenancyManager construction outside repro/tenancy and "
        "repro/scenario — "
        "declare Scenario.tenants and let the soak driver install it:\n"
        + "\n".join(offenders))
