"""The arm registry: :data:`repro.baselines.DEPLOYMENTS`, read as data.

An *arm* is one point on the scheduler axis of the evaluation matrix:
a ``DEPLOYMENTS`` entry (or the alias ``baseline`` for ``static``).
Registering an arm means adding its class to ``DEPLOYMENTS``; it then
works in every experiment, fleet preset and CLI ``--arm`` override,
because all construction flows through :func:`build`.

An arm's knobs are its constructor's parameters, read along the MRO
(minus ``seed``).  The Tai Chi family
(:class:`~repro.baselines.TaiChiDeployment` and its subclasses) also
accepts two post-construction knobs: ``dp_boost`` (move N CP pCPUs to
the data plane after warmup, Section 8's inverse adaptation) and
``degradation`` (install the graceful-degradation layer).

Dict-valued knobs are coerced to their dataclasses (``taichi_config``
-> :class:`~repro.core.TaiChiConfig` etc.) so a knob set round-trips
through :class:`~repro.scenario.spec.Scenario` JSON.  Every knob value is
checked when the knobs are validated, so a bad one fails at spec time
with a ``ValueError`` naming the knob and the field:

- a dataclass knob's dict, nested dataclass fields included, has only
  its dataclass's fields, and each scalar field passes the
  :mod:`repro.spec_fields` check for its annotated type;
- a scalar knob passes the check for the type of its constructor
  default (``dp_kind="net"`` takes a string, ``guest_tax=1.07`` a
  number), and ``dp_cpu_ids`` takes a list of integer CPU ids.
"""

import inspect
from dataclasses import asdict, fields, is_dataclass
from functools import cache

from repro.baselines import DEPLOYMENTS, TaiChiDeployment
from repro.core import DynamicRepartitioner, TaiChiConfig
from repro.dp import DPServiceParams
from repro.hw import AcceleratorParams, BoardConfig
from repro.kernel import KernelParams
from repro.spec_fields import (
    SCALAR_CHECKS,
    check_bool,
    check_int,
    check_spec_fields,
)
from repro.virt.costs import VirtCosts

#: Alias -> arm name.
ALIASES = {"baseline": "static"}

#: Post-construction knobs available on the Tai Chi family.
TAICHI_POST_KNOBS = frozenset(("dp_boost", "degradation"))


def arm_names():
    """Sorted names (aliases included) accepted by :func:`get_arm`."""
    return sorted(set(DEPLOYMENTS) | set(ALIASES))


def get_arm(name):
    """Resolve an arm name (or alias) to its deployment class."""
    cls = (DEPLOYMENTS.get(ALIASES.get(name, name))
           if isinstance(name, str) else None)
    if cls is None:
        raise ValueError(f"unknown arm {name!r}; choose from {arm_names()}")
    return cls


def _init_params(cls):
    """The constructor parameters along ``cls``'s MRO, base classes
    first, so a subclass's parameter comes after the one it overrides."""
    for klass in reversed(cls.__mro__):
        if "__init__" in vars(klass):
            yield from inspect.signature(klass.__init__).parameters.values()


@cache
def _knobs(cls):
    """Every knob ``cls`` accepts; derived once per class."""
    knobs = {param.name for param in _init_params(cls)
             if param.kind in (param.POSITIONAL_OR_KEYWORD,
                               param.KEYWORD_ONLY)}
    knobs -= {"self", "seed"}
    if issubclass(cls, TaiChiDeployment):
        knobs |= TAICHI_POST_KNOBS
    return frozenset(knobs)


@cache
def _scalar_checks(cls):
    """Knob -> its check, for every scalar knob ``cls`` accepts."""
    checks = {}
    for param in _init_params(cls):
        check = SCALAR_CHECKS.get(type(param.default))
        if check is not None:
            checks[param.name] = check
    checks["dp_cpu_ids"] = _check_cpu_ids
    if issubclass(cls, TaiChiDeployment):
        checks.update(dp_boost=check_int, degradation=check_bool)
    return checks


def _check_cpu_ids(owner, name, value):
    """A list (or tuple) of integer CPU ids, or ``None`` for the board's
    data-plane CPUs."""
    if value is None:
        return value
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"{owner}: {name} must be a list of CPU ids, got {value!r}")
    for cpu_id in value:
        check_int(owner, name, cpu_id)
    return value


def arm_knobs(name):
    """The knobs :func:`build` accepts for arm ``name``."""
    return _knobs(get_arm(name))


def validate_knobs(name, knobs):
    """Reject unknown knobs with the arm name and its accepted set, and
    bad knob values with the knob's name.

    ``None`` stands for the constructor default of a knob whose default
    is ``None`` (the dataclass knobs and ``dp_cpu_ids``).
    """
    cls = get_arm(name)
    unknown = sorted(set(knobs) - _knobs(cls))
    if unknown:
        raise ValueError(
            f"arm {cls.name!r} does not accept knob(s) {unknown}; "
            f"accepted knobs: {sorted(_knobs(cls))}")
    scalar_checks = _scalar_checks(cls)
    for key, value in knobs.items():
        if key in _KNOB_FACTORIES:
            if value is not None:
                knob_cls, nested = _KNOB_FACTORIES[key]
                _check_knob_value(f"knob {key!r}", value, knob_cls, nested)
        elif key in scalar_checks:
            scalar_checks[key]("knobs", key, value)
    return cls


def _check_knob_value(owner, value, cls, nested):
    """A ``cls``-like dataclass instance, or a dict that builds ``cls``
    whose ``nested`` fields (name -> dataclass) pass the same check."""
    if is_dataclass(value) and not isinstance(value, type):
        return
    if not isinstance(value, dict):
        raise ValueError(
            f"{owner} must be a dict of {cls.__name__} fields, got "
            f"{type(value).__name__}")
    check_spec_fields(owner, value, cls)
    for spec_field in fields(cls):
        check = SCALAR_CHECKS.get(spec_field.type)
        if check is not None and spec_field.name in value:
            check(owner, spec_field.name, value[spec_field.name])
    for field_name, field_cls in nested.items():
        if field_name in value:
            _check_knob_value(f"{owner}.{field_name}", value[field_name],
                              field_cls, {})


def build(name, seed=0, **knobs):
    """Construct a deployment for arm ``name`` with validated ``knobs``.

    Post-construction knobs are applied in the order the fleet runner
    established: ``dp_boost`` (warmup, then repartition) before
    ``degradation``.
    """
    cls = validate_knobs(name, knobs)
    dp_boost = knobs.pop("dp_boost", 0)
    degradation = knobs.pop("degradation", False)
    if dp_boost < 0:
        raise ValueError("dp_boost must be >= 0")
    deployment = cls(seed=seed, **_coerce_knobs(knobs))
    if dp_boost:
        deployment.warmup()
        DynamicRepartitioner(deployment).cp_to_dp(dp_boost)
    if degradation:
        deployment.taichi.enable_degradation()
    return deployment


# -- Knob (de)serialization ---------------------------------------------------------

def _coerce_knobs(knobs):
    """Revive dict-valued knobs (from Scenario JSON) into their dataclasses."""
    revived = dict(knobs)
    for key, (cls, nested) in _KNOB_FACTORIES.items():
        value = revived.get(key)
        if isinstance(value, dict):
            data = dict(value)
            for field_name, field_cls in nested.items():
                if isinstance(data.get(field_name), dict):
                    data[field_name] = field_cls(**data[field_name])
            revived[key] = cls(**data)
    return revived


#: Dataclass knobs: knob -> (its dataclass, {field: dataclass} of the
#: fields that are dataclasses themselves).
_KNOB_FACTORIES = {
    "taichi_config": (TaiChiConfig, {"costs": VirtCosts}),
    "board_config": (BoardConfig, {"accelerator": AcceleratorParams,
                                   "kernel": KernelParams}),
    "dp_params": (DPServiceParams, {}),
}


def knob_to_jsonable(value):
    """The JSON form of one knob value (dataclasses become dicts)."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, (list, tuple)):
        return [knob_to_jsonable(item) for item in value]
    return value
