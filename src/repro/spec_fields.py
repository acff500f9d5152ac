"""Field checks shared by the declarative specs.

Scenarios, workload mixes, tenants, fleets, nodes, retry policies, fault
plans, alert rules and chaos entries are plain data that usually arrive
from JSON.  Each rejects a bad field when the spec is built, with a
``ValueError`` whose message names the field — never a bare dataclass
``TypeError``, a comparison error from deep inside validation, or a
silently coerced value (``bool("false")`` is ``True``).

Every message starts with ``owner``, the spec's label (``scenario``,
``workload``, ``tenant 'gold'``, ``retry`` ...), so a field is findable
in a fleet spec that carries hundreds of them.
"""

from dataclasses import MISSING, fields
from math import isfinite
from numbers import Integral, Real


def check_fields(owner, data, accepted):
    """Return ``data`` if it is a dict whose keys are all in ``accepted``.

    Raises a ``ValueError`` naming the unknown keys and the accepted
    fields; a non-dict is rejected by type.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{owner} must be a dict, got {type(data).__name__}")
    unknown = sorted(set(data) - set(accepted), key=str)
    if unknown:
        raise ValueError(
            f"{owner}: unknown keys {unknown}; accepted fields: "
            f"{sorted(accepted)}")
    return data


def check_spec_fields(owner, data, cls):
    """Return ``data`` if it is a dict that can build dataclass ``cls``.

    :func:`check_fields` over ``cls``'s fields, and a ``ValueError``
    naming each field that ``cls`` has no default for and ``data`` lacks.
    """
    spec_fields = fields(cls)
    check_fields(owner, data, [f.name for f in spec_fields])
    missing = [f.name for f in spec_fields
               if f.name not in data and f.default is MISSING
               and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{owner}: missing required fields {missing}")
    return data


def check_bool(owner, name, value):
    """A real ``bool`` only: the strings ``"false"``/``"no"`` are truthy."""
    if not isinstance(value, bool):
        raise ValueError(
            f"{owner}: {name} must be true or false, got {value!r}")
    return value


def check_int(owner, name, value):
    """An integer (``bool`` excluded); returned as a plain ``int``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(
            f"{owner}: {name} must be an integer, got {value!r}")
    return int(value)


def check_number(owner, name, value):
    """A finite real number (``bool`` excluded), returned unchanged."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not isfinite(value)):
        raise ValueError(
            f"{owner}: {name} must be a finite number, got {value!r}")
    return value


def check_name(owner, name, value):
    """A non-empty string."""
    if not isinstance(value, str) or not value:
        raise ValueError(
            f"{owner}: {name} must be a non-empty string, got {value!r}")
    return value


#: The check for a scalar field, by its annotated type (or, for a
#: constructor parameter, its default's type).
SCALAR_CHECKS = {bool: check_bool, int: check_int, float: check_number,
                 str: check_name}
