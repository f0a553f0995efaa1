"""Exception types shared across the package.

Two broad families matter to callers: bad inputs or configuration
(:class:`ValidationError`) and numerical breakdowns such as singular
matrices or failed iterations (:class:`NumericalError`). The CLI maps
them to exit codes 2 and 3 respectively. A bad argument or config value
is reported in one shape, ``"{name} must be {expected}, got {value!r}"``.
"""

import math
import numbers
import sys


class ValidationError(ValueError):
    """Invalid data, names, or configuration supplied by the caller."""


class NumericalError(ArithmeticError):
    """A numerical procedure could not produce a usable result.

    ``stage`` is filled by the pipeline so operators can tell which step
    of a multi-step run blew up.
    """

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class DegenerateDataError(NumericalError):
    """A statistic is undefined for this data (e.g. zero spread everywhere)."""


def with_stage(stage, fn, *args, **kwargs):
    """Run ``fn``, tagging any escaping :class:`NumericalError` with ``stage``."""
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        if exc.stage is None:
            exc.stage = stage
        raise


def reject(name, expected, value):
    raise ValidationError(f"{name} must be {expected}, got {value!r}")


def check_choice(name, value, allowed):
    """Return ``value`` if it is one of ``allowed``; else reject it by ``name``."""
    if value not in allowed:
        reject(name, f"one of {', '.join(map(repr, allowed))}", value)
    return value


def check_integer(name, value, low):
    """Return ``value`` if it is an integer (not a bool) >= ``low``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low):
        reject(name, f"an integer >= {low}", value)
    return value


def check_real(name, value, low, high=math.inf):
    """Return ``value`` if it is a finite real (not a bool) in (``low``, ``high``)."""
    # The comparisons are False for NaN; the magnitude test catches the
    # infinities and integers too large for a float.
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and low < value < high and abs(value) <= sys.float_info.max):
        reject(name, f"a finite number in ({low:g}, {high:g})", value)
    return value


def check_strings(name, value, allowed=None):
    """Return ``value`` as a tuple if it is a list or tuple of strings, each
    one of ``allowed`` if given."""
    if not isinstance(value, (list, tuple)):
        reject(name, "a list of strings", value)
    for item in value:
        if allowed:
            check_choice(f"{name} entries", item, allowed)
        elif not isinstance(item, str):
            reject(f"{name} entries", "strings", item)
    return tuple(value)


def check_bool(name, value):
    """Return ``value`` if it is ``True`` or ``False``."""
    if not isinstance(value, bool):
        reject(name, "true or false", value)
    return value
