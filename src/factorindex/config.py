"""Pipeline configuration: one JSON document, mirrored by CLI flags.

The document is nested by pipeline stage::

    {
      "input": "table.csv",
      "id_column": null,
      "missing_policy": "error",
      "variables": null,
      "retention": {"rule": "kaiser", "k": null},
      "rotation": {"method": "varimax", "kaiser_normalization": true,
                   "tol": 1e-12, "max_iter": 1000},
      "ranking": {"factor": 1, "direction": "ascending", "k": 10},
      "comparison": {"variables": null, "group1": null, "group2": null,
                     "alpha": 0.05, "alpha_levene": 0.05, "ci_level": 0.95,
                     "standardize_scope": "selected", "levene_center": "mean"},
      "output": {"dir": ".", "formats": ["json"]}
    }

Every leaf is optional except ``input``. Unknown keys are rejected so a
typo cannot silently fall back to a default; a wrongly typed value or a
non-finite real is rejected naming its key. Each leaf is declared once, as
a :class:`PipelineConfig` field whose metadata holds its key, its check,
its CLI flag and the step that reads it; :data:`COMMANDS` states which steps
each subcommand runs.
"""

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

from .errors import ValidationError
from .factors import DEFAULT_MAX_SWEEPS, DEFAULT_ROTATION_TOL

FORMATS = ("json", "csv", "text")

# Each subcommand: its help line and the steps it runs. A config field names
# the one step that reads it, or none if every subcommand takes it; "groups"
# reads the two compared id lists from the config instead of a ranking.
COMMANDS = {
    "analyze": ("run the full pipeline", ("model", "ranking", "comparison")),
    "factors": ("stop after the factor model", ("model",)),
    "rank": ("run through the ranking step", ("model", "ranking")),
    "compare": ("compare two explicit groups, skipping ranking",
                ("groups", "comparison")),
}


def _csv_list(text):
    items = [item.strip() for item in text.split(",")]
    return tuple(item for item in items if item)


def _fail(key, expected, value):
    raise ValidationError(f"{key} must be {expected}, got {value!r}")


def _check(accepts, expected, **flag_extras):
    """A value check, carrying the argparse keywords of the value's flag."""
    def check(key, value):
        if not accepts(value):
            _fail(key, expected, value)
        return value
    check.flag_extras = flag_extras
    return check


def _is_number(value, kind=numbers.Real):
    return isinstance(value, kind) and not isinstance(value, bool)


_string = _check(lambda v: isinstance(v, str), "a string")
_boolean = _check(lambda v: isinstance(v, bool), "true or false",
                  action=argparse.BooleanOptionalAction)


def _integer(low):
    return _check(lambda v: _is_number(v, numbers.Integral) and v >= low,
                  f"an integer >= {low}", type=int)


def _real(low, high=math.inf):
    """A finite real in the open interval (low, high)."""
    # The comparisons are False for NaN; the magnitude test catches the
    # infinities and integers too large for a float.
    return _check(lambda v: _is_number(v) and low < v < high
                  and abs(v) <= sys.float_info.max,
                  f"a finite number in ({low:g}, {high:g})", type=float)


def _choice(*allowed):
    return _check(lambda v: v in allowed,
                  f"one of {', '.join(map(repr, allowed))}", choices=list(allowed))


def _strings(allowed=None):
    """A list of strings, stored as a tuple; entries from ``allowed`` if given."""
    entry = (_choice(*allowed) if allowed
             else _check(lambda v: isinstance(v, str), "strings"))

    def check(key, value):
        if not isinstance(value, (list, tuple)):
            _fail(key, "a list of strings", value)
        return tuple(entry(f"{key} entries", item) for item in value)
    # A list from a fixed vocabulary is given on the command line by
    # repeating its flag, any other list as one comma-separated value.
    check.flag_extras = ({"action": "append", "choices": list(allowed)} if allowed
                         else {"type": _csv_list})
    return check


def _option(key, check, default=None, flag=None, step=None, help=None):
    """A config field: document ``key``, value ``check``, CLI ``flag``, ``step``."""
    help = " ".join(filter(None, (help, f"(config: {key})")))
    return field(default=default, metadata=dict(
        key=key, check=check, flag=flag, step=step, help=help))


@dataclass(frozen=True)
class PipelineConfig:
    input: str = _option("input", _string, None, "--input",
                         help="input CSV (cases x indicators)")
    id_column: str = _option("id_column", _string, None, "--id-column",
                             help="identifier column name (default: first column)")
    missing_policy: str = _option("missing_policy", _choice("error", "listwise"),
                                  "error", "--missing-policy")
    variables: tuple = _option("variables", _strings(), None, "--variables",
                               help="comma-separated analysis variables (default: all)")
    retention_rule: str = _option("retention.rule", _choice("kaiser", "fixed"),
                                  "kaiser", "--retention", "model")
    retention_k: int = _option("retention.k", _integer(1), None, "--retention-k",
                               "model")
    rotation_method: str = _option("rotation.method", _choice("varimax", "none"),
                                   "varimax", "--rotation", "model")
    kaiser_normalization: bool = _option("rotation.kaiser_normalization", _boolean,
                                         True, "--kaiser-normalization", "model")
    rotation_tol: float = _option("rotation.tol", _real(0.0), DEFAULT_ROTATION_TOL,
                                  "--rotation-tol", "model")
    rotation_max_iter: int = _option("rotation.max_iter", _integer(1),
                                     DEFAULT_MAX_SWEEPS, "--rotation-max-iter", "model")
    ranking_factor: int = _option("ranking.factor", _integer(1), 1, "--factor",
                                  "ranking", help="1-based factor to rank on")
    ranking_direction: str = _option("ranking.direction",
                                     _choice("ascending", "descending"),
                                     "ascending", "--direction", "ranking")
    ranking_k: int = _option("ranking.k", _integer(1), 10, "--k", "ranking",
                             help="group size for the top/bottom split")
    compare_variables: tuple = _option(
        "comparison.variables", _strings(), None, "--compare-variables", "comparison",
        help="comma-separated variables for the comparison")
    compare_group1: tuple = _option(
        "comparison.group1", _strings(), None, "--group1", "groups",
        help="comma-separated case ids of group 1")
    compare_group2: tuple = _option(
        "comparison.group2", _strings(), None, "--group2", "groups",
        help="comma-separated case ids of group 2")
    alpha: float = _option("comparison.alpha", _real(0.0, 1.0), 0.05, "--alpha",
                           "comparison")
    alpha_levene: float = _option("comparison.alpha_levene", _real(0.0, 1.0), 0.05,
                                  "--alpha-levene", "comparison")
    ci_level: float = _option("comparison.ci_level", _real(0.0, 1.0), 0.95,
                              "--ci-level", "comparison")
    standardize_scope: str = _option("comparison.standardize_scope",
                                     _choice("selected", "all"), "selected",
                                     "--standardize-scope", "comparison")
    levene_center: str = _option("comparison.levene_center", _choice("mean", "median"),
                                 "mean", "--levene-center", "comparison")
    out_dir: str = _option("output.dir", _string, ".", "--out-dir",
                           help="output directory")
    formats: tuple = _option("output.formats", _strings(FORMATS), ("json",),
                             "--format", help="output format; repeat for several")

    def __post_init__(self):
        if self.input is None or self.input == "":
            raise ValidationError("an input CSV is required: --input or the "
                                  "config key input")
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name,
                                   f.metadata["check"](f.metadata["key"], value))
        # The one rule that spans fields, and the one list that must not be empty.
        if self.retention_rule == "fixed" and self.retention_k is None:
            raise ValidationError("retention.rule 'fixed' requires retention k >= 1")
        if not self.formats:
            raise ValidationError("output.formats must not be empty")

    def to_dict(self):
        """Nested document form; round-trips through :func:`config_from_dict`."""
        return _nest((f.metadata["key"], _as_json(getattr(self, f.name)))
                     for f in fields(self))


def _as_json(value):
    return list(value) if isinstance(value, tuple) else value


def _nest(pairs):
    """``("section.leaf", value)`` pairs -> a document nested by section."""
    document = {}
    for key, value in pairs:
        section, _, leaf = key.rpartition(".")
        (document.setdefault(section, {}) if section else document)[leaf] = value
    return document


# The document shape, with each leaf holding its field name.
_SCHEMA = _nest((f.metadata["key"], f.name) for f in fields(PipelineConfig))


def _flatten(document):
    """Nested config document -> flat kwargs, rejecting unknown keys."""
    if not isinstance(document, dict):
        raise ValidationError("config document must be a JSON object")
    flat = {}
    for key, value in document.items():
        entry = _SCHEMA.get(key)
        if entry is None:
            raise ValidationError(f"unknown config key {key!r}")
        if isinstance(entry, str):
            flat[entry] = value
            continue
        if value is None:
            continue
        if not isinstance(value, dict):
            raise ValidationError(f"config section {key!r} must be an object")
        for sub, subvalue in value.items():
            if sub not in entry:
                raise ValidationError(f"unknown config key {key + '.' + sub!r}")
            flat[entry[sub]] = subvalue
    return flat


def config_from_dict(document, overrides=None):
    """Build a :class:`PipelineConfig` from a nested document.

    ``overrides`` uses the flat field names (as the CLI produces) and wins
    over the document; ``None`` override values are ignored.
    """
    flat = _flatten(document)
    if overrides:
        valid = {f.name for f in fields(PipelineConfig)}
        for key, value in overrides.items():
            if key not in valid:
                raise ValidationError(f"unknown config override {key!r}")
            if value is not None:
                flat[key] = value
    # Drop explicit nulls so dataclass defaults apply.
    flat = {k: v for k, v in flat.items() if v is not None}
    return PipelineConfig(**flat)


def load_config(path, overrides=None):
    """Read a JSON config file and apply flat overrides."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return config_from_dict(document, overrides)
