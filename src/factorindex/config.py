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
each subcommand runs. A choice's values are the tuple of the module that
branches on it, and its default is that tuple's first entry. A flag's text
meets the same check, read as an int, else a float, else as text.
"""

import argparse
import json
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import partial

from .dataset import MISSING_POLICIES
from .errors import (ValidationError, check_bool, check_choice, check_integer,
                     check_real, check_strings, reject)
from .factors import (DEFAULT_MAX_SWEEPS, DEFAULT_ROTATION_TOL, RETENTION_RULES,
                      ROTATION_METHODS)
from .inference import LEVENE_CENTERS, STANDARDIZE_SCOPES, check_ci_level
from .ranking import DIRECTIONS

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


def _flag(check, **flag_extras):
    """A copy of ``check``, carrying the argparse keywords of the value's flag."""
    check = partial(check)
    check.flag_extras = flag_extras
    return check


def _string(key, value):
    if not isinstance(value, str):
        reject(key, "a string", value)
    return value


def _number(text):
    """A numeric flag's text as a document would hold it: int, else float, else text."""
    for parse in (int, float, str):
        with suppress(ValueError):
            return parse(text)


_boolean = _flag(check_bool, action=argparse.BooleanOptionalAction)
_integer = _flag(partial(check_integer, low=1), type=_number)
_positive = _flag(partial(check_real, low=0.0), type=_number)
_probability = _flag(partial(check_real, low=0.0, high=1.0), type=_number)
_level = _flag(check_ci_level, type=_number)


def _path(key, value):
    """A string that ``open`` takes: one without a NUL character."""
    if "\0" in _string(key, value):
        reject(key, "a path without a NUL character", value)
    return value


_string.flag_extras = _path.flag_extras = {}


def _choice(allowed, check=check_choice, **flag_extras):
    return _flag(partial(check, allowed=allowed),
                 metavar="{" + ",".join(allowed) + "}", **flag_extras)


def _strings(allowed=None):
    """A list of strings, stored as a tuple; entries from ``allowed`` if given."""
    # A list from a fixed vocabulary is given on the command line by
    # repeating its flag, any other list as one comma-separated value.
    if allowed:
        return _choice(allowed, check_strings, action="append")
    return _flag(check_strings, type=_csv_list)


def _option(key, check, default=None, flag=None, step=None, help=None):
    """A config field: document ``key``, value ``check``, CLI ``flag``, ``step``."""
    help = " ".join(filter(None, (help, f"(config: {key})")))
    return field(default=default, metadata=dict(
        key=key, check=check, flag=flag, step=step, help=help))


@dataclass(frozen=True)
class PipelineConfig:
    input: str = _option("input", _path, None, "--input",
                         help="input CSV (cases x indicators)")
    id_column: str = _option("id_column", _string, None, "--id-column",
                             help="identifier column name (default: first column)")
    missing_policy: str = _option("missing_policy", _choice(MISSING_POLICIES),
                                  MISSING_POLICIES[0], "--missing-policy")
    variables: tuple = _option("variables", _strings(), None, "--variables",
                               help="comma-separated analysis variables (default: all)")
    retention_rule: str = _option("retention.rule", _choice(RETENTION_RULES),
                                  RETENTION_RULES[0], "--retention", "model")
    retention_k: int = _option("retention.k", _integer, None, "--retention-k", "model")
    rotation_method: str = _option("rotation.method", _choice(ROTATION_METHODS),
                                   ROTATION_METHODS[0], "--rotation", "model")
    kaiser_normalization: bool = _option("rotation.kaiser_normalization", _boolean,
                                         True, "--kaiser-normalization", "model")
    rotation_tol: float = _option("rotation.tol", _positive, DEFAULT_ROTATION_TOL,
                                  "--rotation-tol", "model")
    rotation_max_iter: int = _option("rotation.max_iter", _integer,
                                     DEFAULT_MAX_SWEEPS, "--rotation-max-iter", "model")
    ranking_factor: int = _option("ranking.factor", _integer, 1, "--factor",
                                  "ranking", help="1-based factor to rank on")
    ranking_direction: str = _option("ranking.direction", _choice(DIRECTIONS),
                                     DIRECTIONS[0], "--direction", "ranking")
    ranking_k: int = _option("ranking.k", _integer, 10, "--k", "ranking",
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
    alpha: float = _option("comparison.alpha", _probability, 0.05, "--alpha",
                           "comparison")
    alpha_levene: float = _option("comparison.alpha_levene", _probability, 0.05,
                                  "--alpha-levene", "comparison")
    ci_level: float = _option("comparison.ci_level", _level, 0.95,
                              "--ci-level", "comparison")
    standardize_scope: str = _option("comparison.standardize_scope",
                                     _choice(STANDARDIZE_SCOPES), STANDARDIZE_SCOPES[0],
                                     "--standardize-scope", "comparison")
    levene_center: str = _option("comparison.levene_center", _choice(LEVENE_CENTERS),
                                 LEVENE_CENTERS[0], "--levene-center", "comparison")
    out_dir: str = _option("output.dir", _path, ".", "--out-dir",
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
