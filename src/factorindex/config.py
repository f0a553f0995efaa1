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
typo cannot silently fall back to a default.
"""

import json
import numbers
from dataclasses import dataclass, fields

from .errors import ValidationError

FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class PipelineConfig:
    input: str
    id_column: str = None
    missing_policy: str = "error"
    variables: tuple = None
    retention_rule: str = "kaiser"
    retention_k: int = None
    rotation_method: str = "varimax"
    kaiser_normalization: bool = True
    rotation_tol: float = 1e-12
    rotation_max_iter: int = 1000
    ranking_factor: int = 1
    ranking_direction: str = "ascending"
    ranking_k: int = 10
    compare_variables: tuple = None
    compare_group1: tuple = None
    compare_group2: tuple = None
    alpha: float = 0.05
    alpha_levene: float = 0.05
    ci_level: float = 0.95
    standardize_scope: str = "selected"
    levene_center: str = "mean"
    out_dir: str = "."
    formats: tuple = ("json",)

    def __post_init__(self):
        if not self.input:
            raise ValidationError("config requires an input path")
        for name, label in _STRING_FIELDS.items():
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValidationError(f"{label} must be a string, got {value!r}")
        for name, label in _INTEGER_FIELDS.items():
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Integral)):
                raise ValidationError(f"{label} must be an integer, got {value!r}")
        for name, label in _LIST_FIELDS.items():
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)):
                raise ValidationError(
                    f"{label} must be a list of strings, got {value!r}"
                )
            for item in value:
                if not isinstance(item, str):
                    raise ValidationError(
                        f"{label} entries must be strings, got {item!r}"
                    )
            object.__setattr__(self, name, tuple(value))
        _enum("missing_policy", self.missing_policy, ("error", "listwise"))
        _enum("retention.rule", self.retention_rule, ("kaiser", "fixed"))
        _enum("rotation.method", self.rotation_method, ("varimax", "none"))
        _enum("ranking.direction", self.ranking_direction,
              ("ascending", "descending"))
        _enum("comparison.standardize_scope", self.standardize_scope,
              ("selected", "all"))
        _enum("comparison.levene_center", self.levene_center, ("mean", "median"))
        if self.retention_rule == "fixed" and (self.retention_k is None
                                               or self.retention_k < 1):
            raise ValidationError("retention.rule 'fixed' requires retention k >= 1")
        if self.ranking_factor < 1:
            raise ValidationError("ranking.factor must be >= 1")
        if self.ranking_k < 1:
            raise ValidationError("ranking.k must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.alpha_levene < 1.0:
            raise ValidationError(
                f"alpha_levene must be in (0, 1), got {self.alpha_levene!r}"
            )
        if not 0.0 < self.ci_level < 1.0:
            raise ValidationError(f"ci_level must be in (0, 1), got {self.ci_level!r}")
        if self.rotation_tol <= 0.0:
            raise ValidationError("rotation.tol must be positive")
        if self.rotation_max_iter < 1:
            raise ValidationError("rotation.max_iter must be >= 1")
        if not self.formats:
            raise ValidationError("output.formats must not be empty")
        for fmt in self.formats:
            _enum("output.formats", fmt, FORMATS)

    def to_dict(self):
        """Nested document form; round-trips through :func:`config_from_dict`."""
        return {
            "input": self.input,
            "id_column": self.id_column,
            "missing_policy": self.missing_policy,
            "variables": _opt_list(self.variables),
            "retention": {"rule": self.retention_rule, "k": self.retention_k},
            "rotation": {
                "method": self.rotation_method,
                "kaiser_normalization": self.kaiser_normalization,
                "tol": self.rotation_tol,
                "max_iter": self.rotation_max_iter,
            },
            "ranking": {
                "factor": self.ranking_factor,
                "direction": self.ranking_direction,
                "k": self.ranking_k,
            },
            "comparison": {
                "variables": _opt_list(self.compare_variables),
                "group1": _opt_list(self.compare_group1),
                "group2": _opt_list(self.compare_group2),
                "alpha": self.alpha,
                "alpha_levene": self.alpha_levene,
                "ci_level": self.ci_level,
                "standardize_scope": self.standardize_scope,
                "levene_center": self.levene_center,
            },
            "output": {"dir": self.out_dir, "formats": list(self.formats)},
        }


# Fields whose JSON type is checked up front, with their document names.
_STRING_FIELDS = {"input": "input", "id_column": "id_column", "out_dir": "output.dir"}
_INTEGER_FIELDS = {
    "retention_k": "retention.k",
    "rotation_max_iter": "rotation.max_iter",
    "ranking_factor": "ranking.factor",
    "ranking_k": "ranking.k",
}
_LIST_FIELDS = {
    "variables": "variables",
    "compare_variables": "comparison.variables",
    "compare_group1": "comparison.group1",
    "compare_group2": "comparison.group2",
    "formats": "output.formats",
}


def _opt_list(value):
    return None if value is None else list(value)


def _enum(name, value, allowed):
    if value not in allowed:
        raise ValidationError(
            f"{name} must be one of {', '.join(map(repr, allowed))}, got {value!r}"
        )


_SECTIONS = {
    "retention": {"rule": "retention_rule", "k": "retention_k"},
    "rotation": {
        "method": "rotation_method",
        "kaiser_normalization": "kaiser_normalization",
        "tol": "rotation_tol",
        "max_iter": "rotation_max_iter",
    },
    "ranking": {
        "factor": "ranking_factor",
        "direction": "ranking_direction",
        "k": "ranking_k",
    },
    "comparison": {
        "variables": "compare_variables",
        "group1": "compare_group1",
        "group2": "compare_group2",
        "alpha": "alpha",
        "alpha_levene": "alpha_levene",
        "ci_level": "ci_level",
        "standardize_scope": "standardize_scope",
        "levene_center": "levene_center",
    },
    "output": {"dir": "out_dir", "formats": "formats"},
}
_TOP_KEYS = ("input", "id_column", "missing_policy", "variables")


def _flatten(document):
    """Nested config document -> flat kwargs, rejecting unknown keys."""
    if not isinstance(document, dict):
        raise ValidationError("config document must be a JSON object")
    flat = {}
    for key, value in document.items():
        if key in _TOP_KEYS:
            flat[key] = value
        elif key in _SECTIONS:
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ValidationError(f"config section {key!r} must be an object")
            mapping = _SECTIONS[key]
            for sub, subvalue in value.items():
                if sub not in mapping:
                    raise ValidationError(f"unknown config key {key}.{sub!r}")
                flat[mapping[sub]] = subvalue
        else:
            raise ValidationError(f"unknown config key {key!r}")
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
    if "input" not in flat:
        raise ValidationError("config requires an input path")
    try:
        return PipelineConfig(**flat)
    except TypeError as exc:
        raise ValidationError(f"invalid config: {exc}") from None


def load_config(path, overrides=None):
    """Read a JSON config file and apply flat overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(document, overrides)
