"""Loading, validating, and standardizing the cases-by-indicators table.

The input is a plain CSV: one header row, one identifier column (default:
the first), every other column numeric. Rows are cases (communities,
tracts, districts, ...), columns are indicators. Datasets are immutable
once built; operations return new objects.
"""

import csv
import difflib
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_MIN_CASES = 3
_MIN_VARIABLES = 2
_ZERO_SD = 1e-12


@dataclass(frozen=True)
class IndicatorDataset:
    """Numeric table of ``n`` cases by ``p`` indicators."""

    case_ids: tuple
    indicator_names: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "case_ids", tuple(self.case_ids))
        object.__setattr__(self, "indicator_names", tuple(self.indicator_names))
        n, p = values.shape if values.ndim == 2 else (0, 0)
        if values.ndim != 2 or n != len(self.case_ids) or p != len(self.indicator_names):
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"{len(self.case_ids)} cases x {len(self.indicator_names)} indicators"
            )
        if n < _MIN_CASES:
            raise ValidationError(f"need at least {_MIN_CASES} cases, got {n}")
        if p < _MIN_VARIABLES:
            raise ValidationError(f"need at least {_MIN_VARIABLES} indicators, got {p}")
        dup = first_duplicate(self.case_ids)
        if dup is not None:
            raise ValidationError(f"duplicate case id: {dup!r}")
        dup = first_duplicate(self.indicator_names)
        if dup is not None:
            raise ValidationError(f"duplicate indicator name: {dup!r}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("dataset contains non-finite values")
        values.setflags(write=False)

    @property
    def n_cases(self):
        return self.values.shape[0]

    @property
    def n_variables(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class StandardizedMatrix:
    """Column-wise z-scores plus the means/sds needed to undo them.

    Uses the sample (n-1) standard deviation, matching the two-sample
    statistics downstream.
    """

    values: np.ndarray
    column_means: np.ndarray
    column_sds: np.ndarray
    case_ids: tuple
    indicator_names: tuple

    def __post_init__(self):
        for name in ("values", "column_means", "column_sds"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def first_duplicate(items):
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def load_csv(path, id_column=None, missing_policy="error"):
    """Read an indicator table from ``path`` into an :class:`IndicatorDataset`.

    ``id_column`` names the identifier column (default: the first column).
    ``missing_policy`` is ``"error"`` (reject any blank/non-finite cell) or
    ``"listwise"`` (drop incomplete rows with a warning). Non-numeric text in
    a numeric column and a blank case id are always errors, reported with the
    data row number (1-based, header excluded).
    """
    if missing_policy not in ("error", "listwise"):
        raise ValidationError(
            f"missing_policy must be 'error' or 'listwise', got {missing_policy!r}"
        )
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: file is empty") from None

            header = [h.strip() for h in header]
            if id_column is None:
                id_index = 0
            else:
                if id_column not in header:
                    raise ValidationError(
                        f"id column {id_column!r} not found; header has {header}"
                    )
                id_index = header.index(id_column)
            indicator_names = [h for i, h in enumerate(header) if i != id_index]

            rows = (row for row in reader if row and any(cell.strip() for cell in row))
            case_ids = []
            parsed = array("d")  # kept rows' values, row after row
            dropped = []  # ids of incomplete rows skipped under listwise
            for row_number, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    raise ValidationError(
                        f"row {row_number}: expected {len(header)} fields, got {len(row)}"
                    )
                case_id = row.pop(id_index).strip()
                data = []
                missing_here = False
                for name, cell in zip(indicator_names, row):
                    try:
                        value = float(cell)
                    except ValueError:
                        # float() ignores surrounding whitespace but for 0x1c-0x1f,
                        # which strip() also removes; a blank cell is missing.
                        text = cell.strip()
                        try:
                            value = float(text or "nan")
                        except ValueError:
                            raise ValidationError(
                                f"non-numeric value {text!r} at row {row_number}, "
                                f"column {name!r}"
                            ) from None
                    if not math.isfinite(value):
                        missing_here = True
                        if missing_policy == "error":
                            raise ValidationError(
                                f"missing value at row {row_number}, column {name!r} "
                                f"(case {case_id!r}); use missing_policy='listwise' to drop"
                            )
                    data.append(value)
                if not case_id:
                    raise ValidationError(f"row {row_number}: blank case id")
                if missing_here:
                    dropped.append(case_id)
                    continue
                case_ids.append(case_id)
                parsed.extend(data)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None

    if dropped:
        warnings.warn(
            f"listwise deletion dropped {len(dropped)} case(s): {', '.join(dropped)}",
            stacklevel=2,
        )

    if len(case_ids) < _MIN_CASES:
        raise ValidationError(
            f"{path}: fewer than {_MIN_CASES} complete rows after loading "
            f"({len(case_ids)} remain)"
        )
    values = np.frombuffer(parsed, dtype=float).reshape(len(case_ids),
                                                        len(indicator_names))
    return IndicatorDataset(tuple(case_ids), tuple(indicator_names), values)


def standardize(ds):
    """Column-wise z-scores of a dataset using the sample (n-1) deviation.

    Raises on any constant column, naming the indicator.
    """
    values = ds.values
    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=1)
    for name, sd in zip(ds.indicator_names, sds):
        if sd <= _ZERO_SD:
            raise ValidationError(f"zero variance: {name}")
    z = (values - means) / sds
    return StandardizedMatrix(
        values=z,
        column_means=means,
        column_sds=sds,
        case_ids=ds.case_ids,
        indicator_names=ds.indicator_names,
    )


def select_variables(ds, names):
    """Column subset of ``ds`` in the requested name order.

    Unknown names raise, suggesting the closest existing indicator.
    """
    names = list(names)
    index = {name: i for i, name in enumerate(ds.indicator_names)}
    columns = []
    for name in names:
        if name not in index:
            close = difflib.get_close_matches(name, ds.indicator_names, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValidationError(f"unknown indicator {name!r}{hint}")
        columns.append(index[name])
    return IndicatorDataset(
        case_ids=ds.case_ids,
        indicator_names=tuple(names),
        # C order, unlike fancy-indexed columns; the bytes depend on it.
        values=ds.values[:, columns].copy(),
    )


