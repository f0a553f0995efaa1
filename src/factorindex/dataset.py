"""Loading, validating, and standardizing the cases-by-indicators table.

The input is a plain CSV: one header row, one identifier column (default:
the first), every other column numeric. Rows are cases (communities,
tracts, districts, ...), columns are indicators. Datasets are immutable
once built; operations return new objects.
"""

import csv
import difflib
import math
from array import array
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ValidationError

_MIN_CASES = 3
_TINY = np.finfo(float).tiny  # the smallest normal float
_CHUNK_CELLS = 4096  # cells per parse block; bounds the text held at once


@dataclass(frozen=True)
class IndicatorDataset:
    """Numeric table of ``n`` cases by ``p`` indicators."""

    case_ids: tuple
    indicator_names: tuple
    values: np.ndarray
    dropped_ids: tuple = ()  # ids of the rows listwise deletion left out

    def __post_init__(self):
        # C order fixes the summation order of every column statistic, so
        # the artifact bytes depend on it; load_csv's buffer is not copied.
        values = np.ascontiguousarray(self.values, dtype=float)
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
        if p < 1:
            raise ValidationError(f"need at least 1 indicator, got {p}")
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
    ``"listwise"`` (drop incomplete rows, naming them in ``dropped_ids``).
    Non-numeric text in a numeric column and a blank case id are always
    errors, reported with the data row number (1-based, header excluded).

    Rows are read in blocks of about ``_CHUNK_CELLS`` cells. A block whose
    rows all have the header's width and a non-blank id is parsed column by
    column (:func:`_parse_block`); any other block, or one holding a cell that
    the column parse cannot take, goes row by row through :func:`_parse_row`,
    which owns every error message. Both call ``float()`` on the same text, so
    the values, ids, dropped ids and errors do not depend on the block size.
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

            width = len(header)
            case_ids = []
            parsed = array("d")  # kept rows' values, row after row
            dropped = []  # ids of incomplete rows skipped under listwise
            row_number = 0  # data rows so far; blank lines are not counted
            for block in _blocks(reader, max(1, _CHUNK_CELLS // max(width, 1))):
                whole = _parse_block(block, width, id_index, missing_policy)
                if whole is not None:
                    ids, values, incomplete = whole
                    row_number += len(block)
                    case_ids += ids
                    parsed.frombytes(values)
                    dropped += incomplete
                    continue
                for row in block:
                    if not row or not any(cell.strip() for cell in row):
                        continue
                    row_number += 1
                    case_id, data = _parse_row(row, row_number, width, id_index,
                                               indicator_names, missing_policy)
                    if data is None:
                        dropped.append(case_id)
                    else:
                        case_ids.append(case_id)
                        parsed.extend(data)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None

    if len(case_ids) < _MIN_CASES:
        raise ValidationError(
            f"{path}: fewer than {_MIN_CASES} complete rows after loading "
            f"({len(case_ids)} remain)"
        )
    values = np.frombuffer(parsed, dtype=float).reshape(len(case_ids),
                                                        len(indicator_names))
    return IndicatorDataset(tuple(case_ids), tuple(indicator_names), values,
                            tuple(dropped))


def _blocks(reader, size):
    """Lists of up to ``size`` rows from ``reader``.

    The rows read before a decode or CSV error are yielded before the error
    propagates, so that an error in one of them is still reported first.
    """
    block = []
    try:
        for row in reader:
            block.append(row)
            if len(block) == size:
                yield block
                block = []
    except (csv.Error, UnicodeDecodeError):
        if block:
            yield block
        raise
    if block:
        yield block


def _parse_block(block, width, id_index, missing_policy):
    """``(ids, row-major value bytes, dropped ids)`` of the kept rows, or None.

    None means :func:`_parse_row` must take the block: a row of another
    width (a blank line, too), a blank id, a cell ``float()`` rejects other
    than an empty one, or a non-finite cell under ``missing_policy="error"``.
    """
    if not width or set(map(len, block)) != {width}:
        return None
    columns = list(zip(*block))
    ids = list(map(str.strip, columns.pop(id_index)))
    if "" in ids:
        return None
    values = array("d")  # column after column
    for column in columns:
        if "" in column:  # a missing cell; _parse_row reads it as nan too
            column = ["nan" if cell == "" else cell for cell in column]
        try:
            values.extend(map(float, column))
        except ValueError:
            return None
    rows = np.frombuffer(values, dtype=float).reshape(len(columns), len(block)).T
    complete = np.isfinite(rows).all(axis=1)
    if complete.all():
        return ids, rows.tobytes(), []
    if missing_policy == "error":
        return None
    return (list(compress(ids, complete)), rows[complete].tobytes(),
            list(compress(ids, ~complete)))


def _parse_row(row, row_number, width, id_index, indicator_names, missing_policy):
    """``(case id, values)`` of one non-blank data row; values is None if dropped."""
    if len(row) != width:
        raise ValidationError(
            f"row {row_number}: expected {width} fields, got {len(row)}"
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
    return case_id, None if missing_here else data


def column_moments(values, names):
    """Column means, sample (n-1) sds and constant mask of ``values``, whose
    columns are ``names``. A column is constant when its values are all equal
    (their sd need not round to 0) or its sd is exactly 0 (their squared
    deviations underflow). Any other column is rejected by name when its mean
    or sd overflows, or when its squared deviations sum to less than n times
    the smallest normal float (an sd below about 1.5e-154): a subnormal
    square is off by up to half its spacing, which from that bound up costs
    the sum at most half an ulp.

    The sums are taken in row blocks of about ``_CHUNK_CELLS`` cells, each
    block's sum starting from the running total, which is numpy's own axis-0
    order for a C-ordered table. So the means and sds are bit for bit
    ``values.mean(axis=0)`` and ``values.std(axis=0, ddof=1)``, whatever the
    block size, without their table-sized temporary. numpy sums a single
    column pairwise instead, so one column is one block.
    """
    n, p = values.shape
    rows = n if p == 1 else max(1, _CHUNK_CELLS // p)
    buffer = np.empty((min(rows, n) + 1, p))  # running total, then a block
    with np.errstate(over="ignore", invalid="ignore"):
        means = _row_sum(values, rows, buffer) / n
        squares = _row_sum(values, rows, buffer, means)
        sds = np.sqrt(squares / (n - 1))
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(sds)))
    if bad.size:
        raise ValidationError(f"{names[bad[0]]}: values too large to standardize")
    constant = (sds == 0.0) | (values.min(axis=0) == values.max(axis=0))
    small = np.flatnonzero(~constant & (squares < n * _TINY))
    if small.size:
        raise ValidationError(f"{names[small[0]]}: values too small to standardize")
    return means, sds, constant


def _row_sum(values, rows, buffer, center=None):
    """Column sums of ``values``, or of its squared deviations from
    ``center``, added row after row through ``buffer``, ``rows`` at a time."""
    total = None
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        head = 0 if total is None else 1
        part = buffer[:head + len(block)]
        if head:
            part[0] = total
        out = part[head:]
        if center is None:
            out[...] = block
        else:
            np.subtract(block, center, out=out)
            np.multiply(out, out, out=out)
        total = part.sum(axis=0)
    return total


def standardize(ds):
    """Column-wise z-scores of a dataset using the sample (n-1) deviation.

    Raises on any constant column, or one too large to standardize, naming
    the indicator. The z-scores are the one table-sized array made: they are
    divided by the sds in place.
    """
    values = ds.values
    means, sds, constant = column_moments(values, ds.indicator_names)
    first = np.flatnonzero(constant)
    if first.size:
        raise ValidationError(f"zero variance: {ds.indicator_names[first[0]]}")
    z = values - means
    z /= sds
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
        values=ds.values.take(columns, axis=1),
        dropped_ids=ds.dropped_ids,
    )


