"""Loading, validating, and standardizing the cases-by-indicators table.

The input is a plain CSV: one header row, one identifier column (default:
the first), every other column numeric. Rows are cases (communities,
tracts, districts, ...), columns are indicators. A dataset is read-only
once built, and operations return new objects; only
``standardize(ds, overwrite=True)`` writes over its values.
"""

import csv
import difflib
import io
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from . import _rows
from .errors import ValidationError

_MIN_CASES = 3
_TINY = np.finfo(float).tiny  # the smallest normal float
_CHUNK_CELLS = 4096  # cells per parse block; bounds the text held at once
_SPLIT_BYTES = 3_000_000  # smallest file parsed on two cores: the break-even


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

    Blank rows are skipped, before the header too. The data rows are read
    by :func:`_rows.parse_rows` in blocks of about ``_CHUNK_CELLS`` cells,
    each converted in one pass where it can be and row by row where it
    cannot, with one ``float()`` rule; the values, ids, dropped ids and
    errors do not depend on the block size.

    A regular file of at least ``_SPLIT_BYTES`` bytes, with no ``"`` before
    the first newline after its middle, is parsed on two cores when more
    than one CPU is available and the platform has ``os.pread``. The file is
    opened once, and not split if it changed since its ``os.stat``. One
    short-lived child of ``sys.executable`` (``-I -S``, standard library
    only) runs ``_rows.parse_rows`` on the bytes after that newline, read
    from this open file as its stdin, while this process runs it on the
    bytes before it, read by position. If either half holds an error, or the
    child fails in any way, both halves are dropped and the file is parsed
    here from its first byte, so every error has one source; no child
    outlives the call.
    """
    if missing_policy not in ("error", "listwise"):
        raise ValidationError(
            f"missing_policy must be 'error' or 'listwise', got {missing_policy!r}"
        )
    loaded = _load_split(path, id_column, missing_policy)
    if loaded is None:
        loaded = _load_serial(path, id_column, missing_policy)
    indicator_names, case_ids, parsed, dropped = loaded
    if len(case_ids) < _MIN_CASES:
        raise ValidationError(
            f"{path}: fewer than {_MIN_CASES} complete rows after loading "
            f"({len(case_ids)} remain)"
        )
    values = np.frombuffer(parsed, dtype=float).reshape(len(case_ids),
                                                        len(indicator_names))
    return IndicatorDataset(tuple(case_ids), tuple(indicator_names), values,
                            tuple(dropped))


def _block_rows(width):
    return max(1, _CHUNK_CELLS // width)


def _load_serial(path, id_column, missing_policy):
    """``(indicator names, case ids, values, dropped ids)`` of the file, read
    in one pass in this process; the values are an ``array('d')``, row after
    row."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            width, id_index, names = _rows.header(reader, path, id_column)
            parsed = _rows.parse_rows(reader, _block_rows(width), id_index, names,
                                      missing_policy)
        except UnicodeDecodeError as exc:  # a ValueError, so it comes first
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    return (names, *parsed)


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _load_split(path, id_column, missing_policy):
    """What :func:`_load_serial` returns, parsed in two halves on two cores,
    or None when the file is not split or either half fails."""
    if (_cpus() < 2 or not hasattr(os, "pread") or not sys.executable
            or getattr(sys, "frozen", False)):
        return None
    try:
        st = os.stat(path)
    except (OSError, TypeError, ValueError):
        return None  # the serial open reports it
    # A FIFO is never opened here: a second open would miss its bytes.
    if not stat.S_ISREG(st.st_mode) or st.st_size < _SPLIT_BYTES:
        return None
    try:
        with open(path, "rb", buffering=0) as raw:
            opened = os.fstat(raw.fileno())
            if not (os.path.samestat(st, opened) and st.st_size == opened.st_size
                    and st.st_mtime_ns == opened.st_mtime_ns):
                return None  # changed since it was measured
            split = _split_offset(raw, st.st_size)
            if split is None:
                return None
            raw.seek(split)  # where the worker, reading raw as stdin, starts
            with io.TextIOWrapper(io.BufferedReader(_Head(raw.fileno(), split)),
                                  encoding="utf-8-sig", newline="") as head:
                return _parse_halves(csv.reader(head), raw, path, id_column,
                                     missing_policy)
    except (ValueError, csv.Error, OSError):
        return None  # the serial parse reports what went wrong


def _parse_halves(reader, tail, path, id_column, missing_policy):
    """Parse the head's rows from ``reader`` while a worker parses the rest
    of the open file ``tail`` from its offset on; None if the worker fails."""
    width, id_index, names = _rows.header(reader, path, id_column)
    rows = _block_rows(width)
    import subprocess  # here, so that importing the package does not pay for it

    with subprocess.Popen(_rows.command(width, id_index, missing_policy, rows),
                          bufsize=_rows.READ_BYTES, stdin=tail,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as worker:
        try:
            parsed = _rows.parse_rows(reader, rows, id_index, names, missing_policy)
            if _rows.read_tail(worker.stdout, *parsed) and worker.wait() == 0:
                return (names, *parsed)
        finally:
            worker.kill()
            worker.wait()
    return None


def _split_offset(raw, size):
    """The offset just past the first newline at or after the middle of the
    ``size``-byte binary file ``raw``, read from its start; None when no byte
    follows that newline, or when a ``"`` comes before it, since a quoted
    field could then hold the newline."""
    middle = size // 2
    buffer = bytearray(_rows.READ_BYTES)
    start = 0
    while n := raw.readinto(buffer):
        newline = buffer.find(b"\n", max(middle - start, 0), n)
        end = n if newline < 0 else newline + 1
        if buffer.find(b'"', 0, end) >= 0:
            return None
        if newline >= 0:
            return start + end if start + end < size else None
        start += n
    return None


class _Head(io.RawIOBase):
    """The first ``size`` bytes of the file open on descriptor ``fd``, read by
    position, so that the descriptor's offset is left to the worker."""

    def __init__(self, fd, size):
        self._fd = fd
        self._size = size
        self._at = 0

    def readable(self):
        return True

    def readinto(self, buffer):
        data = os.pread(self._fd, min(len(buffer), self._size - self._at), self._at)
        buffer[:len(data)] = data
        self._at += len(data)
        return len(data)


def column_moments(values, names):
    """Column means, sample (n-1) sds and constant mask of ``values``, whose
    columns are ``names``. A column is constant when its values are all equal
    (their sd need not round to 0) or its sd is exactly 0 (their squared
    deviations underflow). Any other column is rejected by name when its mean
    or sd overflows, or when its squared deviations sum to less than n times
    the smallest normal float (an sd below about 1.5e-154): a subnormal
    square is off by up to half its spacing, which from that bound up costs
    the sum at most half an ulp.

    The means are ``values.sum(axis=0) / n``, as ``values.mean(axis=0)``
    computes them. The squared deviations are summed in row blocks of about
    ``_CHUNK_CELLS`` cells, each block's sum starting from the running total,
    which is numpy's own axis-0 order for a C-ordered table. So the sds are
    bit for bit ``values.std(axis=0, ddof=1)``, whatever the block size,
    without its table-sized temporary. numpy sums a single column pairwise
    instead, so one column is one block.
    """
    n, p = values.shape
    rows = n if p == 1 else max(1, _CHUNK_CELLS // p)
    buffer = np.empty((min(rows, n) + 1, p))  # running total, then a block
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.sum(axis=0) / n
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


def _row_sum(values, rows, buffer, center):
    """Column sums of the squared deviations of ``values`` from ``center``,
    added row after row through ``buffer``, ``rows`` at a time."""
    total = None
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        head = 0 if total is None else 1
        part = buffer[:head + len(block)]
        if head:
            part[0] = total
        out = part[head:]
        np.subtract(block, center, out=out)
        np.multiply(out, out, out=out)
        total = part.sum(axis=0)
    return total


def standardize(ds, overwrite=False):
    """Column-wise z-scores of a dataset using the sample (n-1) deviation.

    Raises on any constant column, or one too large to standardize, naming
    the indicator. The z-scores are the one table-sized array made: they are
    divided by the sds in place. With ``overwrite``, none is made: once every
    column has passed, the z-scores are written over ``ds.values`` itself, so
    ``ds`` must not be read again. Its buffer must be writable, as those of
    :func:`load_csv` and :func:`select_variables` are. The z-scores are the
    same bits either way.
    """
    values = ds.values
    means, sds, constant = column_moments(values, ds.indicator_names)
    first = np.flatnonzero(constant)
    if first.size:
        raise ValidationError(f"zero variance: {ds.indicator_names[first[0]]}")
    if overwrite:
        values.setflags(write=True)
        z = np.subtract(values, means, out=values)
    else:
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


