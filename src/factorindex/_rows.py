"""The table's text format, and the protocol of the two-core parse's worker.

:func:`parse_rows` is the one loop over data rows. ``dataset.load_csv``
runs it on a whole file, or on the first half of a large one while this
module, run as a script (:func:`command`), parses the rest from its stdin
(:func:`main`) for :func:`read_tail` to read. This module imports only
the standard library and no other module of the package, so that it can
run in an interpreter started with ``-I -S``.
"""

# csv.reader and csv.Error are _csv's; csv.py would add an import of re,
# half the worker's start-up time.
import _csv
import io
import marshal
import sys
from array import array
from itertools import chain, compress
from math import isfinite
from operator import not_

READ_BYTES = 1 << 16  # bytes read at once from a file or the worker's output


def is_blank(row):
    """True for a row the loader skips: no cells, or only blank ones."""
    return not row or not any(cell.strip() for cell in row)


def header(reader, path, id_column):
    """``(width, id index, indicator names)`` from the first non-blank row of
    ``reader``; ``id_column`` names the id column (default: the first)."""
    for row in reader:
        if not is_blank(row):
            break
    else:
        raise ValueError(f"{path}: file is empty")
    row = [name.strip() for name in row]
    if id_column is None:
        id_index = 0
    elif id_column in row:
        id_index = row.index(id_column)
    else:
        raise ValueError(f"id column {id_column!r} not found; header has {row}")
    return len(row), id_index, row[:id_index] + row[id_index + 1:]


def blocks(reader, size):
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
    except (_csv.Error, UnicodeDecodeError):
        if block:
            yield block
        raise
    if block:
        yield block


def parse_block(block, width, id_index, missing_policy):
    """``(ids, values, dropped ids)`` of the non-blank rows of ``block``, or None.

    ``values`` is an ``array('d')`` of the kept rows' cells, row after row.
    None means :func:`parse_row` must take the block: a non-blank row of
    another width, a blank id, a cell ``float()`` rejects other than an empty
    one, or a non-finite cell under ``missing_policy="error"``. Blank rows are
    looked for only when the whole block is refused, so they cost nothing in
    a block that has none.
    """
    whole = _parse_whole(block, width, id_index, missing_policy)
    if whole is None:
        rows = [row for row in block if not is_blank(row)]
        if len(rows) < len(block):
            whole = _parse_whole(rows, width, id_index, missing_policy)
    return whole


def _parse_whole(rows, width, id_index, missing_policy):
    """:func:`parse_block` of ``rows``, none of them skipped."""
    if set(map(len, rows)) - {width}:
        return None
    cells = list(chain.from_iterable(rows))
    ids = list(map(str.strip, cells[id_index::width]))
    if "" in ids:
        return None
    del cells[id_index::width]
    if "" in cells:  # a missing cell; the row parse reads it as nan too
        cells = ["nan" if cell == "" else cell for cell in cells]
    try:
        floats = list(map(float, cells))
    except ValueError:
        return None
    # A nan or an infinity makes a sum non-finite; so can finite cells that
    # overflow it, which all(map(isfinite, ...)) then clears.
    if isfinite(sum(floats)):
        return ids, array("d", floats), []
    values = list(zip(*[iter(floats)] * (width - 1)))  # one tuple a row
    complete = [isfinite(sum(row)) or all(map(isfinite, row)) for row in values]
    if all(complete):
        return ids, array("d", floats), []
    if missing_policy == "error":
        return None
    return (list(compress(ids, complete)),
            array("d", chain.from_iterable(compress(values, complete))),
            list(compress(ids, map(not_, complete))))


def parse_rows(reader, size, id_index, names, missing_policy):
    """``(ids, values, dropped ids)`` of every data row of ``reader``, whose
    indicator columns are ``names``, read in blocks of ``size`` rows.

    A block that :func:`parse_block` refuses goes row by row through
    :func:`parse_row`, which raises ValueError at the first bad row. Both
    call ``float()`` on the same text, so the result does not depend on
    where the blocks fall.
    """
    width = len(names) + 1
    ids, values, dropped = [], array("d"), []
    for block in blocks(reader, size):
        whole = parse_block(block, width, id_index, missing_policy)
        if whole is not None:
            ids += whole[0]
            values += whole[1]
            dropped += whole[2]
            continue
        for row in block:
            if is_blank(row):
                continue
            row_number = len(ids) + len(dropped) + 1
            case_id, data = parse_row(row, row_number, id_index, names,
                                      missing_policy)
            if data is None:
                dropped.append(case_id)
            else:
                ids.append(case_id)
                values.extend(data)
    return ids, values, dropped


def parse_row(row, row_number, id_index, names, missing_policy):
    """``(case id, values)`` of one non-blank data row; values is None if the
    row is dropped. Raises ValueError naming the row and the column."""
    if len(row) != len(names) + 1:
        raise ValueError(
            f"row {row_number}: expected {len(names) + 1} fields, got {len(row)}"
        )
    case_id = row.pop(id_index).strip()
    data = []
    missing_here = False
    for name, cell in zip(names, row):
        try:
            value = float(cell)
        except ValueError:
            # float() ignores surrounding whitespace but for 0x1c-0x1f,
            # which strip() also removes; a blank cell is missing.
            text = cell.strip()
            try:
                value = float(text or "nan")
            except ValueError:
                raise ValueError(
                    f"non-numeric value {text!r} at row {row_number}, "
                    f"column {name!r}"
                ) from None
        if not isfinite(value):
            missing_here = True
            if missing_policy == "error":
                raise ValueError(
                    f"missing value at row {row_number}, column {name!r} "
                    f"(case {case_id!r}); use missing_policy='listwise' to drop"
                )
        data.append(value)
    if not case_id:
        raise ValueError(f"row {row_number}: blank case id")
    return case_id, None if missing_here else data


def command(width, id_index, policy, size):
    """The command that runs :func:`main` on rows ``width`` fields wide, with
    the id in field ``id_index``, under the missing policy ``policy``, in
    blocks of ``size`` rows, and with this process's CSV field limit."""
    return [sys.executable, "-I", "-S", __file__,
            *map(str, (width, id_index, policy, size, _csv.field_size_limit()))]


def main(argv):
    """Parse the rows on stdin; write them to stdout.

    ``argv`` is ``WIDTH ID_INDEX POLICY BLOCK_ROWS FIELD_LIMIT``. The bytes on
    stdin, from its current offset on, which must start a record, are decoded
    as UTF-8 (a U+FEFF there is data) and parsed with :func:`parse_rows`. On
    success the output is ``marshal((ids, dropped ids, number of values))``
    followed by the values as native doubles, which :func:`read_tail` reads,
    and the exit status is 0. A bad row raises, and any non-zero status means
    the caller must parse the whole file itself, which reports the error; so
    the indicator names, which only error messages use, are left blank here.
    """
    width, id_index, policy, size, limit = argv
    _csv.field_size_limit(int(limit))
    with io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="") as text:
        ids, values, dropped = parse_rows(_csv.reader(text), int(size),
                                          int(id_index),
                                          ("",) * (int(width) - 1), policy)
    out = sys.stdout.buffer
    marshal.dump((ids, dropped, len(values)), out)
    out.write(values)
    out.flush()
    return 0


def read_tail(stream, case_ids, values, dropped):
    """Append the ids, values and dropped ids that :func:`main` wrote to
    ``stream``; False if its output is cut short or malformed."""
    step = READ_BYTES // values.itemsize
    try:
        ids, incomplete, count = marshal.load(stream)
        for start in range(0, count, step):
            values.fromfile(stream, min(step, count - start))
    except (EOFError, ValueError, TypeError):
        return False
    case_ids += ids
    dropped += incomplete
    return True


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
