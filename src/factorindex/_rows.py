"""The block parse of table rows, shared by ``dataset`` and its tail worker.

This module imports only the standard library and no other module of the
package, so that it can also run as a script in an interpreter started
with ``-I -S``: ``dataset.load_csv`` starts it on the second half of a
large file while it parses the first half itself (see :func:`main`).
Both halves go through :func:`parse_block`, so they cannot drift apart.
"""

# csv.reader and csv.Error are _csv's; csv.py would add an import of re,
# half the worker's start-up time.
import _csv
import io
import marshal
import os
import sys
from array import array
from itertools import chain, compress
from math import isfinite
from operator import not_


def is_blank(row):
    """True for a row the loader skips: no cells, or only blank ones."""
    return not row or not any(cell.strip() for cell in row)


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
    None means the row-by-row parse must take the block: a non-blank row of
    another width, a blank id, a cell ``float()`` rejects other than an empty
    one, or a non-finite cell under ``missing_policy="error"``. Blank rows are
    looked for only when the whole block is refused, so they cost nothing in
    a block that has none.
    """
    whole = _parse_rows(block, width, id_index, missing_policy)
    if whole is None:
        rows = [row for row in block if not is_blank(row)]
        if len(rows) < len(block):
            whole = _parse_rows(rows, width, id_index, missing_policy)
    return whole


def _parse_rows(rows, width, id_index, missing_policy):
    """:func:`parse_block` of ``rows``, none of them skipped."""
    if not width or set(map(len, rows)) - {width}:
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


def parse_rows(reader, size, width, id_index, missing_policy):
    """``(ids, values, dropped ids)`` of every row of ``reader``, read in
    blocks of ``size`` rows, or None if :func:`parse_block` refuses a block."""
    ids, values, dropped = [], array("d"), []
    for block in blocks(reader, size):
        whole = parse_block(block, width, id_index, missing_policy)
        if whole is None:
            return None
        ids += whole[0]
        values += whole[1]
        dropped += whole[2]
    return ids, values, dropped


def main(argv):
    """Parse the rows of a file from a byte offset on; write them to stdout.

    ``argv`` is ``PATH OFFSET DEV INO SIZE MTIME_NS WIDTH ID_INDEX POLICY
    BLOCK_ROWS FIELD_LIMIT``. The file must still be the one described by
    ``DEV INO SIZE MTIME_NS``. Its bytes from ``OFFSET`` on, which must
    start a record, are decoded as UTF-8 (a U+FEFF there is data) and
    parsed with :func:`parse_rows`. On success the output is
    ``marshal((ids, dropped ids, number of values))`` followed by the
    values as native doubles, and the exit status is 0; any other status
    means the caller must parse the whole file itself.
    """
    path, offset, *identity = argv[:6]
    width, id_index, policy, size, limit = argv[6:]
    _csv.field_size_limit(int(limit))
    with open(path, "rb") as raw:
        st = os.fstat(raw.fileno())
        if list(map(int, identity)) != [st.st_dev, st.st_ino, st.st_size,
                                        st.st_mtime_ns]:
            return 2
        raw.seek(int(offset))
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as text:
            parsed = parse_rows(_csv.reader(text), int(size), int(width),
                                int(id_index), policy)
    if parsed is None:
        return 3
    ids, values, dropped = parsed
    out = sys.stdout.buffer
    marshal.dump((ids, dropped, len(values)), out)
    out.write(values)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
