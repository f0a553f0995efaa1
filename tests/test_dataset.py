import csv
import gc
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from factorindex import _rows, cli, dataset
from factorindex.dataset import (IndicatorDataset, load_csv, select_variables,
                                 standardize)
from factorindex.errors import ValidationError

from conftest import (dataset_from, force_split, make_table, record_workers,
                      write_table_csv)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_direct_transcription(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,3,4\nZ,5,6\n")
        ds = load_csv(path)
        assert ds.case_ids == ("X", "Y", "Z")
        assert ds.indicator_names == ("a", "b")
        np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_preserves_row_order(self, tmp_path):
        path = write(tmp_path, "id,a,b\nZ,1,1\nA,2,2\nM,3,3\n")
        assert load_csv(path).case_ids == ("Z", "A", "M")

    def test_id_column_by_name(self, tmp_path):
        path = write(tmp_path, "a,community,b\n1,X,2\n3,Y,4\n5,Z,6\n")
        ds = load_csv(path, id_column="community")
        assert ds.case_ids == ("X", "Y", "Z")
        assert ds.indicator_names == ("a", "b")
        np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "community,VMT,b\nX,1,2\nY,abc,4\nZ,5,6\n")
        with pytest.raises(ValidationError, match=r"'abc' at row 2, column 'VMT'"):
            load_csv(path)

    def test_blank_cell_rejected_by_default(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,,4\nZ,5,6\n")
        with pytest.raises(ValidationError, match="missing value at row 2"):
            load_csv(path)

    def test_listwise_drops_case_with_warning(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,,4\nZ,5,6\nW,7,8\n")
        ds = load_csv(path, missing_policy="listwise")
        assert ds.dropped_ids == ("Y",)
        assert ds.case_ids == ("X", "Z", "W")
        assert ds.n_cases == 3

    def test_listwise_drops_literal_nan_and_inf(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,nan,4\nZ,5,6\n"
                               "V,7,-inf\nW,7,8\nU,inf,NaN\n")
        ds = load_csv(path, missing_policy="listwise")
        assert ds.dropped_ids == ("Y", "V", "U")
        assert ds.case_ids == ("X", "Z", "W")
        np.testing.assert_array_equal(ds.values, [[1, 2], [5, 6], [7, 8]])
        assert select_variables(ds, ["b"]).dropped_ids == ("Y", "V", "U")

    def test_listwise_too_few_rows(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,,4\nZ,5,6\n")
        with pytest.raises(ValidationError,
                           match=r"fewer than 3 complete rows after loading \(2 remain\)"):
            load_csv(path, missing_policy="listwise")

    def test_duplicate_case_id(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nX,3,4\nZ,5,6\n")
        with pytest.raises(ValidationError, match="duplicate case id: 'X'"):
            load_csv(path)

    @pytest.mark.parametrize("body, row, policy", [
        ("X,1,2\n,3,4\nZ,5,6\nW,7,8\n", 2, "error"),
        ("X,1,2\n  ,3,4\nZ,5,6\nW,7,8\n", 2, "error"),
        ("X,1,2\n,,4\nZ,5,6\nW,7,8\n", 2, "listwise"),
        (",1,2\n,3,4\nZ,5,6\n", 1, "error"),
    ])
    def test_blank_case_id_names_row(self, tmp_path, body, row, policy):
        path = write(tmp_path, "community,a,b\n" + body)
        with pytest.raises(ValidationError, match=f"^row {row}: blank case id$"):
            load_csv(path, missing_policy=policy)

    def test_surrounding_whitespace_and_separators_are_ignored(self, tmp_path):
        path = write(tmp_path,
                     "community,a,b\nX, 1 ,\t2\nY,\x1f3,4\x1c\nZ,5,  \n")
        with pytest.raises(ValidationError, match="missing value at row 3"):
            load_csv(path)
        path = write(tmp_path, "community,a,b\nX, 1 ,\t2\nY,\x1f3,4\x1c\nZ,5,6\n")
        np.testing.assert_array_equal(load_csv(path).values, [[1, 2], [3, 4], [5, 6]])

    @pytest.mark.parametrize("split", [False, True])
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, monkeypatch,
                                                        split):
        body = "id,a,b\nX,1,2\nY,3,4\nZ,5,6\nW,7,8\n"
        expected = outcome(write(tmp_path, body), "error")
        path = write(tmp_path, "\n , ,\r\n" + body, name="blank_first.csv")
        started = force_split(monkeypatch) if split else []
        assert outcome(path, "error") == expected
        assert len(started) == split

    @pytest.mark.parametrize("split", [False, True])
    def test_a_file_of_blank_lines_is_empty(self, tmp_path, monkeypatch, split):
        path = write(tmp_path, "\n , ,\r\n\n,,\n")
        if split:
            force_split(monkeypatch)
        assert outcome(path, "error") == f"{path}: file is empty"

    def test_unknown_id_column(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,3,4\nZ,5,6\n")
        with pytest.raises(ValidationError, match="id column"):
            load_csv(path, id_column="nope")

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path,
                     'community,"a,score",b\n"X, east",1,2\nY,3,4\nZ,5,6\n')
        ds = load_csv(path)
        assert ds.case_ids[0] == "X, east"
        assert ds.indicator_names == ("a,score", "b")

    def test_bad_policy(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,3,4\nZ,5,6\n")
        with pytest.raises(ValidationError, match="missing_policy"):
            load_csv(path, missing_policy="impute")


    def test_peak_memory_per_cell(self, tmp_path):
        check_peak_memory_per_cell(tmp_path)

    def test_peak_memory_per_cell_with_the_split_forced(self, tmp_path, monkeypatch):
        started = force_split(monkeypatch)
        check_peak_memory_per_cell(tmp_path)
        assert len(started) == 2


def check_peak_memory_per_cell(tmp_path):
    # The values are kept in one flat float64 buffer, not as one Python
    # float per cell, and a parse block holds a bounded number of cells
    # whatever the table's width.
    for n, p, bound in ((5000, 12, 40), (2000, 120, 20)):
        path = write_table_csv(tmp_path / f"table_{n}x{p}.csv",
                               [f"tract_{i:05d}" for i in range(n)],
                               [f"v{j}" for j in range(p)],
                               np.random.RandomState(5).randn(n, p))
        tracemalloc.start()
        try:
            ds = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.values.shape == (n, p)
        assert peak < bound * n * p, (n, p, peak / (n * p))


def outcome(path, policy):
    """``(ids, value bytes, dropped ids)`` of :func:`load_csv`, or its error text."""
    try:
        ds = load_csv(path, missing_policy=policy)
    except ValidationError as exc:
        return str(exc)
    return ds.case_ids, ds.values.tobytes(), ds.dropped_ids


GOOD_ROWS = "".join(f"G{i},{i}.5,{-i}.25\n" for i in range(6))
OVERSIZED = "Q,1," + "9" * 140_000 + "\n"  # over csv's default field limit
# Rows enough to push what follows past the first 8 KiB decoded from the file.
PADDING = "".join(f"P{i:04d},1.25,2.5\n" for i in range(700))

# Bodies under the header "id,a,b": each is read with a block budget of
# 1 cell (one row a block), 7 cells (two rows) and the default (one block).
BLOCK_BODIES = {
    "listwise blanks at a block boundary":
        "A,1,2\nB,3,\nC,,6\nD,7,8\nE,9,\nF,11,12\n" + GOOD_ROWS,
    "blank lines and rows mid-file":
        "A,1,2\n\nB,3,4\n , ,\n,,\nC,5,6\nD,x,8\n",
    "blank lines and rows, all valid":
        "A,1,2\n\nB,3,4\n , ,\n,,\nC,5,6\nD,7,8\n",
    "ragged row": GOOD_ROWS + "R,1\n" + GOOD_ROWS.replace("G", "H"),
    "blank id": GOOD_ROWS + " ,1,2\n",
    "blank id and a bad cell": GOOD_ROWS + ",abc,2\n",
    "bad row, then an oversized field": "A,1,2\nB,3,4\nC,abc,6\n" + OVERSIZED,
    "oversized field": GOOD_ROWS + OVERSIZED,
    "bad row, then a non-UTF-8 byte":
        "A,1,2\nB,abc,4\n" + PADDING + "X,\xff,1\n",
    "non-UTF-8 byte": GOOD_ROWS + PADDING + "X,\xff,1\n",
}
for cell in ("abc", " ", "nan", "inf", "1e999", "\x1c5\x1c", "", "-0.0", "1_0"):
    BLOCK_BODIES[f"cell {cell!r}"] = f"A,1,2\nB,3,4\nC,5,{cell}\n" + GOOD_ROWS

# U+FEFF in UTF-8, as Latin-1 text. A body that starts with it is written
# after a byte-order mark that comes before the header.
BOM = "\xef\xbb\xbf"
LATER_ROWS = GOOD_ROWS.replace("G", "H")
# Bodies whose row of interest falls after the first newline past the
# middle of the file, where load_csv splits a file in two.
BLOCK_BODIES.update({
    "a byte-order mark": BOM + GOOD_ROWS + LATER_ROWS,
    "ids that start with U+FEFF": GOOD_ROWS + LATER_ROWS.replace("H", BOM + "H"),
    "CRLF line endings": (GOOD_ROWS + LATER_ROWS).replace("\n", "\r\n"),
    "a quoted newline early": '"Q\nR",1,2\n' + GOOD_ROWS + LATER_ROWS,
    "a quoted newline late": GOOD_ROWS + LATER_ROWS + '"Q\nR",1,2\n',
    "trailing blank lines": GOOD_ROWS + LATER_ROWS + "\n , ,\r\n",
    "an id repeated late": GOOD_ROWS + LATER_ROWS + "G0,1,2\n",
    "a blank cell late": GOOD_ROWS + LATER_ROWS + "D,1,\n",
    "a bad cell late": GOOD_ROWS + LATER_ROWS + "D,1,x\n",
    "a padded cell late": GOOD_ROWS + LATER_ROWS + "D,1,\x1c5\x1c\n",
})


def write_body(tmp_path, name):
    path = tmp_path / "data.csv"
    body = BLOCK_BODIES[name]
    bom = BOM if body.startswith(BOM) else ""
    # Latin-1 keeps the ASCII text and makes "\xff" the one byte UTF-8 rejects.
    path.write_bytes((bom + "id,a,b\n" + body[len(bom):]).encode("latin-1"))
    return path


def splits(path):
    """Whether load_csv may split ``path`` once it is large enough: a byte
    follows the first newline at or after the middle, and no quote precedes
    it."""
    data = path.read_bytes()
    end = data.find(b"\n", len(data) // 2) + 1
    return 0 < end < len(data) and b'"' not in data[:end]


class TestBlockParse:
    """The one-pass block parse gives what the per-row rule alone gives."""

    @pytest.mark.parametrize("cells", [1, 7, dataset._CHUNK_CELLS])
    @pytest.mark.parametrize("policy", ["error", "listwise"])
    @pytest.mark.parametrize("name", sorted(BLOCK_BODIES))
    def test_matches_the_row_parse(self, tmp_path, monkeypatch, name, policy, cells):
        path = write_body(tmp_path, name)
        monkeypatch.setattr(dataset, "_CHUNK_CELLS", cells)
        blocks = outcome(path, policy)
        monkeypatch.setattr(_rows, "parse_block", lambda *args: None)
        assert blocks == outcome(path, policy)

    @pytest.mark.parametrize("policy", ["error", "listwise"])
    @pytest.mark.parametrize("name", sorted(BLOCK_BODIES))
    def test_the_split_matches_the_serial_parse(self, tmp_path, monkeypatch, name,
                                                policy):
        path = write_body(tmp_path, name)
        serial = outcome(path, policy)
        started = force_split(monkeypatch)
        assert outcome(path, policy) == serial
        assert len(started) == splits(path)

    def test_the_bodies_reach_the_split(self, tmp_path):
        late = [name for name in BLOCK_BODIES if "late" in name or "U+FEFF" in name]
        for name in late + ["a byte-order mark", "CRLF line endings",
                            "trailing blank lines", "non-UTF-8 byte"]:
            assert splits(write_body(tmp_path, name)), name
        assert not splits(write_body(tmp_path, "a quoted newline early"))

    @pytest.mark.parametrize("cells", [1, 7, dataset._CHUNK_CELLS])
    @pytest.mark.parametrize("name, message", [
        ("bad row, then an oversized field", "non-numeric value 'abc' at row 3"),
        ("oversized field", "line 8: field larger than field limit"),
        ("bad row, then a non-UTF-8 byte", "non-numeric value 'abc' at row 2"),
        ("non-UTF-8 byte", "not UTF-8 text"),
    ])
    def test_read_errors_keep_their_order(self, tmp_path, monkeypatch, name,
                                          message, cells):
        path = write_body(tmp_path, name)
        monkeypatch.setattr(dataset, "_CHUNK_CELLS", cells)
        assert message in outcome(path, "listwise")


def no_workers(monkeypatch):
    def refuse(command, **kwargs):
        raise AssertionError(f"a worker was started: {command}")

    monkeypatch.setattr(subprocess, "Popen", refuse)


def fake_worker(tmp_path, monkeypatch, source):
    """Run the Python ``source`` in place of the tail worker."""
    script = tmp_path / "worker.py"
    script.write_text(source, encoding="utf-8")
    monkeypatch.setattr(_rows, "__file__", str(script))


class TestSplit:
    """When load_csv starts a worker, and that it never outlives the call."""

    @pytest.mark.parametrize("case", ["one CPU", "no executable", "a quote early",
                                      "a small file"])
    def test_no_worker(self, tmp_path, monkeypatch, case):
        name = "a blank cell late"
        if case == "a quote early":
            name = "a quoted newline early"
        path = write_body(tmp_path, name)
        serial = outcome(path, "listwise")
        force_split(monkeypatch)
        no_workers(monkeypatch)
        if case == "one CPU":
            monkeypatch.setattr(dataset, "_cpus", lambda: 1)
        elif case == "no executable":
            monkeypatch.setattr(sys, "executable", "")
        elif case == "a small file":
            monkeypatch.setattr(dataset, "_SPLIT_BYTES", path.stat().st_size + 1)
        assert outcome(path, "listwise") == serial

    @pytest.mark.parametrize("name", [
        "a byte-order mark", "ids that start with U+FEFF", "CRLF line endings",
        "trailing blank lines", "a blank cell late", "an id repeated late",
        "a padded cell late",
    ])
    def test_both_halves_take_these(self, tmp_path, monkeypatch, name):
        path = write_body(tmp_path, name)
        serial = outcome(path, "listwise")
        started = force_split(monkeypatch)

        def refuse(*args):
            raise AssertionError("the split fell back to one process")

        monkeypatch.setattr(dataset, "_load_serial", refuse)
        assert outcome(path, "listwise") == serial
        assert [worker.returncode for worker in started] == [0]

    def test_no_worker_for_a_fifo(self, tmp_path, monkeypatch):
        path = write_body(tmp_path, "a blank cell late")
        serial = outcome(path, "listwise")
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        force_split(monkeypatch)
        no_workers(monkeypatch)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        try:
            assert outcome(fifo, "listwise") == serial
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_the_real_cpu_count_decides(self, tmp_path, monkeypatch):
        # Under `taskset -c 0` this takes the one-CPU branch without a patch.
        path = write_body(tmp_path, "a blank cell late")
        serial = outcome(path, "listwise")
        monkeypatch.setattr(dataset, "_SPLIT_BYTES", 0)
        started = record_workers(monkeypatch)
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count()
        assert outcome(path, "listwise") == serial
        assert len(started) == (cpus > 1 and hasattr(os, "pread"))

    @pytest.mark.parametrize("worker", [
        "raise SystemExit(1)",
        "raise RuntimeError('worker crashed')",
        "",  # exit 0, no output
        "import marshal, sys\n"  # cut short
        "sys.stdout.buffer.write(marshal.dumps((['Z'], [], 2)) + bytes(8))",
        "import marshal, sys\n"  # whole, but a failure
        "sys.stdout.buffer.write(marshal.dumps((['Z'], [], 2)) + bytes(16))\n"
        "sys.stdout.flush()\n"
        "raise SystemExit(1)",
        "import time\ntime.sleep(60)",  # still running when the head is refused
    ])
    def test_a_failed_worker_leaves_nothing(self, tmp_path, monkeypatch, worker):
        name = "a blank cell late" if "sleep" not in worker else "cell 'abc'"
        path = write_body(tmp_path, name)
        serial = outcome(path, "listwise")
        started = force_split(monkeypatch)
        fake_worker(tmp_path, monkeypatch, worker)
        start = time.monotonic()
        self.check_nothing_left(lambda: outcome(path, "listwise"), serial)
        assert time.monotonic() - start < 30  # the sleeper was killed, not awaited
        assert len(started) == 1

    def test_the_field_limit_reaches_the_worker(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text("id,a,b\n" + PADDING + "Q,1," + "9" * 200 + "\n" + GOOD_ROWS,
                        encoding="ascii")
        limit = csv.field_size_limit(100)
        try:
            serial = outcome(path, "listwise")
            started = force_split(monkeypatch)
            split = outcome(path, "listwise")
        finally:
            csv.field_size_limit(limit)
        assert split == serial and "field larger than field limit" in serial
        assert len(started) == 1

    def test_a_changed_file_is_refused(self, tmp_path, monkeypatch):
        path = write_body(tmp_path, "a blank cell late")
        serial = outcome(path, "listwise")
        started = force_split(monkeypatch)
        real_stat = os.stat

        def stat(name, *args, **kwargs):
            st = real_stat(name, *args, **kwargs)
            if os.fspath(name) != os.fspath(path):
                return st
            # The file as it was a nanosecond before it was opened.
            return types.SimpleNamespace(st_mode=st.st_mode, st_size=st.st_size,
                                         st_dev=st.st_dev, st_ino=st.st_ino,
                                         st_mtime_ns=st.st_mtime_ns - 1)

        monkeypatch.setattr(dataset.os, "stat", stat)
        assert outcome(path, "listwise") == serial
        assert started == []

    def test_a_file_replaced_after_the_split_is_read_as_opened(self, tmp_path,
                                                               monkeypatch):
        path = tmp_path / "data.csv"
        rows = "".join(f"r{i},{i}.5,{-i}.25\n" for i in range(40))
        path.write_text("id,a,b\n" + rows, encoding="ascii")
        serial = outcome(path, "listwise")
        started = force_split(monkeypatch)
        split_offset = dataset._split_offset

        def replacing(raw, size):
            split = split_offset(raw, size)
            replacement = tmp_path / "replacement.csv"
            replacement.write_text("id,a,b\n" + rows.replace("r", "s"),
                                   encoding="ascii")
            os.replace(replacement, path)
            return split

        monkeypatch.setattr(dataset, "_split_offset", replacing)
        assert outcome(path, "listwise") == serial
        assert serial[0][0] == "r0"
        assert [worker.returncode for worker in started] == [0]

    def test_a_refused_tail_leaves_nothing(self, tmp_path, monkeypatch):
        path = write_body(tmp_path, "a bad cell late")
        serial = outcome(path, "error")
        started = force_split(monkeypatch)
        self.check_nothing_left(lambda: outcome(path, "error"), serial)
        assert len(started) == 1 and "non-numeric value 'x' at row 13" in serial

    def test_an_interrupt_leaves_nothing(self, tmp_path, monkeypatch):
        path = write_body(tmp_path, "a blank cell late")
        started = force_split(monkeypatch)
        fake_worker(tmp_path, monkeypatch, "import time\ntime.sleep(60)")

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(_rows, "parse_rows", interrupted)

        def load():
            with pytest.raises(KeyboardInterrupt):
                load_csv(path, missing_policy="listwise")
            return "interrupted"

        self.check_nothing_left(load, "interrupted")
        assert len(started) == 1

    @staticmethod
    def check_nothing_left(call, expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert call() == expected
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        with pytest.raises(ChildProcessError):  # no child, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_the_worker_imports_no_slow_module(self):
        # _SPLIT_BYTES rests on the worker's short start; csv.py's import of
        # re alone would double it. With no arguments the worker exits
        # non-zero after its imports.
        proc = subprocess.run([sys.executable, "-I", "-S", "-X", "importtime",
                               _rows.__file__], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode != 0
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "_csv" in imported
        assert not [name for name in imported
                    if name in ("re", "csv") or name.split(".")[0] in ("numpy",
                                                                        "factorindex")]

    def test_a_worker_traceback_stays_off_stderr(self, tmp_path, monkeypatch, capfd):
        ids, names, values = make_table()
        path = write_table_csv(tmp_path / "table.csv", ids, names, values)
        argv = ["analyze", "--input", path, "--out-dir", str(tmp_path / "out"),
                "--k", "2"]
        assert cli.main(argv) == 0
        serial = capfd.readouterr()
        started = force_split(monkeypatch)
        fake_worker(tmp_path, monkeypatch, "raise RuntimeError('worker crashed')")
        assert cli.main(argv) == 0
        split = capfd.readouterr()
        assert len(started) == 1
        assert split.err == serial.err == ""
        assert split.out == serial.out


class TestDatasetInvariants:
    def test_too_few_cases(self):
        with pytest.raises(ValidationError, match="at least 3 cases"):
            dataset_from(["a", "b"], ["x", "y"], [[1, 2], [3, 4]])

    def test_no_indicators(self):
        with pytest.raises(ValidationError, match="need at least 1 indicator, got 0"):
            dataset_from(["a", "b", "c"], [], np.empty((3, 0)))

    def test_values_are_c_ordered_and_loaded_values_not_copied(self, tmp_path):
        ds = dataset_from(["a", "b", "c"], ["x", "y"],
                          np.asfortranarray([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert ds.values.flags.c_contiguous
        path = write_table_csv(tmp_path / "t.csv", ["a", "b", "c"], ["x", "y"],
                               [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        values = load_csv(path).values
        assert values.flags.c_contiguous and not values.flags.owndata  # the parse buffer

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            dataset_from(["a", "b", "c"], ["x", "y"],
                         [[1, 2], [np.inf, 4], [5, 6]])

    def test_values_immutable(self):
        ds = dataset_from(["a", "b", "c"], ["x", "y"], [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 99.0


class TestStandardize:
    def test_simple_column(self):
        ds = dataset_from(["a", "b", "c"], ["x", "y"],
                          [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        z = standardize(ds)
        np.testing.assert_allclose(z.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
        assert z.column_means[0] == pytest.approx(2.0)
        assert z.column_sds[0] == pytest.approx(1.0)

    def test_constant_column_named(self):
        ds = dataset_from(["a", "b", "c"], ["x", "flat"],
                          [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(ValidationError, match="zero variance: flat"):
            standardize(ds)

    @pytest.mark.parametrize("n", [88, 2000])
    @pytest.mark.parametrize("level", [123456.789, 987654321.123])
    def test_constant_column_named_at_any_magnitude(self, n, level):
        # The rounded mean of these equal values leaves an sd above 1e-12.
        values = np.column_stack([np.arange(n, dtype=float), np.full(n, level)])
        ds = dataset_from([f"c{i}" for i in range(n)], ["x", "flat"], values)
        assert values[:, 1].std(ddof=1) > 1e-12
        with pytest.raises(ValidationError, match="^zero variance: flat$"):
            standardize(ds)

    @pytest.mark.parametrize("scale", [1e300, 1e307])  # the sd, the mean overflows
    def test_a_column_too_large_is_named(self, scale):
        values = np.random.RandomState(7).randn(40, 3)
        values[:, 1] = scale * np.abs(values[:, 1])
        ds = dataset_from([f"c{i}" for i in range(40)], ["x", "huge", "y"], values)
        with pytest.raises(ValidationError,
                           match="^huge: values too large to standardize$"):
            standardize(ds)

    @pytest.mark.parametrize("scale", [1e-157, 1e-161])  # squares subnormal
    def test_a_column_too_small_is_named(self, scale):
        values = np.random.RandomState(7).randn(40, 3)
        values[:, 1] = scale  # equal values stay constant, however small
        values[:, 2] *= scale
        ds = dataset_from([f"c{i}" for i in range(40)], ["x", "flat", "tiny"], values)
        assert values[:, 2].std(ddof=1) > 0.0
        with pytest.raises(ValidationError,
                           match="^tiny: values too small to standardize$"):
            standardize(ds)

    @pytest.mark.parametrize("n", [3, 40, 5000])
    def test_the_small_bound_is_n_times_the_smallest_normal(self, n):
        # Squared deviations summing to at least n * tiny keep their digits.
        tiny = np.finfo(float).tiny
        unit = np.random.RandomState(n).randn(n)
        squares = float(np.sum((unit - unit.mean()) ** 2))
        above = np.sqrt(n * tiny / squares) * 1.01
        means, sds, constant = dataset.column_moments(
            np.column_stack([unit, unit * above]), ["unit", "above"])
        assert not constant.any()
        assert sds[1] / above == pytest.approx(sds[0], rel=1e-14)
        with pytest.raises(ValidationError, match="^below: values too small"):
            dataset.column_moments((unit * above / 1.03)[:, None], ["below"])

    @pytest.mark.parametrize("what", ["mean", "sd"])
    def test_an_overflow_in_a_later_block_is_named(self, what):
        # "huge" is finite over the first row block and "big" is not; the
        # first bad column is still the one named.
        p = 4
        rows = dataset._CHUNK_CELLS // p
        n = 3 * rows + 1
        values = np.random.RandomState(8).randn(n, p)
        if what == "mean":
            values[rows:, 1] = 1e307
        else:
            values[rows:, 1] = 1e300 * (-1.0) ** np.arange(n - rows)
        values[:, 3] = 1e308
        ds = dataset_from([f"c{i}" for i in range(n)], ["x", "huge", "y", "big"],
                          values)
        assert np.isfinite(values[:rows, 1].sum()) and np.isfinite(
            (values[:rows, 1] ** 2).sum())
        with pytest.raises(ValidationError,
                           match="^huge: values too large to standardize$"):
            standardize(ds)

    @pytest.mark.parametrize("p", [2, 7, 40, 120])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 1)])
    def test_moments_are_numpys_bit_for_bit(self, p, blocks, extra):
        # n is one row short of a block, one block, and one row past 1 or 3.
        self.check_numpys_moments(blocks * (dataset._CHUNK_CELLS // p) + extra, p)

    def test_one_column_is_summed_pairwise_like_numpy(self):
        self.check_numpys_moments(24_500, 1)

    def test_equal_values_at_large_magnitude_match_numpy(self):
        self.check_numpys_moments(3 * (dataset._CHUNK_CELLS // 3) + 1, 3,
                                  flat=987654321.123)

    @staticmethod
    def check_numpys_moments(n, p, flat=None):
        rng = np.random.RandomState(n * 1000 + p)
        x = rng.randn(n, p) * rng.uniform(0.5, 1e4, p) + rng.uniform(-1e6, 1e6, p)
        if flat is not None:
            x[:, 0] = flat
        names = [f"v{j}" for j in range(p)]
        means, sds, constant = dataset.column_moments(x, names)
        assert np.array_equal(means, x.mean(axis=0))
        assert np.array_equal(sds, x.std(axis=0, ddof=1))
        assert np.array_equal(
            constant, (x.std(axis=0, ddof=1) == 0.0) | (x.min(axis=0) == x.max(axis=0)))
        assert constant[0] == (flat is not None)
        if flat is None:
            z = standardize(dataset_from([f"c{i}" for i in range(n)], names, x))
            assert z.values.tobytes() == ((x - means) / sds).tobytes()

    def test_peak_memory_is_the_z_scores(self):
        # The moments need no table-sized temporary and z is divided in place;
        # (values - means) / sds peaks at 2x the table.
        n, p = 10_000, 40
        ds = dataset_from([f"c{i}" for i in range(n)], [f"v{j}" for j in range(p)],
                          np.random.RandomState(6).randn(n, p))
        tracemalloc.start()
        try:
            standardize(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.values.nbytes, peak / ds.values.nbytes

    @pytest.mark.parametrize("split", [False, True])
    def test_overwrite_writes_the_same_z_over_the_loaded_values(
            self, tmp_path, monkeypatch, split):
        ids, names, values = make_table()
        path = write_table_csv(tmp_path / "t.csv", ids, names, values)
        expected = standardize(load_csv(path))
        if split:  # the buffer the tail worker's values were appended to
            started = force_split(monkeypatch)
        for ds in (load_csv(path), select_variables(load_csv(path), names)):
            buffer = ds.values
            z = standardize(ds, overwrite=True)
            assert np.shares_memory(z.values, buffer)
            assert not z.values.flags.writeable
            assert z.values.tobytes() == expected.values.tobytes()
            assert z.column_means.tobytes() == expected.column_means.tobytes()
            assert z.column_sds.tobytes() == expected.column_sds.tobytes()
        if split:
            assert len(started) == 2

    def test_by_default_the_values_stay_as_they_were(self):
        ids, names, values = make_table()
        ds = dataset_from(ids, names, values.copy())
        z = standardize(ds)
        assert not np.shares_memory(z.values, ds.values)
        assert not ds.values.flags.writeable
        assert ds.values.tobytes() == values.tobytes()

    def test_a_rejected_column_leaves_the_values_untouched(self):
        values = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        ds = dataset_from([f"c{i}" for i in range(5)], ["x", "flat"], values.copy())
        with pytest.raises(ValidationError, match="zero variance: flat"):
            standardize(ds, overwrite=True)
        assert ds.values.tobytes() == values.tobytes()
        assert not ds.values.flags.writeable

    def test_moments_match_independent_recompute(self):
        rng = np.random.RandomState(3)
        x = rng.randn(20, 4) * rng.uniform(0.5, 9.0, 4) + rng.uniform(-5, 5, 4)
        ds = dataset_from([f"c{i}" for i in range(20)],
                          [f"v{j}" for j in range(4)], x)
        z = standardize(ds)
        for j in range(4):
            col = z.values[:, j]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / (len(col) - 1)
            assert abs(mean) < 1e-10
            assert abs(var - 1.0) < 1e-10

    def test_unstandardize_roundtrip(self):
        rng = np.random.RandomState(9)
        x = rng.randn(15, 5) * 7.0 + 3.0
        ds = dataset_from([f"c{i}" for i in range(15)],
                          [f"v{j}" for j in range(5)], x)
        z = standardize(ds)
        back = z.values * z.column_sds + z.column_means
        np.testing.assert_allclose(back, x, rtol=1e-9)


class TestSelectVariables:
    def test_subset_of_synthetic(self):
        ids, names, values = make_table()
        ds = dataset_from(ids, names, values)
        chosen = names[3:17]  # 14 of 34
        sub = select_variables(ds, chosen)
        assert sub.indicator_names == tuple(chosen)
        assert sub.n_variables == 14
        assert sub.case_ids == ds.case_ids

    def test_identity_selection(self):
        ds = dataset_from(["a", "b", "c"], ["x", "y"], [[1, 2], [3, 4], [5, 6]])
        same = select_variables(ds, ds.indicator_names)
        assert same.indicator_names == ds.indicator_names
        np.testing.assert_array_equal(same.values, ds.values)

    def test_requested_order_is_kept(self):
        ds = dataset_from(["a", "b", "c"], ["x", "y"], [[1, 2], [3, 4], [5, 6]])
        sub = select_variables(ds, ["y", "x"])
        np.testing.assert_array_equal(sub.values, [[2, 1], [4, 3], [6, 5]])

    def test_unknown_name_suggests_nearest(self):
        ds = dataset_from(["a", "b", "c"], ["VMT", "y"], [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValidationError, match=r"'VMTT'.*did you mean 'VMT'"):
            select_variables(ds, ["VMTT", "y"])

    def test_commutes_with_standardize(self):
        rng = np.random.RandomState(21)
        x = rng.randn(12, 6) * 3.0 + 1.0
        ds = dataset_from([f"c{i}" for i in range(12)],
                          [f"v{j}" for j in range(6)], x)
        names = ["v4", "v1", "v5"]
        a = standardize(select_variables(ds, names)).values
        z = standardize(ds)
        cols = [ds.indicator_names.index(n) for n in names]
        b = z.values[:, cols]
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_peak_memory_is_one_copy_of_the_selection(self):
        # The selected columns are copied once, straight into C order; a
        # Fortran-ordered copy that IndicatorDataset re-copies peaks at 2.1x.
        n, p = 2000, 120
        ds = dataset_from([f"c{i}" for i in range(n)], [f"v{j}" for j in range(p)],
                          np.random.RandomState(5).randn(n, p))
        names = [f"v{j}" for j in range(p - 1, 19, -1)]
        tracemalloc.start()
        try:
            sub = select_variables(ds, names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sub.values.flags.c_contiguous
        assert peak < 1.5 * sub.values.nbytes, peak / sub.values.nbytes
