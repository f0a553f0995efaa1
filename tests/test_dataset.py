import tracemalloc

import numpy as np
import pytest

from factorindex import dataset
from factorindex.dataset import (IndicatorDataset, load_csv, select_variables,
                                 standardize)
from factorindex.errors import ValidationError

from conftest import dataset_from, make_table, write_table_csv


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


def write_body(tmp_path, name):
    path = tmp_path / "data.csv"
    # Latin-1 keeps the ASCII text and makes "\xff" the one byte UTF-8 rejects.
    path.write_bytes(("id,a,b\n" + BLOCK_BODIES[name]).encode("latin-1"))
    return path


class TestBlockParse:
    """The column-wise block parse gives what the per-row rule alone gives."""

    @pytest.mark.parametrize("cells", [1, 7, dataset._CHUNK_CELLS])
    @pytest.mark.parametrize("policy", ["error", "listwise"])
    @pytest.mark.parametrize("name", sorted(BLOCK_BODIES))
    def test_matches_the_row_parse(self, tmp_path, monkeypatch, name, policy, cells):
        path = write_body(tmp_path, name)
        monkeypatch.setattr(dataset, "_CHUNK_CELLS", cells)
        blocks = outcome(path, policy)
        monkeypatch.setattr(dataset, "_parse_block", lambda *args: None)
        assert blocks == outcome(path, policy)

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

    @pytest.mark.parametrize("scale", [1e300, 1e307])  # the sd, the mean overflows
    def test_a_column_too_large_is_named(self, scale):
        values = np.random.RandomState(7).randn(40, 3)
        values[:, 1] = scale * np.abs(values[:, 1])
        ds = dataset_from([f"c{i}" for i in range(40)], ["x", "huge", "y"], values)
        with pytest.raises(ValidationError,
                           match="^huge: values too large to standardize$"):
            standardize(ds)

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
