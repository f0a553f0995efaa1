import tracemalloc

import numpy as np
import pytest

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
        with pytest.warns(UserWarning, match="Y"):
            ds = load_csv(path, missing_policy="listwise")
        assert ds.case_ids == ("X", "Z", "W")
        assert ds.n_cases == 3

    def test_listwise_drops_literal_nan_and_inf(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,nan,4\nZ,5,6\n"
                               "V,7,-inf\nW,7,8\nU,inf,NaN\n")
        with pytest.warns(UserWarning,
                          match=r"dropped 3 case\(s\): Y, V, U$"):
            ds = load_csv(path, missing_policy="listwise")
        assert ds.case_ids == ("X", "Z", "W")
        np.testing.assert_array_equal(ds.values, [[1, 2], [5, 6], [7, 8]])

    def test_listwise_too_few_rows(self, tmp_path):
        path = write(tmp_path, "community,a,b\nX,1,2\nY,,4\nZ,5,6\n")
        with pytest.warns(UserWarning):
            with pytest.raises(ValidationError, match="fewer than 3 complete rows"):
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
        # float per cell.
        n, p = 5000, 12
        path = write_table_csv(tmp_path / "tall.csv",
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
        assert peak < 40 * n * p


class TestDatasetInvariants:
    def test_too_few_cases(self):
        with pytest.raises(ValidationError, match="at least 3 cases"):
            dataset_from(["a", "b"], ["x", "y"], [[1, 2], [3, 4]])

    def test_too_few_indicators(self):
        with pytest.raises(ValidationError, match="at least 2 indicators"):
            dataset_from(["a", "b", "c"], ["x"], [[1], [2], [3]])

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
