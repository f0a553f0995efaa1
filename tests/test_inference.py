import math
import tracemalloc

import numpy as np
import pytest

from factorindex.dataset import standardize
from factorindex.errors import DegenerateDataError, ValidationError
from factorindex.inference import (compare_groups, group_descriptives,
                                   levene_test, t_tests)
from factorindex.numkernel import t_quantile, t_two_tailed_p

from conftest import dataset_from
from reference_tables import GROUP_STATS


class TestGroupDescriptives:
    def test_simple(self):
        d = group_descriptives([1.0, 2.0, 3.0])
        assert d.n == 3
        assert d.mean == pytest.approx(2.0)
        assert d.sd == pytest.approx(1.0)
        assert d.sem == pytest.approx(0.5774, abs=1e-4)

    def test_reference_sem_rows(self):
        (_, _, sd1, sem1), (_, _, sd2, sem2) = GROUP_STATS[
            "Population 1/4 mile to transit"]
        assert sd1 / math.sqrt(10) == pytest.approx(sem1, abs=0.001)
        assert sd2 / math.sqrt(10) == pytest.approx(sem2, abs=0.001)

    def test_sem_definition(self):
        rng = np.random.RandomState(3)
        sample = rng.randn(17) * 4.2
        d = group_descriptives(sample)
        assert abs(d.sem - d.sd / math.sqrt(17)) < 1e-12

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            group_descriptives([1.0])


class TestLevene:
    def test_identical_groups(self):
        result = levene_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.F == pytest.approx(0.0, abs=1e-12)
        assert result.p == pytest.approx(1.0, abs=1e-12)
        assert result.df1 == 1 and result.df2 == 4

    def test_matches_first_principles_anova(self):
        rng = np.random.RandomState(5)
        for _ in range(10):
            g1 = rng.randn(10) * rng.uniform(0.5, 3.0)
            g2 = rng.randn(10) * rng.uniform(0.5, 3.0)
            result = levene_test(g1, g2)
            d1 = np.abs(g1 - g1.mean())
            d2 = np.abs(g2 - g2.mean())
            grand = np.concatenate([d1, d2]).mean()
            ssb = 10 * (d1.mean() - grand) ** 2 + 10 * (d2.mean() - grand) ** 2
            ssw = np.sum((d1 - d1.mean()) ** 2) + np.sum((d2 - d2.mean()) ** 2)
            expected = (ssb / 1.0) / (ssw / 18.0)
            assert result.F == pytest.approx(expected, abs=1e-10)

    def test_median_center(self):
        rng = np.random.RandomState(7)
        g1 = rng.randn(9)
        g2 = rng.randn(11) * 2.0
        result = levene_test(g1, g2, center="median")
        d1 = np.abs(g1 - np.median(g1))
        d2 = np.abs(g2 - np.median(g2))
        grand = np.concatenate([d1, d2]).mean()
        ssb = 9 * (d1.mean() - grand) ** 2 + 11 * (d2.mean() - grand) ** 2
        ssw = np.sum((d1 - d1.mean()) ** 2) + np.sum((d2 - d2.mean()) ** 2)
        assert result.F == pytest.approx(float(ssb / (ssw / 18.0)), abs=1e-10)

    def test_degenerate_spreads(self):
        with pytest.raises(DegenerateDataError):
            levene_test([5.0, 5.0], [7.0, 7.0])

    def test_p_consistent_with_t_engine(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            g1 = rng.randn(8)
            g2 = rng.randn(12) * rng.uniform(0.5, 2.5)
            result = levene_test(g1, g2)
            assert abs(result.p - t_two_tailed_p(math.sqrt(result.F),
                                                 result.df2)) < 1e-10

    def test_bad_center(self):
        with pytest.raises(ValidationError):
            levene_test([1.0, 2.0], [3.0, 4.0], center="mode")


class TestPooledT:
    def test_equal_groups(self):
        result = t_tests([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])[0]
        assert result.t == 0.0
        assert result.p_two_tailed == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        result = t_tests([1.0, 2.0, 3.0], [3.0, 4.0, 5.0])[0]
        assert result.mean_difference == pytest.approx(-2.0)
        assert result.se_difference == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
        assert result.t == pytest.approx(-2.449, abs=0.001)
        assert result.df == 4

    def test_reference_row_arithmetic(self):
        # published transit row: delta 2.37, se 0.29, df 18
        t = 2.37 / 0.29
        assert t == pytest.approx(8.169, abs=0.01)
        q = t_quantile(0.975, 18)
        assert 2.37 - q * 0.29 == pytest.approx(1.76, abs=0.002)
        assert 2.37 + q * 0.29 == pytest.approx(2.978, abs=0.002)

    def test_ci_invariant(self):
        rng = np.random.RandomState(13)
        for _ in range(20):
            result = t_tests(rng.randn(6), rng.randn(9) + 0.4, level=0.9)[0]
            assert abs(result.t - result.mean_difference / result.se_difference) < 1e-9
            margin = t_quantile(0.95, result.df) * result.se_difference
            assert result.ci_low == pytest.approx(result.mean_difference - margin,
                                                  abs=1e-9)
            assert result.ci_high == pytest.approx(result.mean_difference + margin,
                                                   abs=1e-9)
            assert result.ci_low <= result.mean_difference <= result.ci_high

    @pytest.mark.parametrize("variant", [0, 1], ids=["pooled", "welch"])
    def test_degenerate_zero_variance_equal_means(self, variant):
        result = t_tests([4.0, 4.0, 4.0], [4.0, 4.0])[variant]
        assert result.degenerate
        assert result.t == 0.0 and result.p_two_tailed == 1.0
        assert isinstance(result.df, float) and result.df == 3.0

    @pytest.mark.parametrize("variant", [0, 1], ids=["pooled", "welch"])
    def test_degenerate_zero_variance_unequal_means(self, variant):
        with pytest.raises(DegenerateDataError):
            t_tests([4.0, 4.0], [5.0, 5.0])[variant]


class TestWelchT:
    def test_collapses_to_pooled_when_balanced(self):
        rng = np.random.RandomState(17)
        for _ in range(50):
            g1 = rng.randn(8) * 1.7 + 0.3
            g2 = g1 + rng.uniform(-2.0, 2.0)  # identical variance, shifted
            pooled, welch = t_tests(g1, g2)
            assert abs(welch.df - pooled.df) < 1e-10
            assert abs(welch.t - pooled.t) < 1e-10

    def test_matches_first_principles(self):
        g1 = np.array([1.0, 2.0, 3.0])
        g2 = np.array([10.0, 20.0, 30.0])
        result = t_tests(g1, g2)[1]
        v1 = g1.var(ddof=1) / 3
        v2 = g2.var(ddof=1) / 3
        se = math.sqrt(v1 + v2)
        df = (v1 + v2) ** 2 / (v1 ** 2 / 2 + v2 ** 2 / 2)
        assert result.se_difference == pytest.approx(se, abs=1e-10)
        assert result.df == pytest.approx(df, abs=1e-10)
        assert result.t == pytest.approx((2.0 - 20.0) / se, abs=1e-10)

    @pytest.mark.parametrize("scale", [1e-60, 1e-80, 1e-100, 1e-120])
    def test_df_when_the_variance_terms_underflow(self, scale):
        g1, g2 = np.array([1.0, 2.0, 4.0]), np.array([3.0, 5.0, 9.0])
        unit = t_tests(g1, g2)[1]
        result = t_tests(g1 * scale, g2 * scale)[1]
        assert result.df == pytest.approx(50.0 / 17.0, rel=1e-12, abs=0.0)
        assert result.t == pytest.approx(unit.t, abs=1e-12)
        assert result.p_two_tailed == pytest.approx(unit.p_two_tailed, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e150, 1e153])
    def test_df_when_the_squared_variance_terms_overflow(self, scale):
        g1, g2 = np.array([1.0, 2.0, 4.0]), np.array([3.0, 5.0, 9.0])
        unit = t_tests(g1, g2)[1]
        result = t_tests(g1 * scale, g2 * scale)[1]
        assert result.df == pytest.approx(50.0 / 17.0, rel=1e-12, abs=0.0)
        assert result.t == pytest.approx(unit.t, abs=1e-12)
        assert result.p_two_tailed == pytest.approx(unit.p_two_tailed, abs=1e-12)

    def test_equal_groups(self):
        result = t_tests([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])[1]
        assert result.t == 0.0
        assert result.p_two_tailed == pytest.approx(1.0)


class TestTTestProperties:
    def test_antisymmetry(self):
        rng = np.random.RandomState(19)
        for variant in (0, 1):
            for _ in range(50):
                g1 = rng.randn(7) * 2.0
                g2 = rng.randn(9) + 1.0
                fwd = t_tests(g1, g2)[variant]
                rev = t_tests(g2, g1)[variant]
                assert abs(fwd.t + rev.t) < 1e-10
                assert abs(fwd.mean_difference + rev.mean_difference) < 1e-10
                assert abs(fwd.p_two_tailed - rev.p_two_tailed) < 1e-10
                assert abs(fwd.ci_low + rev.ci_high) < 1e-9
                assert abs(fwd.ci_high + rev.ci_low) < 1e-9

    def test_affine_invariance(self):
        rng = np.random.RandomState(23)
        for variant in (0, 1):
            for _ in range(50):
                g1 = rng.randn(6)
                g2 = rng.randn(8) * 1.3 + 0.2
                a = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
                b = rng.uniform(-10.0, 10.0)
                base = t_tests(g1, g2)[variant]
                moved = t_tests(a * g1 + b, a * g2 + b)[variant]
                assert abs(abs(moved.t) - abs(base.t)) < 1e-10
                assert abs(moved.df - base.df) < 1e-10
                assert abs(moved.p_two_tailed - base.p_two_tailed) < 1e-10


def two_group_dataset(rng, n=20, p=5):
    ids = tuple(f"c{i:02d}" for i in range(n))
    names = tuple(f"v{j}" for j in range(p))
    values = rng.randn(n, p) * rng.uniform(1.0, 6.0, p) + rng.uniform(-3, 3, p)
    return dataset_from(ids, names, values)


class TestCompareGroups:
    def test_full_report_structure(self):
        rng = np.random.RandomState(29)
        ds = two_group_dataset(rng)
        g1 = ds.case_ids[:10]
        g2 = ds.case_ids[10:]
        report = compare_groups(ds, g1, g2)
        assert len(report.variables) == 5
        for rec in report.variables:
            assert rec.group1.n == 10 and rec.group2.n == 10
            assert rec.pooled.df == 18
            assert rec.reported_variant in ("pooled", "welch")
            chosen = rec.pooled if rec.reported_variant == "pooled" else rec.welch
            assert rec.significant == (chosen.p_two_tailed < report.alpha)

    def test_reported_variant_follows_levene(self):
        rng = np.random.RandomState(31)
        ds = two_group_dataset(rng)
        report = compare_groups(ds, ds.case_ids[:10], ds.case_ids[10:],
                                alpha_levene=0.05)
        for rec in report.variables:
            expected = "pooled" if rec.levene.p > 0.05 else "welch"
            assert rec.reported_variant == expected

    def test_ci_matches_quantile_engine(self):
        rng = np.random.RandomState(37)
        ds = two_group_dataset(rng, n=20, p=14)
        report = compare_groups(ds, ds.case_ids[:10], ds.case_ids[10:])
        q = t_quantile(0.975, 18)
        for rec in report.variables:
            res = rec.pooled
            assert res.ci_low == pytest.approx(
                res.mean_difference - q * res.se_difference, abs=1e-9)
            assert res.ci_high == pytest.approx(
                res.mean_difference + q * res.se_difference, abs=1e-9)

    def test_descriptives_in_raw_units(self):
        rng = np.random.RandomState(41)
        ds = two_group_dataset(rng)
        g1 = ds.case_ids[:10]
        report = compare_groups(ds, g1, ds.case_ids[10:])
        rows = [i for i, cid in enumerate(ds.case_ids) if cid in set(g1)]
        for j, rec in enumerate(report.variables):
            assert rec.group1.mean == pytest.approx(ds.values[rows, j].mean())

    def test_statistics_standardized_scope_selected(self):
        # t must be identical between scopes (affine invariance), but the
        # mean difference is expressed in scope-dependent z units
        rng = np.random.RandomState(43)
        ds = two_group_dataset(rng, n=30)
        g1 = ds.case_ids[:10]
        g2 = ds.case_ids[-10:]
        selected = compare_groups(ds, g1, g2, standardize_scope="selected")
        everything = compare_groups(ds, g1, g2, standardize_scope="all")
        for a, b in zip(selected.variables, everything.variables):
            assert a.pooled.t == pytest.approx(b.pooled.t, abs=1e-10)
            assert a.pooled.mean_difference != b.pooled.mean_difference

    def test_z_scale_mean_difference(self):
        rng = np.random.RandomState(47)
        ds = two_group_dataset(rng)
        g1 = ds.case_ids[:10]
        g2 = ds.case_ids[10:]
        report = compare_groups(ds, g1, g2, standardize_scope="selected")
        rows1 = [i for i, cid in enumerate(ds.case_ids) if cid in set(g1)]
        rows2 = [i for i, cid in enumerate(ds.case_ids) if cid in set(g2)]
        j = 2
        col = ds.values[:, j]
        scoped = col[rows1 + rows2]
        z = (col - scoped.mean()) / scoped.std(ddof=1)
        expected = z[rows1].mean() - z[rows2].mean()
        assert report.variables[j].pooled.mean_difference == pytest.approx(
            expected, abs=1e-12)

    def test_overlapping_groups_rejected(self):
        rng = np.random.RandomState(53)
        ds = two_group_dataset(rng)
        with pytest.raises(ValidationError, match="overlap"):
            compare_groups(ds, ds.case_ids[:10], ds.case_ids[9:])

    def test_unknown_ids_rejected(self):
        rng = np.random.RandomState(59)
        ds = two_group_dataset(rng)
        with pytest.raises(ValidationError, match="unknown case id"):
            compare_groups(ds, ("nope", "also"), ds.case_ids[10:])

    def test_repeated_id_within_group_rejected(self):
        rng = np.random.RandomState(59)
        ds = two_group_dataset(rng)
        ids = ds.case_ids
        with pytest.raises(ValidationError, match=f"group 1 repeats case id '{ids[0]}'"):
            compare_groups(ds, (ids[0], ids[0], ids[1], ids[2]), ids[10:])
        with pytest.raises(ValidationError, match=f"group 2 repeats case id '{ids[12]}'"):
            compare_groups(ds, ids[:10], ids[10:] + (ids[12],))

    def test_unknown_ids_are_named_before_a_repeated_one(self):
        ds = two_group_dataset(np.random.RandomState(59))
        ids = ds.case_ids
        with pytest.raises(ValidationError) as exc:
            compare_groups(ds, (ids[0], ids[0], "nope", ids[1]), ids[10:] + ("also",))
        assert str(exc.value) == "unknown case id(s): ['also', 'nope']"

    def test_unknown_variable_suggests(self):
        rng = np.random.RandomState(61)
        ds = two_group_dataset(rng)
        with pytest.raises(ValidationError, match="did you mean"):
            compare_groups(ds, ds.case_ids[:10], ds.case_ids[10:],
                           variables=["v0", "v11"])

    def test_constant_variable_marked_degenerate(self):
        rng = np.random.RandomState(67)
        ds = two_group_dataset(rng)
        values = ds.values.copy()
        values[:, 1] = 42.0
        ds = dataset_from(ds.case_ids, ds.indicator_names, values)
        report = compare_groups(ds, ds.case_ids[:10], ds.case_ids[10:])
        assert report.variables[1].degenerate
        assert report.variables[1].pooled is None
        assert not report.variables[0].degenerate

    @pytest.mark.parametrize("option, value, message", [
        ("ci_level", 7.0, r"confidence level must be in \(0, 1\), got 7.0"),
        ("ci_level", 1.0 - 2.0 ** -53,  # (1 + level) / 2 rounds to 1
         r"confidence level must have \(1 \+ level\) / 2 below 1, got 0.9999999999999999"),
        ("levene_center", "bogus",
         "center must be 'mean' or 'median', got 'bogus'"),
        ("standardize_scope", "bogus",
         "standardize_scope must be 'selected' or 'all', got 'bogus'"),
    ])
    def test_options_checked_when_every_variable_is_degenerate(self, option, value,
                                                               message):
        ids = [f"c{i}" for i in range(6)]
        ds = dataset_from(ids, ["x"], np.full((6, 1), 2.0))
        with pytest.raises(ValidationError, match=message):
            compare_groups(ds, ids[:3], ids[3:], **{option: value})

    @pytest.mark.parametrize("scope", ["selected", "all"])
    def test_equal_values_are_constant_at_any_magnitude(self, scope):
        ds = two_group_dataset(np.random.RandomState(73), n=30)
        values = ds.values.copy()
        values[:, 1] = 123456.789  # its computed sd is 1.5e-11 over 20 rows, 3e-11 over 30
        ds = dataset_from(ds.case_ids, ds.indicator_names, values)
        report = compare_groups(ds, ds.case_ids[:10], ds.case_ids[-10:],
                                standardize_scope=scope)
        assert report.variables[1].degenerate
        assert report.variables[1].note == "constant within the standardization scope"

    # No absolute floor: only equal values, or squared deviations that all
    # underflow (a spread of 1e-200), make a column constant.
    @pytest.mark.parametrize("spread, constant", [(0.0, True), (1e-12, False),
                                                  (1e-100, False), (1e-200, True)])
    def test_degenerate_bound_is_the_zero_variance_rule(self, spread, constant):
        ids = [f"c{i}" for i in range(6)]
        ds = dataset_from(ids, ["x"], spread * np.array([[0.0], [1.0]] * 3))
        record, = compare_groups(ds, ids[:3], ids[3:]).variables
        assert record.degenerate == constant
        if constant:
            with pytest.raises(ValidationError, match="zero variance: x"):
                standardize(ds)
        else:
            standardize(ds)

    def test_variable_order_preserved(self):
        rng = np.random.RandomState(71)
        ds = two_group_dataset(rng)
        report = compare_groups(ds, ds.case_ids[:10], ds.case_ids[10:],
                                variables=["v3", "v0", "v4"])
        assert [r.name for r in report.variables] == ["v3", "v0", "v4"]

    @pytest.mark.parametrize("scope", ["selected", "all"])
    def test_all_variables_are_read_without_a_copy(self, scope):
        # Under "all" the scope statistics read the whole table in row blocks.
        ds = two_group_dataset(np.random.RandomState(79), n=10_000, p=40)
        tracemalloc.start()
        try:
            compare_groups(ds, ds.case_ids[:10], ds.case_ids[-10:],
                           standardize_scope=scope)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.values.nbytes, (peak, ds.values.nbytes)

    def test_the_groups_are_read_one_column_at_a_time(self):
        # A block of the groups' rows would be 0.25 tables on its own.
        ds = two_group_dataset(np.random.RandomState(83), n=20_000, p=40)
        tracemalloc.start()
        try:
            compare_groups(ds, ds.case_ids[:2500], ds.case_ids[-2500:],
                           standardize_scope="all")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * ds.values.nbytes, peak / ds.values.nbytes
