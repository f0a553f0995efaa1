import math

import numpy as np
import pytest

from factorindex import factors
from factorindex.dataset import standardize
from factorindex.errors import NumericalError, ValidationError
from factorindex.factors import (build_factor_model, correlation_matrix,
                                 extract_pca, factor_scores, kmo, kmo_label,
                                 score_coefficients, varimax)

from conftest import dataset_from, make_table, planted_structure
from oracles import (grid_search_best, kmo_regression_oracle,
                     varimax_criterion, worst_congruence)


class TestCorrelationMatrix:
    def test_perfect_positive(self):
        x = np.arange(1.0, 11.0)
        ds = dataset_from([f"c{i}" for i in range(10)], ["a", "b"],
                          np.column_stack([x, 2.0 * x]))
        r = correlation_matrix(standardize(ds))
        assert r[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = np.arange(1.0, 11.0)
        ds = dataset_from([f"c{i}" for i in range(10)], ["a", "b"],
                          np.column_stack([x, -x]))
        r = correlation_matrix(standardize(ds))
        assert r[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_pearson(self):
        rng = np.random.RandomState(31)
        x = rng.randn(30, 5) * rng.uniform(1, 4, 5)
        ds = dataset_from([f"c{i}" for i in range(30)],
                          [f"v{j}" for j in range(5)], x)
        r = correlation_matrix(standardize(ds))
        for i in range(5):
            for j in range(5):
                xi = x[:, i] - x[:, i].mean()
                xj = x[:, j] - x[:, j].mean()
                expected = np.sum(xi * xj) / math.sqrt(
                    np.sum(xi * xi) * np.sum(xj * xj))
                assert r[i, j] == pytest.approx(expected, abs=1e-12)

    def test_shape_properties(self):
        rng = np.random.RandomState(37)
        ds = dataset_from([f"c{i}" for i in range(25)],
                          [f"v{j}" for j in range(6)], rng.randn(25, 6))
        r = correlation_matrix(standardize(ds))
        np.testing.assert_allclose(r, r.T)
        np.testing.assert_allclose(np.diag(r), 1.0)
        assert np.all(r >= -1.0) and np.all(r <= 1.0)

    def test_fewer_than_three_cases(self):
        with pytest.raises(ValidationError) as exc:
            correlation_matrix(np.ones((2, 3)))
        assert str(exc.value) == "need at least 3 cases to correlate, got 2"


class TestExtractPca:
    def test_analytic_two_variable(self):
        r = np.array([[1.0, 0.6], [0.6, 1.0]])
        decomp, loadings, k = extract_pca(r)
        np.testing.assert_allclose(decomp.eigenvalues, [1.6, 0.4], atol=1e-12)
        assert k == 1
        np.testing.assert_allclose(loadings[:, 0], [0.894427, 0.894427],
                                   atol=1e-6)

    def test_eigenvalues_sum_to_p(self):
        ids, names, values = make_table(n=50, p=12, seed=5)
        r = correlation_matrix(standardize(dataset_from(ids, names, values)))
        decomp, _, _ = extract_pca(r, rule="fixed", k=3)
        assert decomp.eigenvalues.sum() == pytest.approx(12.0, abs=1e-9)

    def test_kaiser_on_identity_fails(self):
        with pytest.raises(NumericalError, match="fixed"):
            extract_pca(np.eye(4))

    def test_kaiser_excludes_exact_ties_at_one(self):
        # eigenvalues are exactly {1.5, 1.0, 0.5}; only the first qualifies
        r = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        decomp, _, k = extract_pca(r)
        np.testing.assert_allclose(decomp.eigenvalues, [1.5, 1.0, 0.5], atol=1e-12)
        assert k == 1

    def test_fixed_k_too_large(self):
        with pytest.raises(ValidationError, match="k=9"):
            extract_pca(np.eye(4), rule="fixed", k=9)

    # The config's rule for a count: an integer, not a bool, and >= 1.
    @pytest.mark.parametrize("k", [None, 0, 2.5, True, "2"])
    def test_fixed_k_must_be_an_integer_of_at_least_one(self, k):
        with pytest.raises(ValidationError) as exc:
            extract_pca(np.eye(4), rule="fixed", k=k)
        assert str(exc.value) == f"k must be an integer >= 1, got {k!r}"

    def test_fixed_k_may_be_a_numpy_integer(self):
        _, loadings, k = extract_pca(np.eye(4), rule="fixed", k=np.int64(2))
        assert type(k) is int and k == 2 and loadings.shape == (4, 2)

    def test_unknown_rule(self):
        with pytest.raises(ValidationError, match="retention rule"):
            extract_pca(np.eye(4), rule="scree")

    def test_planted_structure_kaiser_count(self):
        gen, x = planted_structure(seed=2024)
        ds = dataset_from([f"c{i}" for i in range(x.shape[0])],
                          [f"v{j}" for j in range(x.shape[1])], x)
        r = correlation_matrix(standardize(ds))
        _, _, k = extract_pca(r, rule="kaiser")
        assert k == 3


class TestKmo:
    def test_two_variable_is_half(self):
        rng = np.random.RandomState(41)
        for _ in range(5):
            x = rng.randn(30, 2)
            x[:, 1] += rng.uniform(0.2, 1.0) * x[:, 0]
            ds = dataset_from([f"c{i}" for i in range(30)], ["a", "b"], x)
            result = kmo(correlation_matrix(standardize(ds)))
            assert result.overall == pytest.approx(0.5, abs=1e-12)

    def test_labels(self):
        assert kmo_label(0.707) == "middling"
        assert kmo_label(0.93) == "marvelous"
        assert kmo_label(0.85) == "meritorious"
        assert kmo_label(0.65) == "mediocre"
        assert kmo_label(0.55) == "miserable"
        assert kmo_label(0.33) == "unacceptable"

    def test_matches_regression_residual_oracle(self):
        rng = np.random.RandomState(43)
        for _ in range(20):
            p = rng.randint(4, 9)
            n = 40
            x = rng.randn(n, p) + rng.randn(n, 1) * rng.rand(p)
            ds = dataset_from([f"c{i}" for i in range(n)],
                              [f"v{j}" for j in range(p)], x)
            r = correlation_matrix(standardize(ds))
            assert kmo(r).overall == pytest.approx(
                kmo_regression_oracle(x), abs=1e-8
            )

    def test_identity_correlation_undefined(self):
        with pytest.raises(NumericalError, match="undefined"):
            kmo(np.eye(5))

    def test_singular_matrix(self):
        r = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError):
            kmo(r)


class TestVarimax:
    def test_single_factor_unchanged(self):
        # One column: the input with its canonical sign, bit for bit. Kaiser
        # scaling divides each row by |a| and multiplies it back, which is
        # exact; a zero row and one below 1e-12 keep scale 1.
        for sign in (1.0, -1.0):
            a = sign * np.array([[0.9], [-0.31], [0.0], [4e-13], [0.123456789]])
            for kaiser in (True, False):
                result = varimax(a, kaiser_normalize=kaiser)
                assert result.loadings.tobytes() == (sign * a).tobytes(), (sign, kaiser)
                assert result.rotation.tobytes() == np.array([[sign]]).tobytes()
                assert result.converged is True

    def test_perfect_simple_structure_fixed_point(self):
        a = np.array([[0.8, 0.0], [0.79, 0.0], [0.0, 0.75], [0.0, 0.81]])
        result = varimax(a)
        np.testing.assert_allclose(result.loadings, a, atol=1e-6)

    def test_matches_grid_search_oracle(self):
        rng = np.random.RandomState(47)
        for _ in range(50):
            p = rng.randint(4, 13)
            a = rng.randn(p, 2)
            result = varimax(a, kaiser_normalize=False)
            achieved = varimax_criterion(result.loadings)
            assert achieved >= grid_search_best(a) - 1e-3

    def test_criterion_monotone(self):
        rng = np.random.RandomState(53)
        for _ in range(10):
            a = rng.randn(9, 3)
            history = varimax(a).criterion_history
            assert all(b >= a_ - 1e-12 for a_, b in zip(history, history[1:]))

    def test_communalities_preserved(self):
        rng = np.random.RandomState(59)
        a = rng.randn(10, 4)
        result = varimax(a)
        before = np.sum(a * a, axis=1)
        after = np.sum(result.loadings ** 2, axis=1)
        assert np.max(np.abs(before - after)) < 1e-8

    def test_rotation_orthogonal_and_consistent(self):
        rng = np.random.RandomState(61)
        a = rng.randn(8, 3)
        result = varimax(a)
        k = a.shape[1]
        assert np.max(np.abs(result.rotation.T @ result.rotation - np.eye(k))) < 1e-10
        assert np.max(np.abs(a @ result.rotation - result.loadings)) < 1e-10

    def test_idempotent(self):
        rng = np.random.RandomState(67)
        for _ in range(10):
            a = rng.randn(11, 3)
            first = varimax(a)
            second = varimax(first.loadings)
            assert np.max(np.abs(second.loadings - first.loadings)) < 1e-10

    def test_columns_sorted_and_signed(self):
        rng = np.random.RandomState(71)
        a = rng.randn(10, 3)
        loadings = varimax(a).loadings
        ss = np.sum(loadings ** 2, axis=0)
        assert np.all(np.diff(ss) <= 1e-12)
        for j in range(3):
            i = int(np.argmax(np.abs(loadings[:, j])))
            assert loadings[i, j] > 0

    def test_sweep_budget_warns(self):
        rng = np.random.RandomState(73)
        a = rng.randn(12, 4)
        result = varimax(a, max_iter=1)
        assert result.converged is False
        assert result.sweeps == 1

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            varimax(np.ones((2, 3)))

    @pytest.mark.parametrize("max_iter", [0, 2.5, True])
    def test_max_iter_must_be_an_integer_of_at_least_one(self, max_iter):
        with pytest.raises(ValidationError) as exc:
            varimax(np.ones((3, 2)), max_iter=max_iter)
        assert str(exc.value) == f"max_iter must be an integer >= 1, got {max_iter!r}"


class TestScoreCoefficients:
    def test_identity_correlation(self):
        lam = np.array([[0.8, 0.1], [0.2, 0.7], [0.4, 0.3]])
        np.testing.assert_allclose(score_coefficients(np.eye(3), lam), lam,
                                   atol=1e-12)

    def test_analytic_two_variable(self):
        r = np.array([[1.0, 0.6], [0.6, 1.0]])
        lam = np.array([[0.894427], [0.894427]])
        w = score_coefficients(r, lam)
        np.testing.assert_allclose(w, [[0.559017], [0.559017]], atol=1e-6)

    def test_residual(self):
        rng = np.random.RandomState(79)
        ids, names, values = make_table(n=60, p=10, seed=79)
        r = correlation_matrix(standardize(dataset_from(ids, names, values)))
        _, lam, _ = extract_pca(r, rule="fixed", k=4)
        w = score_coefficients(r, lam)
        assert np.max(np.abs(r @ w - lam)) < 1e-8

    def test_loadings_rows_must_match(self):
        with pytest.raises(ValidationError) as exc:
            score_coefficients(np.eye(3), np.ones((2, 1)))
        assert str(exc.value) == "loadings rows (2) must match correlation size (3)"


class TestFactorScores:
    def test_identity_weights(self):
        ids, names, values = make_table(n=10, p=4, seed=83)
        z = standardize(dataset_from(ids, names, values))
        scores = factor_scores(z, np.eye(4))
        np.testing.assert_allclose(scores.scores, z.values)

    def test_single_case_arithmetic(self):
        # one case's score is the plain weighted sum of its standardized data
        z_row = np.array([1.0, -0.5])
        w = np.array([[0.6], [0.2]])
        assert float((z_row @ w)[0]) == pytest.approx(0.5)

    def test_matches_triple_loop(self):
        rng = np.random.RandomState(89)
        ids, names, values = make_table(n=20, p=5, seed=89)
        z = standardize(dataset_from(ids, names, values))
        w = rng.randn(5, 2)
        scores = factor_scores(z, w).scores
        for case in range(20):
            for factor in range(2):
                total = 0.0
                for var in range(5):
                    total += w[var, factor] * z.values[case, var]
                assert scores[case, factor] == pytest.approx(total, abs=1e-12)

    def test_column_means_near_zero(self):
        ids, names, values = make_table(n=40, p=8, seed=97)
        z = standardize(dataset_from(ids, names, values))
        model = build_factor_model(z)
        scores = factor_scores(z, model.score_coefficients)
        assert np.max(np.abs(scores.scores.mean(axis=0))) < 1e-8

    def test_dimension_mismatch(self):
        ids, names, values = make_table(n=10, p=4, seed=101)
        z = standardize(dataset_from(ids, names, values))
        with pytest.raises(ValidationError, match="match"):
            factor_scores(z, np.eye(3))

    def test_rejects_a_plain_array(self):
        with pytest.raises(ValidationError) as exc:
            factor_scores(np.ones((3, 2)), np.eye(2))
        assert str(exc.value) == "factor_scores expects a StandardizedMatrix"


class TestBuildFactorModel:
    def test_invariants_on_synthetic(self, synthetic_dataset):
        z = standardize(synthetic_dataset)
        model = build_factor_model(z)
        p = synthetic_dataset.n_variables
        k = model.retained
        # rotation orthogonal, loadings consistent
        assert np.max(np.abs(model.rotation.T @ model.rotation - np.eye(k))) < 1e-10
        assert np.max(np.abs(model.loadings_unrotated @ model.rotation
                             - model.loadings_rotated)) < 1e-10
        # communalities equal on both sides of the rotation
        unrot = np.sum(model.loadings_unrotated ** 2, axis=1)
        rot = np.sum(model.loadings_rotated ** 2, axis=1)
        assert np.max(np.abs(unrot - rot)) < 1e-8
        np.testing.assert_allclose(model.communalities, rot)
        assert model.eigenvalues.sum() == pytest.approx(p, abs=1e-9)
        assert model.variance_explained == pytest.approx(
            model.eigenvalues[:k].sum() / p)
        assert 0.0 <= model.kmo.overall <= 1.0

    def test_deterministic(self, synthetic_dataset):
        z = standardize(synthetic_dataset)
        a = build_factor_model(z)
        b = build_factor_model(z)
        assert a.loadings_rotated.tobytes() == b.loadings_rotated.tobytes()
        assert a.score_coefficients.tobytes() == b.score_coefficients.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    def test_rotation_none(self, synthetic_dataset):
        z = standardize(synthetic_dataset)
        model = build_factor_model(z, rotation_method="none")
        np.testing.assert_array_equal(model.loadings_rotated,
                                      model.loadings_unrotated)
        np.testing.assert_array_equal(model.rotation, np.eye(model.retained))

    @pytest.mark.parametrize("options", [
        {}, {"rotation_method": "none"},
        {"retention_rule": "fixed", "retention_k": 1},
    ], ids=["varimax", "none", "one factor"])
    def test_every_array_is_read_only(self, synthetic_dataset, options):
        model = build_factor_model(standardize(synthetic_dataset), **options)
        arrays = {name: value
                  for record in (model, model.kmo)
                  for name, value in vars(record).items()
                  if isinstance(value, np.ndarray)}
        assert "loadings_unrotated" in arrays and "per_variable" in arrays
        assert [name for name, a in arrays.items() if a.flags.writeable] == []

    def test_a_singular_r_stops_before_rotation(self, monkeypatch):
        ids, names, values = make_table()
        z = standardize(dataset_from(ids, names + ("Copy03",),
                                     np.column_stack([values, values[:, 3]])))

        def unreachable(*args, **kwargs):
            raise AssertionError("a singular R was rotated")
        monkeypatch.setattr(factors, "varimax", unreachable)
        with pytest.raises(NumericalError, match="Ind03 and Copy03 are") as exc:
            build_factor_model(z)
        assert exc.value.stage == "diagnostics"
        # A retention count beyond p is still reported first.
        with pytest.raises(ValidationError, match="cannot retain k=36"):
            build_factor_model(z, retention_rule="fixed", retention_k=36)

    def test_a_singular_r_is_decomposed_once(self, monkeypatch):
        ids, names, values = make_table()
        z = standardize(dataset_from(ids, names + ("Copy03",),
                                     np.column_stack([values, values[:, 3]])))
        calls, original = [], factors.sym_eigen

        def counted(r):
            calls.append(r)
            return original(r)
        monkeypatch.setattr(factors, "sym_eigen", counted)
        with pytest.raises(NumericalError, match="Ind03 and Copy03 are collinear"):
            build_factor_model(z)
        # Extraction's decomposition also names the null space.
        assert len(calls) == 1

    def test_one_indicator_is_too_few(self):
        # KMO needs an off-diagonal correlation.
        z = standardize(dataset_from(["a", "b", "c"], ["x"], [[1], [2], [4]]))
        with pytest.raises(ValidationError, match="need at least 2 indicators, got 1"):
            build_factor_model(z)

    @pytest.mark.parametrize("options, message", [
        ({"retention_k": 2.5}, "k must be an integer >= 1, got 2.5"),
        ({"retention_k": True}, "k must be an integer >= 1, got True"),
        ({"retention_k": 2, "rotation_max_iter": 2.5},
         "max_iter must be an integer >= 1, got 2.5"),
    ])
    def test_a_count_that_is_not_an_integer_is_rejected(self, options, message):
        ids, names, values = make_table(n=40, p=8, seed=97)
        z = standardize(dataset_from(ids, names, values))
        with pytest.raises(ValidationError) as exc:
            build_factor_model(z, retention_rule="fixed", **options)
        assert str(exc.value) == message

    def test_planted_structure_recovery(self):
        gen, x = planted_structure(seed=2024)
        ds = dataset_from([f"c{i}" for i in range(x.shape[0])],
                          [f"v{j}" for j in range(x.shape[1])], x)
        model = build_factor_model(standardize(ds))
        assert model.retained == 3
        assert worst_congruence(gen, model.loadings_rotated) > 0.98
