import math

import numpy as np
import pytest
from scipy import special, stats

from factorindex import numkernel
from factorindex.errors import NumericalError, ValidationError
from factorindex.numkernel import (f_tail_p, invert_spd, reg_incomplete_beta,
                                   sym_eigen, t_quantile, t_two_tailed_p)

# The t_quantile accuracy grid: 11 df values from 1 to 1e5 and 11
# probabilities from 1e-6 to 0.9999.
QUANTILE_DFS = tuple(float(df) for df in np.logspace(0.0, 5.0, 11))
QUANTILE_PROBS = (1e-6, 1e-4, 0.01, 0.025, 0.1, 0.3, 0.5001, 0.9, 0.975, 0.999, 0.9999)


@pytest.fixture()
def beta_calls(monkeypatch):
    """The ``(a, b, x)`` of every ``reg_incomplete_beta`` call made from numkernel."""
    calls = []

    def counted(a, b, x):
        calls.append((a, b, x))
        return reg_incomplete_beta(a, b, x)

    monkeypatch.setattr(numkernel, "reg_incomplete_beta", counted)
    return calls


class TestSymEigen:
    def test_identity(self):
        d = sym_eigen(np.eye(3))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 1.0, 1.0])

    def test_analytic_2x2(self):
        d = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(d.eigenvalues, [3.0, 1.0], atol=1e-12)
        r = 1.0 / math.sqrt(2.0)
        # sign convention: first max-|entry| positive
        np.testing.assert_allclose(d.eigenvectors[:, 0], [r, r], atol=1e-12)
        np.testing.assert_allclose(d.eigenvectors[:, 1], [r, -r], atol=1e-12)

    def test_known_spectrum_recovery(self):
        rng = np.random.RandomState(7)
        q, _ = np.linalg.qr(rng.randn(3, 3))
        a = q @ np.diag([9.0, 4.0, 1.0]) @ q.T
        d = sym_eigen(a)
        np.testing.assert_allclose(d.eigenvalues, [9.0, 4.0, 1.0], atol=1e-10)

    def test_random_battery(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            n = rng.randint(5, 41)
            a = rng.randn(n, n)
            a = (a + a.T) / 2.0
            d = sym_eigen(a)
            v = d.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
            recon = v @ np.diag(d.eigenvalues) @ v.T
            assert np.max(np.abs(recon - a)) < 1e-10
            trace = np.trace(a)
            assert abs(d.eigenvalues.sum() - trace) < 1e-9 * max(1.0, abs(trace))
            assert np.all(np.diff(d.eigenvalues) <= 1e-12)
            peaks = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
            assert np.all(peaks > 0.0)
            assert not d.eigenvalues.flags.writeable
            assert not v.flags.writeable

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            sym_eigen(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            sym_eigen([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            sym_eigen([[1.0, np.nan], [np.nan, 1.0]])

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            sym_eigen(np.eye(3))

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        d = sym_eigen(a)
        np.testing.assert_allclose(d.eigenvalues, [3.0, 1.0], atol=1e-9)


class TestInvertSpd:
    def test_identity(self):
        np.testing.assert_allclose(invert_spd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            invert_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-12
        )

    def test_random_spd_roundtrip(self):
        rng = np.random.RandomState(5)
        b = rng.randn(8, 8)
        a = b.T @ b + np.eye(8)
        inv = invert_spd(a)
        assert np.max(np.abs(a @ inv - np.eye(8))) < 1e-9

    def test_singular_reports_eigenvalue(self):
        a = np.ones((3, 3))  # rank one
        with pytest.raises(NumericalError, match="smallest eigenvalue"):
            invert_spd(a)


class TestIncompleteBeta:
    def test_uniform_case(self):
        assert reg_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_boundaries(self):
        assert reg_incomplete_beta(2.5, 3.5, 0.0) == 0.0
        assert reg_incomplete_beta(2.5, 3.5, 1.0) == 1.0

    def test_symmetric_midpoint(self):
        assert reg_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_reflection_identity_grid(self):
        for a in (0.5, 1.0, 2.0, 5.0, 9.0, 17.5):
            for b in (0.5, 1.3, 2.5, 8.0):
                for x in (0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
                    left = reg_incomplete_beta(a, b, x)
                    right = 1.0 - reg_incomplete_beta(b, a, 1.0 - x)
                    assert abs(left - right) < 1e-12

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        values = [reg_incomplete_beta(3.0, 1.5, x) for x in xs]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_matches_scipy(self):
        rng = np.random.RandomState(13)
        for _ in range(200):
            a = float(rng.uniform(0.2, 30.0))
            b = float(rng.uniform(0.2, 30.0))
            x = float(rng.uniform(0.0, 1.0))
            assert reg_incomplete_beta(a, b, x) == pytest.approx(
                special.betainc(a, b, x), abs=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            reg_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            reg_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(ValidationError):
            reg_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_zero_statistic(self):
        assert t_two_tailed_p(0.0, 18) == 1.0

    def test_reference_small_t(self):
        assert t_two_tailed_p(-0.1, 18) == pytest.approx(0.921, abs=0.001)

    def test_reference_large_t(self):
        assert t_two_tailed_p(8.169, 18) < 0.0005

    def test_symmetry_and_decrease(self):
        for t in (0.1, 0.7, 1.3, 2.9):
            assert t_two_tailed_p(t, 7.5) == t_two_tailed_p(-t, 7.5)
        ts = np.linspace(0.0, 6.0, 61)
        ps = [t_two_tailed_p(t, 9) for t in ts]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_matches_scipy(self):
        rng = np.random.RandomState(17)
        for _ in range(100):
            t = float(rng.uniform(-5, 5))
            df = float(rng.uniform(1, 60))
            assert t_two_tailed_p(t, df) == pytest.approx(
                2 * stats.t.sf(abs(t), df), abs=1e-12
            )

    @pytest.mark.parametrize("t", [1e-4, 1e-3])
    def test_small_statistic_with_large_df(self, t):
        # x = df / (df + t^2) lies within 1e-11 of 1 here, so the
        # complement 1 - x cannot be recovered from it.
        p = t_two_tailed_p(t, 1e5)
        assert p == pytest.approx(2 * stats.t.sf(t, 1e5), rel=1e-12, abs=0.0)

    def test_df_must_be_positive(self):
        with pytest.raises(ValidationError):
            t_two_tailed_p(1.0, 0.0)


class TestTQuantile:
    def test_median_is_zero(self):
        # The general path: the start is +0.0 and its residual is exactly 0.
        for df in (1, 7, 1e5):
            q = t_quantile(0.5, df)
            assert q == 0.0 and math.copysign(1.0, q) == 1.0, df

    def test_reference_value(self):
        # frozen from bisection on the verified CDF; agrees with scipy.t.ppf
        assert t_quantile(0.975, 18) == pytest.approx(2.1009, abs=0.0005)

    def test_reference_interval_reproduction(self):
        q = t_quantile(0.975, 18)
        assert 2.37 - q * 0.29 == pytest.approx(1.76, abs=0.002)
        assert 2.37 + q * 0.29 == pytest.approx(2.978, abs=0.002)

    def test_roundtrip_with_cdf(self):
        for prob in (0.6, 0.9, 0.975, 0.995):
            for df in (3, 18, 44.5):
                q = t_quantile(prob, df)
                assert t_two_tailed_p(q, df) == pytest.approx(
                    2 * (1 - prob), abs=1e-9
                )

    def test_negative_side(self):
        assert t_quantile(0.025, 18) == -t_quantile(0.975, 18)
        for prob in (0.6, 0.9, 0.95, 0.995, 0.9999):
            for df in (1, 7.3, 18, 1998, 1e5):
                assert t_quantile(1.0 - prob, df) == -t_quantile(prob, df)

    def test_matches_scipy_ppf(self):
        for df in QUANTILE_DFS:
            for prob in QUANTILE_PROBS:
                assert t_quantile(prob, df) == pytest.approx(
                    stats.t.ppf(prob, df), rel=1e-9, abs=0.0
                ), (prob, df)

    def test_few_incomplete_beta_evaluations(self, beta_calls):
        # A slide back to bisection would take about 62 per quantile.
        for df in QUANTILE_DFS:
            for prob in QUANTILE_PROBS:
                beta_calls.clear()
                t_quantile(prob, df)
                assert 0 < len(beta_calls) <= 25, (prob, df, len(beta_calls))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            t_quantile(0.0, 5)
        with pytest.raises(ValidationError):
            t_quantile(1.0, 5)
        with pytest.raises(ValidationError):
            t_quantile(0.9, -1)


class TestFTail:
    def test_zero_statistic(self):
        assert f_tail_p(0.0, 1, 18) == 1.0
        assert f_tail_p(0.0, 3.5, 7) == 1.0

    def test_reference_values(self):
        assert f_tail_p(9.668, 1, 18) == pytest.approx(0.006, abs=0.001)
        assert f_tail_p(6.737, 1, 18) == pytest.approx(0.018, abs=0.001)

    def test_t_squared_identity(self):
        rng = np.random.RandomState(23)
        points = [(float(rng.uniform(-4, 4)), float(rng.uniform(2, 50)))
                  for _ in range(50)]
        # t^2 underflows to 0 at 1e-170 and overflows at 1e200
        points += [(t, df2) for t in (0.0, 1e-170, -1e-170, 1e-9, 1.5, 1e200, math.inf)
                   for df2 in (1.0, 18.0, 1e5, 1e12)]
        for t, df2 in points:
            assert f_tail_p(t * t, 1, df2) == t_two_tailed_p(t, df2), (t, df2)

    def test_one_incomplete_beta_evaluation_per_tail(self, beta_calls):
        # Past the switch point the call is I_y(b, a), with the smaller shape first.
        switched = set()
        for stat in (1e-4, 0.3, 1.5, 4.0):
            for df in (3.0, 18.0, 1e5):
                for tail in (lambda: t_two_tailed_p(stat, df),
                             lambda: f_tail_p(stat, 2.5, df)):
                    beta_calls.clear()
                    tail()
                    assert len(beta_calls) == 1, (stat, df, beta_calls)
                    switched.add(beta_calls[0][0] < beta_calls[0][1])
        assert switched == {False, True}

    def test_matches_scipy(self):
        rng = np.random.RandomState(29)
        for _ in range(100):
            f = float(rng.uniform(0, 12))
            df1 = float(rng.uniform(1, 10))
            df2 = float(rng.uniform(2, 60))
            assert f_tail_p(f, df1, df2) == pytest.approx(
                stats.f.sf(f, df1, df2), abs=1e-12
            )

    @pytest.mark.parametrize("f, df2", [(1e-8, 1e5), (1e-4, 5998)])
    def test_small_statistic_with_large_df2(self, f, df2):
        assert f_tail_p(f, 1, df2) == pytest.approx(
            stats.f.sf(f, 1, df2), rel=1e-12, abs=0.0
        )

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            f_tail_p(-0.5, 1, 18)
        with pytest.raises(ValidationError):
            f_tail_p(1.0, 0, 18)
        with pytest.raises(ValidationError):
            f_tail_p(1.0, 1, 0)
        with pytest.raises(ValidationError):
            f_tail_p(math.nan, 1, 18)
        with pytest.raises(ValidationError):
            t_two_tailed_p(math.nan, 18)
