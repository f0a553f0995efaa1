"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Group A replays the golden reference tables through the statistics engines
at the stated tolerances; group B runs the oracle and property batteries.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import os

import numpy as np

from factorindex.cli import main
from factorindex.dataset import standardize
from factorindex.factors import (FactorScores, build_factor_model,
                                 correlation_matrix, factor_scores, kmo,
                                 kmo_label, varimax)
from factorindex.inference import levene_test, t_tests
from factorindex.numkernel import (f_tail_p, sym_eigen, t_quantile,
                                   t_two_tailed_p)
from factorindex.ranking import rank_by_factor

from conftest import dataset_from, make_table, planted_structure, write_table_csv
from oracles import (grid_search_best, kmo_regression_oracle,
                     varimax_criterion, worst_congruence)
from reference_tables import (GROUP_STATS, SIGNIFICANT_AT_05,
                              SIGNIFICANT_AT_10, T_TABLE)


def criterion(tag, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{mark}] {tag}{suffix}")
    assert ok, f"{tag}{suffix}"


# ---------------------------------------------------------------------------
# A. reference-table consistency


def test_a1_sem_arithmetic():
    worst = 0.0
    for name, groups in GROUP_STATS.items():
        for n, _, sd, sem in groups:
            worst = max(worst, abs(sd / math.sqrt(n) - sem))
    criterion("A1 SEM = sd/sqrt(n) on all 28 descriptive rows (tol 0.001)",
              worst <= 0.001, f"worst |err| = {worst:.5f}")


def test_a2_t_from_difference_and_se():
    worst = 0.0
    for name, row in T_TABLE.items():
        _, _, t, _, _, delta, se, _, _ = row
        worst = max(worst, abs(delta / se - t))
    criterion("A2 t = mean difference / se on all 14 rows (tol 0.01)",
              worst <= 0.01, f"worst |err| = {worst:.5f}")


def test_a3_confidence_interval_reproduction():
    q = t_quantile(0.975, 18)
    worst = 0.0
    for name, row in T_TABLE.items():
        _, _, _, _, _, delta, se, lo, hi = row
        worst = max(worst, abs(delta - q * se - lo), abs(delta + q * se - hi))
    criterion("A3 CI = diff +/- t(0.975,18)*se on all 14 rows (tol 0.002)",
              worst <= 0.002, f"worst |err| = {worst:.5f}")


def test_a4_p_value_engines_match_reference():
    worst_t = 0.0
    worst_f = 0.0
    for name, row in T_TABLE.items():
        levene_f, levene_p, t, df, p, *_ = row
        worst_t = max(worst_t, abs(t_two_tailed_p(t, df) - p))
        worst_f = max(worst_f, abs(f_tail_p(levene_f, 1, df) - levene_p))
    criterion("A4 t and F tail probabilities match all 28 printed "
              "significances (tol 0.001)",
              worst_t <= 0.001 and worst_f <= 0.001,
              f"worst t-p err = {worst_t:.5f}, worst F-p err = {worst_f:.5f}")


def test_a5_significance_counts():
    at_10 = {name for name, row in T_TABLE.items() if row[4] < 0.10}
    at_05 = {name for name, row in T_TABLE.items() if row[4] < 0.05}
    criterion("A5 printed significances: exactly 3 below 0.10 and 1 below 0.05",
              at_10 == SIGNIFICANT_AT_10 and at_05 == SIGNIFICANT_AT_05,
              f"at 0.10: {sorted(at_10)}")


def test_a6_kmo_label():
    criterion("A6 KMO 0.707 labeled 'middling'",
              kmo_label(0.707) == "middling")


# ---------------------------------------------------------------------------
# B. oracle and property suites


def test_b7_eigensolver_battery():
    rng = np.random.RandomState(7)
    worst_recon = worst_orth = worst_trace = 0.0
    for _ in range(100):
        n = rng.randint(5, 41)
        a = rng.randn(n, n)
        a = (a + a.T) / 2.0
        d = sym_eigen(a)
        v = d.eigenvectors
        worst_orth = max(worst_orth, float(np.max(np.abs(v.T @ v - np.eye(n)))))
        recon = v @ np.diag(d.eigenvalues) @ v.T
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - a))))
        trace = float(np.trace(a))
        worst_trace = max(worst_trace,
                          abs(d.eigenvalues.sum() - trace) / max(1.0, abs(trace)))
    criterion("B7 eigen battery: reconstruction/orthonormality < 1e-10, "
              "trace < 1e-9 over 100 matrices",
              worst_recon < 1e-10 and worst_orth < 1e-10 and worst_trace < 1e-9,
              f"recon {worst_recon:.2e}, orth {worst_orth:.2e}, "
              f"trace {worst_trace:.2e}")


def test_b8_varimax_battery():
    rng = np.random.RandomState(47)
    worst_gap = -np.inf
    worst_comm = 0.0
    worst_idem = 0.0
    monotone = True
    for _ in range(50):
        p = rng.randint(4, 13)
        a = rng.randn(p, 2)
        result = varimax(a, kaiser_normalize=False)
        gap = grid_search_best(a) - varimax_criterion(result.loadings)
        worst_gap = max(worst_gap, gap)
        history = result.criterion_history
        monotone &= all(b >= a_ - 1e-12 for a_, b in zip(history, history[1:]))
        comm = np.abs(np.sum(a * a, axis=1) - np.sum(result.loadings ** 2, axis=1))
        worst_comm = max(worst_comm, float(comm.max()))
        again = varimax(result.loadings, kaiser_normalize=False)
        worst_idem = max(worst_idem,
                         float(np.max(np.abs(again.loadings - result.loadings))))
    criterion("B8 varimax battery: within 1e-3 of grid oracle, monotone, "
              "communalities < 1e-8, idempotent < 1e-10 over 50 matrices",
              worst_gap <= 1e-3 and monotone and worst_comm < 1e-8
              and worst_idem < 1e-10,
              f"gap {worst_gap:.2e}, comm {worst_comm:.2e}, "
              f"idem {worst_idem:.2e}")


def test_b9_kmo_battery():
    rng = np.random.RandomState(43)
    worst = 0.0
    for _ in range(20):
        p = rng.randint(4, 9)
        n = 40
        x = rng.randn(n, p) + rng.randn(n, 1) * rng.rand(p)
        ds = dataset_from([f"c{i}" for i in range(n)],
                          [f"v{j}" for j in range(p)], x)
        r = correlation_matrix(standardize(ds))
        worst = max(worst, abs(kmo(r).overall - kmo_regression_oracle(x)))
    worst_half = 0.0
    for _ in range(5):
        x = rng.randn(30, 2)
        x[:, 1] += rng.uniform(0.2, 1.0) * x[:, 0]
        ds = dataset_from([f"c{i}" for i in range(30)], ["a", "b"], x)
        value = kmo(correlation_matrix(standardize(ds))).overall
        worst_half = max(worst_half, abs(value - 0.5))
    criterion("B9 KMO: matches regression-residual oracle < 1e-8 on 20 "
              "datasets; 2-variable case exactly 0.5",
              worst < 1e-8 and worst_half < 1e-12,
              f"oracle err {worst:.2e}, two-var err {worst_half:.2e}")


def test_b10_planted_structure_recovery():
    gen, x = planted_structure(seed=2024)
    ds = dataset_from([f"c{i}" for i in range(x.shape[0])],
                      [f"v{j}" for j in range(x.shape[1])], x)
    model = build_factor_model(standardize(ds))
    congruence = worst_congruence(gen, model.loadings_rotated)
    criterion("B10 planted 3-factor model: Kaiser retains 3, congruence "
              "> 0.98 per factor",
              model.retained == 3 and congruence > 0.98,
              f"retained {model.retained}, worst congruence {congruence:.4f}")


def test_b11_factor_scores_oracle():
    rng = np.random.RandomState(89)
    ids, names, values = make_table(n=20, p=5, seed=89)
    z = standardize(dataset_from(ids, names, values))
    w = rng.randn(5, 2)
    scores = factor_scores(z, w).scores
    worst = 0.0
    for case in range(20):
        for factor in range(2):
            total = 0.0
            for var in range(5):
                total += w[var, factor] * z.values[case, var]
            worst = max(worst, abs(scores[case, factor] - total))
    ids, names, values = make_table(n=40, p=8, seed=97)
    z = standardize(dataset_from(ids, names, values))
    model = build_factor_model(z)
    means = np.abs(factor_scores(z, model.score_coefficients)
                   .scores.mean(axis=0)).max()
    criterion("B11 factor scores: triple-loop oracle < 1e-12, column means "
              "< 1e-8",
              worst < 1e-12 and means < 1e-8,
              f"oracle err {worst:.2e}, worst mean {means:.2e}")


def test_b12_inference_property_battery():
    rng = np.random.RandomState(19)
    ok = True
    worst = 0.0
    for _ in range(50):
        g1 = rng.randn(7) * rng.uniform(0.5, 2.0)
        g2 = rng.randn(9) + rng.uniform(-1.0, 1.0)
        for variant in (0, 1):
            fwd = t_tests(g1, g2)[variant]
            rev = t_tests(g2, g1)[variant]
            worst = max(worst, abs(fwd.t + rev.t),
                        abs(fwd.p_two_tailed - rev.p_two_tailed),
                        abs(fwd.mean_difference + rev.mean_difference))
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-10.0, 10.0)
            moved = t_tests(a * g1 + b, a * g2 + b)[variant]
            worst = max(worst, abs(moved.t - fwd.t), abs(moved.df - fwd.df),
                        abs(moved.p_two_tailed - fwd.p_two_tailed))
        shifted = g1 + rng.uniform(-2.0, 2.0)  # equal n, identical variance
        pooled, welch = t_tests(g1, shifted)
        worst = max(worst, abs(pooled.df - welch.df), abs(pooled.t - welch.t))
        levene = levene_test(g1, g2)
        worst = max(worst, abs(levene.p - t_two_tailed_p(
            math.sqrt(levene.F), levene.df2)))
        ok &= worst < 1e-10
    criterion("B12 inference properties: antisymmetry, affine invariance, "
              "pooled=Welch under symmetry, Levene F <-> t^2, 50 instances "
              "(tol 1e-10)",
              ok, f"worst deviation {worst:.2e}")


def test_b13_pipeline_determinism_and_rank_invariance(tmp_path):
    ids, names, values = make_table()
    table = write_table_csv(tmp_path / "table.csv", ids, names, values)
    out = tmp_path / "out"
    args = ["analyze", "--input", table, "--out-dir", str(out),
            "--format", "json"]
    assert main(list(args)) == 0
    first = {n: (out / n).read_bytes() for n in os.listdir(out)}
    assert main(list(args)) == 0
    second = {n: (out / n).read_bytes() for n in os.listdir(out)}
    identical = first == second and set(first) == {
        "factor_model.json", "ranking.json", "comparison.json",
        "run_summary.json"}

    rng = np.random.RandomState(7)
    case_ids = [f"c{i:02d}" for i in range(30)]
    column = rng.randn(30)
    baseline = None
    invariant = True
    for _ in range(50):
        order = rng.permutation(30)
        scores = FactorScores(tuple(case_ids[i] for i in order),
                              column[order][:, None])
        ranked_ids = rank_by_factor(scores, 1).case_ids
        if baseline is None:
            baseline = ranked_ids
        invariant &= ranked_ids == baseline
    criterion("B13 two identical runs byte-identical; ranking invariant "
              "under 50 input shuffles",
              identical and invariant)
