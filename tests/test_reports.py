import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from factorindex import reports
from factorindex.dataset import standardize
from factorindex.factors import build_factor_model, factor_scores
from factorindex.inference import compare_groups
from factorindex.ranking import RankedIndex, rank_by_factor, with_groups

from conftest import dataset_from, make_table
from oracles import ranking_payload


@pytest.fixture(scope="module")
def fitted():
    ids, names, values = make_table(n=40, p=8, seed=12)
    ds = dataset_from(ids, names, values)
    z = standardize(ds)
    model = build_factor_model(z)
    scores = factor_scores(z, model.score_coefficients)
    ranked = with_groups(rank_by_factor(scores, 1), 10)
    report = compare_groups(ds, ranked.group1_ids, ranked.group2_ids)
    return ds, model, ranked, report


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestFactorModelExports:
    def test_loadings_csv_layout(self, fitted):
        ds, model, _, _ = fitted
        rows = parse_csv(reports.loadings_csv(model))
        assert rows[0] == ["variable"] + [f"factor_{j+1}" for j in range(model.retained)]
        assert len(rows) == 1 + ds.n_variables
        assert rows[1][0] == ds.indicator_names[0]
        assert float(rows[1][1]) == pytest.approx(model.loadings_rotated[0, 0])

    def test_eigenvalues_csv(self, fitted):
        _, model, _, _ = fitted
        rows = parse_csv(reports.eigenvalues_csv(model))
        assert rows[0] == ["component", "eigenvalue", "proportion", "cumulative"]
        assert len(rows) == 1 + len(model.eigenvalues)
        assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-9)

    def test_communalities_and_coefficients_csv(self, fitted):
        ds, model, _, _ = fitted
        rows = parse_csv(reports.communalities_csv(model))
        assert len(rows) == 1 + ds.n_variables
        rows = parse_csv(reports.score_coefficients_csv(model))
        assert float(rows[2][1]) == pytest.approx(model.score_coefficients[1, 0])

    def test_json_payload_fields(self, fitted):
        _, model, _, _ = fitted
        text = reports.record_json(model)
        parsed = json.loads(text)
        assert parsed["retained"] == model.retained
        assert parsed["kmo"]["label"] == model.kmo.label
        assert len(parsed["loadings_rotated"]) == len(model.indicator_names)
        assert parsed["variance_explained"] == pytest.approx(
            model.variance_explained)

    def test_text_uses_three_decimals(self, fitted):
        _, model, _, _ = fitted
        text = reports.factor_model_text(model)
        value = f"{model.loadings_rotated[0, 0]:.3f}"
        assert value in text
        assert "KMO sampling adequacy" in text

    def test_csv_full_precision_roundtrip(self, fitted):
        _, model, _, _ = fitted
        rows = parse_csv(reports.loadings_csv(model))
        for i, name in enumerate(model.indicator_names):
            for j in range(model.retained):
                assert float(rows[1 + i][1 + j]) == model.loadings_rotated[i, j]


def write_ranking(ranked, model, formats=("json", "csv", "text")):
    """The texts write_ranking writes for ``formats``, by format."""
    streams = {fmt: io.StringIO() for fmt in formats}
    reports.write_ranking(ranked, model, streams)
    return {fmt: stream.getvalue() for fmt, stream in streams.items()}


class TestRankingExports:
    def test_csv(self, fitted):
        _, model, ranked, _ = fitted
        rows = parse_csv(write_ranking(ranked, model)["csv"])
        assert rows[0] == ["rank", "case_id", "score"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, ranked.n_cases + 1))
        assert float(rows[1][2]) == ranked.scores[0]

    def test_text_layout(self, fitted):
        _, model, ranked, _ = fitted
        text = write_ranking(ranked, model)["text"]
        assert "Rank | Communities" in text
        assert f"   1 | {ranked.case_ids[0]}" in text
        assert "Largest loadings on this factor" in text
        assert "Group 1 (ranks 1-10)" in text

    def test_json_groups(self, fitted):
        _, model, ranked, _ = fitted
        payload = json.loads(write_ranking(ranked, model, ["json"])["json"])
        assert payload["group_size"] == 10
        assert payload["group1_ids"] == list(ranked.group1_ids)
        assert len(payload["top_loadings"]) == 3
        strongest = max(abs(v) for v in np.asarray(model.loadings_rotated)[:, 0])
        assert abs(payload["top_loadings"][0]["loading"]) == pytest.approx(strongest)


ADVERSARIAL_IDS = {
    "comma": "a,b", "quote": 'say "hi"', "cr": "a\rb", "lf": "a\nb",
    "backslash": "a\\b", "control": "a\x01b", "separator": "a\x1cb",
    "latin": "café", "astral": "a\U0001F600b", "nul": "a\x00b",
}


def adversarial_ranking(*case_ids, scores=None):
    ids = ("c1",) + case_ids + ("c3", "c4", "c5")
    if scores is None:
        scores = [-2.5, -0.0, 0.0, 1e-300, 0.1 + 0.2, 1e300, 7.0][:len(ids)]
    ranked = RankedIndex(factor=1, direction="ascending", case_ids=ids,
                         scores=scores)
    return with_groups(ranked, 2)


def csv_writer_ranking(ranked):
    """ranking.csv as csv.writer writes it from the ranking's columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "case_id", "score"])
    for rank, (cid, score) in enumerate(zip(ranked.case_ids, ranked.scores.tolist()),
                                        start=1):
        writer.writerow([str(rank), cid, repr(score)])
    return buf.getvalue()


def text_ranking(ranked, model):
    """ranking.txt built line by line: title, loadings, rank table, groups."""
    strongest = ", ".join(
        f"{name} ({value:.3f})"
        for name, value in reports.top_loading_variables(model, ranked.factor))
    lines = [f"Ranking on factor {ranked.factor} ({ranked.direction})",
             f"Largest loadings on this factor: {strongest}", ""]
    width = max(len("Communities"), max(len(cid) for cid in ranked.case_ids))
    lines.append(f"{'Rank':>4} | Communities")
    lines.append("-" * (7 + width))
    lines.extend(f"{rank:>4} | {cid}"
                 for rank, cid in enumerate(ranked.case_ids, start=1))
    if ranked.group_size:
        n, k = ranked.n_cases, ranked.group_size
        lines.append("")
        lines.append(f"Group 1 (ranks 1-{k}): " + ", ".join(ranked.group1_ids))
        lines.append(f"Group 2 (ranks {n - k + 1}-{n}): " + ", ".join(ranked.group2_ids))
    return "\n".join(lines) + "\n"


def references(ranked, model):
    return {"json": json.dumps(ranking_payload(ranked, model), indent=2,
                               sort_keys=True) + "\n",
            "csv": csv_writer_ranking(ranked), "text": text_ranking(ranked, model)}


def csv_writer_accepts(field):
    try:
        csv.writer(io.StringIO()).writerow([field])
    except csv.Error:  # Python 3.10 cannot write a NUL without an escapechar
        return False
    return True


class _Sink:
    """A text stream that keeps nothing."""

    def write(self, text):
        return len(text)


class TestWriteRanking:
    """write_ranking streams the ranking columns in blocks; the bytes must be
    those of json.dumps(ranking_payload(...)), of csv.writer and of the
    line-by-line text layout, whatever the block size."""

    CASES = [[cid] for cid in ADVERSARIAL_IDS.values()] + [list(ADVERSARIAL_IDS.values())]
    NAMES = list(ADVERSARIAL_IDS) + ["all"]

    @pytest.mark.parametrize("case_ids", CASES, ids=NAMES)
    def test_csv_equals_csv_writer(self, fitted, case_ids):
        _, model, _, _ = fitted
        ranked = adversarial_ranking(*case_ids)
        if all(map(csv_writer_accepts, case_ids)):
            assert write_ranking(ranked, model, ["csv"])["csv"] == \
                csv_writer_ranking(ranked)
        else:
            with pytest.raises(csv.Error):
                write_ranking(ranked, model, ["csv"])

    @pytest.mark.parametrize("case_ids", CASES, ids=NAMES)
    def test_json_and_text_equal_the_references(self, fitted, case_ids):
        _, model, _, _ = fitted
        ranked = adversarial_ranking(*case_ids)
        payload = ranking_payload(ranked, model)
        written = write_ranking(ranked, model, ["json", "text"])
        assert written["json"] == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert written["text"] == text_ranking(ranked, model)
        assert payload["entries"] == [
            {"rank": rank, "case_id": cid, "score": score}
            for rank, (cid, score) in enumerate(
                zip(ranked.case_ids, ranked.scores.tolist()), start=1)]

    def test_non_finite_scores(self, fitted):
        _, model, _, _ = fitted
        ranked = adversarial_ranking("c2", scores=[-np.inf, 0.5, np.inf, np.nan, 1.0])
        written = write_ranking(ranked, model)
        assert written == references(ranked, model)
        assert [e["score"] for e in json.loads(written["json"])["entries"]] == \
            [None, 0.5, None, None, 1.0]

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_any_block_size_writes_the_same_bytes(self, fitted, monkeypatch, block):
        _, model, _, _ = fitted
        monkeypatch.setattr(reports, "_BLOCK_RANKS", block)
        ids = [cid for cid in ADVERSARIAL_IDS.values() if csv_writer_accepts(cid)]
        for n in range(3, 8):
            for bad in range(n):
                # One non-finite score, so only one block holds one.
                scores = [0.1 * i - 0.25 for i in range(n)]
                scores[bad] = (np.nan, np.inf, -np.inf)[bad % 3]
                ranked = RankedIndex(factor=1, direction="descending",
                                     case_ids=(ids * 2)[bad:bad + n], scores=scores)
                for grouped in (ranked, with_groups(ranked, n // 2)):
                    expected = references(grouped, model)
                    assert write_ranking(grouped, model) == expected
                    for fmt in expected:
                        assert write_ranking(grouped, model, [fmt])[fmt] == expected[fmt]

    def test_peak_memory_does_not_grow_with_the_cases(self, fitted, monkeypatch):
        # Small blocks give both sizes many blocks, at a fraction of the
        # time that tracemalloc takes over tens of thousands of ranks.
        monkeypatch.setattr(reports, "_BLOCK_RANKS", 64)
        _, model, _, _ = fitted
        peaks = []
        for n in (2_000, 8_000):
            ranked = with_groups(RankedIndex(
                factor=1, direction="descending",
                case_ids=tuple(f"tract_{i:06d}" for i in range(n)),
                scores=np.random.RandomState(31).randn(n)), 10)
            streams = {"json": _Sink(), "csv": _Sink(), "text": _Sink()}
            tracemalloc.start()
            try:
                reports.write_ranking(ranked, model, streams)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestComparisonExports:
    def test_csv_two_rows_per_variable(self, fitted):
        ds, _, _, report = fitted
        rows = parse_csv(reports.comparison_csv(report))
        body = rows[1:]
        assert len(body) == 2 * len(report.variables)
        variants = {(r[0], r[1]) for r in body}
        assert (report.variables[0].name, "pooled") in variants
        assert (report.variables[0].name, "welch") in variants

    def test_json_structure(self, fitted):
        _, _, _, report = fitted
        parsed = json.loads(reports.record_json(report))
        assert len(parsed["variables"]) == len(report.variables)
        rec = parsed["variables"][0]
        assert set(rec) >= {"name", "group1", "group2", "levene", "pooled",
                            "welch", "reported_variant", "significant"}
        assert rec["group1"]["n"] == 10
        assert parsed["alpha"] == report.alpha

    def test_text_has_both_tables(self, fitted):
        _, _, _, report = fitted
        text = reports.comparison_text(report)
        assert "Group statistics (raw units)" in text
        assert "Levene's test and t-tests" in text
        assert "Significant at alpha 0.05" in text

    def test_json_never_contains_nan(self, fitted):
        ds, _, _, _ = fitted
        values = ds.values.copy()
        values[:, 0] = 3.0  # constant -> degenerate record
        broken = dataset_from(ds.case_ids, ds.indicator_names, values)
        report = compare_groups(broken, ds.case_ids[:10], ds.case_ids[-10:])
        text = reports.record_json(report)
        assert "NaN" not in text and "Infinity" not in text
        parsed = json.loads(text)
        assert parsed["variables"][0]["degenerate"] is True
        assert parsed["variables"][0]["pooled"] is None

    def test_serialization_deterministic(self, fitted):
        _, model, ranked, report = fitted
        assert reports.record_json(model) == \
            reports.record_json(model)
        assert reports.comparison_csv(report) == reports.comparison_csv(report)
        assert write_ranking(ranked, model) == write_ranking(ranked, model)


class TestJsonSchemas:
    """Every key set of the record-shaped JSON artifacts is the README schema,
    exactly: a new record field must be documented before it is written."""

    def test_factor_model_keys(self, fitted):
        _, model, _, _ = fitted
        parsed = json.loads(reports.record_json(model))
        assert set(parsed) == {
            "indicator_names", "eigenvalues", "retained", "variance_explained",
            "kmo", "loadings_unrotated", "loadings_rotated", "rotation",
            "communalities", "score_coefficients", "rotation_method",
            "rotation_converged",
        }
        assert set(parsed["kmo"]) == {"overall", "label", "per_variable"}

    def test_comparison_keys(self, fitted):
        _, _, _, report = fitted
        parsed = json.loads(reports.record_json(report))
        assert set(parsed) == {
            "group1_ids", "group2_ids", "alpha", "alpha_levene", "ci_level",
            "standardize_scope", "levene_center", "variables",
        }
        ttest = {"t", "df", "p_two_tailed", "mean_difference", "se_difference",
                 "ci_low", "ci_high", "level", "variant", "degenerate"}
        for rec in parsed["variables"]:
            assert set(rec) == {
                "name", "group1", "group2", "levene", "pooled", "welch",
                "reported_variant", "significant", "significant_at_05",
                "significant_at_10", "degenerate", "note",
            }
            assert set(rec["group1"]) == set(rec["group2"]) == {"n", "mean", "sd", "sem"}
            assert set(rec["levene"]) == {"F", "df1", "df2", "p", "center"}
            assert set(rec["pooled"]) == set(rec["welch"]) == ttest
