"""Checks of one invocation's artifacts, computed apart from the program.

Every expected value comes from numpy/scipy applied to the generator's own
float64 matrix (never to the CSV read back through ``load_csv``), or from a
property the method must have. The JSON artifact is checked against those
values; the CSV and text artifacts are then checked against the JSON.
Any disagreement raises :class:`CheckFailed`.
"""

import csv
import io
import json
import re

import numpy as np
from scipy import stats

from workloads import FORMATS

# Text artifacts print 3 decimals.
TEXT_TOL = 5e-4 + 1e-9
KAISER_SCALE = ((0.9, "marvelous"), (0.8, "meritorious"), (0.7, "middling"),
                (0.6, "mediocre"), (0.5, "miserable"))
MIN_CONGRUENCE = 0.95

ARTIFACTS = {
    "factor_model": ("factor_model.json", "factor_model.csv",
                     "factor_model_eigenvalues.csv", "factor_model_communalities.csv",
                     "factor_model_coefficients.csv", "factor_model.txt"),
    "ranking": ("ranking.json", "ranking.csv", "ranking.txt"),
    "comparison": ("comparison.json", "comparison.csv", "comparison.txt"),
}
PRODUCES = {
    "analyze": ("factor_model", "ranking", "comparison"),
    "rank": ("factor_model", "ranking"),
    "compare": ("comparison",),
}


class CheckFailed(AssertionError):
    """An artifact disagrees with the independent computation."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, what, rtol=1e-9, atol=1e-12):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(actual.shape == expected.shape,
             f"{what}: shape {actual.shape} != expected {expected.shape}")
    if not np.allclose(actual, expected, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(actual - expected)))
        raise CheckFailed(f"{what}: differs from the independent value by {worst:.3e}")


def _text_close(text, value, what):
    _require(abs(float(text) - value) <= TEXT_TOL + 1e-12 * abs(value),
             f"{what}: text shows {text}, JSON has {value!r}")


def _csv_rows(data):
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _lines_after(lines, prefix, skip=0):
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            return lines[i + 1 + skip:]
    raise CheckFailed(f"text artifact has no line starting {prefix!r}")


def complete_rows(workload):
    """Generator rows without a blank cell: what listwise deletion keeps."""
    keep = np.all(np.isfinite(workload.values), axis=1)
    ids = tuple(cid for cid, k in zip(workload.case_ids, keep) if k)
    return ids, workload.values[keep]


def check_invocation(workload, artifacts, stderr, out_dir):
    """Check every artifact of one invocation; ``artifacts`` maps name to bytes."""
    kinds = PRODUCES[workload.command]
    expected = {"run_summary.json"}
    for kind in kinds:
        expected.update(ARTIFACTS[kind])
    _require(set(artifacts) == expected,
             f"artifacts {sorted(artifacts)} != expected {sorted(expected)}")
    ids, x = complete_rows(workload)
    _check_dropped(workload, stderr)
    _check_summary(workload, json.loads(artifacts["run_summary.json"]), out_dir)
    model = ranking = None
    if "factor_model" in kinds:
        model = check_factor_model(workload, x, artifacts)
    if "ranking" in kinds:
        ranking = check_ranking(workload, ids, x, model, artifacts)
    if "comparison" in kinds:
        if ranking is not None:
            groups = (tuple(ranking["group1_ids"]), tuple(ranking["group2_ids"]))
        else:
            groups = (workload.group1_ids, workload.group2_ids)
        check_comparison(workload, ids, x, groups, artifacts)


def _check_dropped(workload, stderr):
    match = re.search(r"listwise deletion dropped (\d+) case\(s\): (.*)", stderr)
    if not workload.blanked_ids:
        _require(match is None, "rows were dropped from a table without blank cells")
        return
    _require(match is not None, "no listwise-deletion report on stderr")
    dropped = [cid.strip() for cid in match.group(2).split(",")]
    _require(int(match.group(1)) == len(dropped)
             and sorted(dropped) == sorted(workload.blanked_ids),
             "dropped rows differ from the rows the generator blanked")


def _check_summary(workload, summary, out_dir):
    config = summary["config"]
    _require(config["input"] == workload.files["table"], "run_summary: input path")
    _require(config["output"] == {"dir": out_dir, "formats": list(FORMATS)},
             "run_summary: output section")
    if workload.command == "compare":
        comparison = config["comparison"]
        _require(comparison["group1"] == list(workload.group1_ids)
                 and comparison["group2"] == list(workload.group2_ids),
                 "run_summary: group lists")
        _require(config["missing_policy"] == workload.options["missing_policy"]
                 and comparison["standardize_scope"]
                 == workload.options["standardize_scope"],
                 "run_summary: missing policy or standardization scope")
    if workload.command == "rank":
        _require(config["ranking"]["direction"] == workload.options["direction"]
                 and config["ranking"]["k"] == workload.options["k"],
                 "run_summary: ranking section")


# ---------------------------------------------------------------------------
# factor model


def _varimax_criterion(b):
    sq = b * b
    return float(np.sum(sq * sq) / b.shape[0] - np.sum(sq.mean(axis=0) ** 2))


def check_factor_model(workload, x, artifacts):
    fm = json.loads(artifacts["factor_model.json"])
    r = np.corrcoef(x, rowvar=False)
    p = r.shape[0]
    _require(tuple(fm["indicator_names"]) == workload.indicator_names,
             "factor model: indicator names")

    eig = np.array(fm["eigenvalues"], dtype=float)
    _close(eig, np.linalg.eigvalsh(r)[::-1], "eigenvalues vs numpy.linalg.eigvalsh",
           atol=1e-9)
    _close(eig.sum(), p, "sum of eigenvalues vs p", atol=1e-9)
    k = fm["retained"]
    _require(k == int(np.sum(eig > 1.0)), f"retained {k} != count of eigenvalues > 1")
    _close(fm["variance_explained"], eig[:k].sum() / p, "variance explained")

    unrot = np.array(fm["loadings_unrotated"], dtype=float)
    rot = np.array(fm["loadings_rotated"], dtype=float)
    t = np.array(fm["rotation"], dtype=float)
    _require(unrot.shape == (p, k) and rot.shape == (p, k) and t.shape == (k, k),
             "factor model: loading or rotation shape")
    _close(r @ unrot, unrot * eig[:k], "R @ unrotated = unrotated * eigenvalues",
           atol=1e-8)
    _close(unrot.T @ unrot, np.diag(eig[:k]), "unrotated' unrotated = diag(eigenvalues)",
           atol=1e-8)
    _close(t.T @ t, np.eye(k), "rotation orthogonality", atol=1e-10)
    _close(unrot @ t, rot, "unrotated @ rotation = rotated", atol=1e-10)
    h = np.sqrt(np.sum(rot * rot, axis=1))[:, None]
    _require(_varimax_criterion(rot / h) >= _varimax_criterion(unrot / h) - 1e-12,
             "varimax lowered the (normalized) varimax criterion")
    _require(fm["rotation_method"] == "varimax" and fm["rotation_converged"] is True,
             "rotation method or convergence")
    ss = np.sum(rot * rot, axis=0)
    _require(np.all(np.diff(ss) <= 1e-12), "rotated columns not ordered by sum of squares")
    largest = rot[np.argmax(np.abs(rot), axis=0), np.arange(k)]
    _require(np.all(largest > 0), "a rotated column's largest loading is negative")
    _close(fm["communalities"], np.sum(rot * rot, axis=1), "communalities")

    w = np.array(fm["score_coefficients"], dtype=float)
    _close(r @ w, rot, "R @ score coefficients = rotated loadings", atol=1e-8)

    s = np.linalg.inv(r)
    q = -s / np.sqrt(np.outer(np.diag(s), np.diag(s)))
    off = ~np.eye(p, dtype=bool)
    r2 = np.where(off, r * r, 0.0)
    q2 = np.where(off, q * q, 0.0)
    _close(fm["kmo"]["overall"], r2.sum() / (r2.sum() + q2.sum()), "KMO overall",
           rtol=1e-8)
    _close(fm["kmo"]["per_variable"], r2.sum(0) / (r2.sum(0) + q2.sum(0)),
           "KMO per variable", rtol=1e-8)
    overall = fm["kmo"]["overall"]
    label = next((name for bound, name in KAISER_SCALE if overall >= bound),
                 "unacceptable")
    _require(fm["kmo"]["label"] == label, "KMO label does not follow Kaiser's scale")

    planted = workload.planted
    _require(k == planted.shape[1],
             f"retained {k} factors; {planted.shape[1]} were planted")
    phi = (planted.T @ rot) / np.sqrt(np.outer(np.sum(planted ** 2, 0), ss))
    best = np.argmax(np.abs(phi), axis=1)
    _require(len(set(best.tolist())) == k
             and np.all(np.abs(phi[np.arange(k), best]) >= MIN_CONGRUENCE),
             f"planted structure not recovered (Tucker congruence {np.abs(phi).max(1)})")

    _check_factor_model_csv(fm, eig, rot, w, artifacts)
    _check_factor_model_text(fm, eig, rot, artifacts["factor_model.txt"])
    return fm


def _check_matrix_csv(data, names, matrix, what):
    rows = _csv_rows(data)
    k = matrix.shape[1]
    _require(rows[0] == ["variable"] + [f"factor_{j}" for j in range(1, k + 1)],
             f"{what}: header")
    _require([row[0] for row in rows[1:]] == list(names), f"{what}: variable column")
    _require(np.array_equal(np.array([row[1:] for row in rows[1:]], dtype=float), matrix),
             f"{what}: values differ from factor_model.json")


def _check_factor_model_csv(fm, eig, rot, w, artifacts):
    names = fm["indicator_names"]
    _check_matrix_csv(artifacts["factor_model.csv"], names, rot, "factor_model.csv")
    _check_matrix_csv(artifacts["factor_model_coefficients.csv"], names, w,
                      "factor_model_coefficients.csv")
    rows = _csv_rows(artifacts["factor_model_eigenvalues.csv"])
    _require(rows[0] == ["component", "eigenvalue", "proportion", "cumulative"],
             "eigenvalues csv header")
    table = np.array(rows[1:], dtype=float)
    p = len(eig)
    _require(np.array_equal(table[:, 0], np.arange(1, p + 1))
             and np.array_equal(table[:, 1], eig), "eigenvalues csv vs JSON")
    _close(table[:, 2], eig / p, "eigenvalue proportions")
    _close(table[:, 3], np.cumsum(eig / p), "cumulative proportions")
    rows = _csv_rows(artifacts["factor_model_communalities.csv"])
    _require(rows[0] == ["variable", "communality"]
             and [row[0] for row in rows[1:]] == list(names)
             and [float(row[1]) for row in rows[1:]] == fm["communalities"],
             "communalities csv vs JSON")


def _check_factor_model_text(fm, eig, rot, data):
    lines = data.decode("utf-8").splitlines()
    _require(f"Retained factors: {fm['retained']}" in lines, "factor_model.txt: retained")
    kmo_line = _lines_after(lines, "Variance explained")[0]
    match = re.fullmatch(r"KMO sampling adequacy: (\S+) \((\w+)\)", kmo_line)
    _require(match is not None and match.group(2) == fm["kmo"]["label"],
             "factor_model.txt: KMO line")
    _text_close(match.group(1), fm["kmo"]["overall"], "factor_model.txt KMO")
    table = _lines_after(lines, "component  eigenvalue")[:len(eig)]
    for i, line in enumerate(table):
        cells = line.split()
        _require(int(cells[0]) == i + 1, "factor_model.txt: component numbering")
        _text_close(cells[1], eig[i], f"factor_model.txt eigenvalue {i + 1}")
    body = _lines_after(lines, "Rotated loadings", skip=1)[:rot.shape[0]]
    for name, line, row, h2 in zip(fm["indicator_names"], body, rot, fm["communalities"]):
        cells = line.split()
        _require(cells[0] == name and len(cells) == rot.shape[1] + 2,
                 f"factor_model.txt: loadings row {name}")
        for cell, value in zip(cells[1:], list(row) + [h2]):
            _text_close(cell, value, f"factor_model.txt loadings of {name}")


# ---------------------------------------------------------------------------
# ranking


def check_ranking(workload, ids, x, fm, artifacts):
    rk = json.loads(artifacts["ranking.json"])
    direction = workload.options.get("direction", "ascending")
    k = workload.options["k"]
    factor = rk["factor"]
    _require(factor == 1 and rk["direction"] == direction, "ranking: factor or direction")
    entries = rk["entries"]
    n = len(ids)
    _require([e["rank"] for e in entries] == list(range(1, n + 1)),
             "ranking: ranks are not 1..n")
    ranked_ids = [e["case_id"] for e in entries]
    _require(sorted(ranked_ids) == sorted(ids), "ranking: case ids")

    w = np.array(fm["score_coefficients"], dtype=float)[:, factor - 1]
    z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    expected = z @ w
    row_of = {cid: i for i, cid in enumerate(ids)}
    rows = np.array([row_of[cid] for cid in ranked_ids])
    scores = np.array([e["score"] for e in entries], dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))))
    _close(scores, expected[rows], "ranking scores vs z @ W", rtol=0, atol=1e-9 * scale)

    # The artifact's order must follow its own scores exactly, ties by id...
    sign = 1.0 if direction == "ascending" else -1.0
    keys = [(sign * s, cid) for s, cid in zip(scores.tolist(), ranked_ids)]
    _require(keys == sorted(keys), "ranking: order does not follow (score, id)")
    # ...and agree with a numpy argsort of z @ W up to rounding-level near-ties.
    order = np.lexsort((np.array(ids), sign * expected))
    moved = order != rows
    _require(np.allclose(expected[order[moved]], expected[rows[moved]],
                         rtol=0, atol=1e-9 * scale),
             "ranking: order differs from numpy argsort of z @ W")

    _require(rk["group_size"] == k and rk["group1_ids"] == ranked_ids[:k]
             and rk["group2_ids"] == ranked_ids[n - k:],
             "ranking: groups are not the first and last k")
    rot = np.array(fm["loadings_rotated"], dtype=float)[:, factor - 1]
    top = sorted(range(len(rot)), key=lambda i: (-abs(rot[i]), i))[:3]
    _require(rk["top_loadings"] == [{"variable": fm["indicator_names"][i],
                                     "loading": float(rot[i])} for i in top],
             "ranking: top loadings")

    rows_csv = _csv_rows(artifacts["ranking.csv"])
    _require(rows_csv[0] == ["rank", "case_id", "score"]
             and [[int(r), cid, float(s)] for r, cid, s in rows_csv[1:]]
             == [[e["rank"], e["case_id"], e["score"]] for e in entries],
             "ranking.csv vs JSON")
    lines = artifacts["ranking.txt"].decode("utf-8").splitlines()
    _require(lines[0] == f"Ranking on factor {factor} ({direction})", "ranking.txt: title")
    body = _lines_after(lines, "Rank | Communities", skip=1)
    _require([line.split(" | ") for line in body[:n]]
             == [[f"{e['rank']:>4}", e["case_id"]] for e in entries],
             "ranking.txt: rank table vs JSON")
    _require(body[n + 1] == f"Group 1 (ranks 1-{k}): " + ", ".join(ranked_ids[:k])
             and body[n + 2] == f"Group 2 (ranks {n - k + 1}-{n}): "
             + ", ".join(ranked_ids[n - k:]),
             "ranking.txt: group lines")
    return rk


# ---------------------------------------------------------------------------
# comparison


def _t_test(z1, z2, equal_var, level):
    """(t, df, p, mean difference, se, ci low, ci high) from scipy."""
    res = stats.ttest_ind(z1, z2, equal_var=equal_var)
    n1, n2 = z1.size, z2.size
    v1, v2 = z1.var(ddof=1), z2.var(ddof=1)
    if equal_var:
        se = np.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2) * (1 / n1 + 1 / n2))
    else:
        se = np.sqrt(v1 / n1 + v2 / n2)
    diff = z1.mean() - z2.mean()
    margin = stats.t.ppf((1 + level) / 2, res.df) * se
    ci = res.confidence_interval(level)
    _close([diff - margin, diff + margin], [ci.low, ci.high],
           "scipy confidence interval vs t.ppf", rtol=1e-9, atol=1e-12)
    return (res.statistic, res.df, res.pvalue, diff, se, diff - margin, diff + margin)


def check_comparison(workload, ids, x, groups, artifacts):
    cmp_ = json.loads(artifacts["comparison.json"])
    group1, group2 = groups
    _require(tuple(cmp_["group1_ids"]) == group1 and tuple(cmp_["group2_ids"]) == group2,
             "comparison: group ids")
    scope_name = workload.options.get("standardize_scope", "selected")
    _require(cmp_["standardize_scope"] == scope_name and cmp_["levene_center"] == "mean",
             "comparison: standardization scope or Levene center")
    alpha, alpha_levene, level = cmp_["alpha"], cmp_["alpha_levene"], cmp_["ci_level"]
    records = cmp_["variables"]
    _require([rec["name"] for rec in records] == list(workload.indicator_names),
             "comparison: variables")

    row_of = {cid: i for i, cid in enumerate(ids)}
    rows1 = [row_of[cid] for cid in group1]
    rows2 = [row_of[cid] for cid in group2]
    scope = x[rows1 + rows2] if scope_name == "selected" else x
    means, sds = scope.mean(axis=0), scope.std(axis=0, ddof=1)
    for j, rec in enumerate(records):
        name = rec["name"]
        for label, rows in (("group1", rows1), ("group2", rows2)):
            raw = x[rows, j]
            sd = raw.std(ddof=1)
            _close([rec[label][key] for key in ("n", "mean", "sd", "sem")],
                   [raw.size, raw.mean(), sd, sd / np.sqrt(raw.size)],
                   f"{name} {label} descriptives", atol=1e-12 * abs(raw.mean()))
        _require(rec["degenerate"] is False, f"{name}: marked degenerate")
        z1 = (x[rows1, j] - means[j]) / sds[j]
        z2 = (x[rows2, j] - means[j]) / sds[j]
        lev = stats.levene(z1, z2, center="mean")
        _close([rec["levene"]["F"], rec["levene"]["p"]], [lev.statistic, lev.pvalue],
               f"{name} Levene vs scipy", rtol=1e-7, atol=1e-300)
        for variant, equal_var in (("pooled", True), ("welch", False)):
            got = rec[variant]
            _close([got[key] for key in ("t", "df", "p_two_tailed", "mean_difference",
                                         "se_difference", "ci_low", "ci_high")],
                   _t_test(z1, z2, equal_var, level),
                   f"{name} {variant} t-test vs scipy", rtol=1e-7, atol=1e-13)
        variant = "pooled" if rec["levene"]["p"] > alpha_levene else "welch"
        _require(rec["reported_variant"] == variant,
                 f"{name}: reported variant does not follow Levene's p")
        p = rec[variant]["p_two_tailed"]
        _require([rec["significant"], rec["significant_at_05"], rec["significant_at_10"]]
                 == [p < alpha, p < 0.05, p < 0.10], f"{name}: significance flags")

    _check_comparison_csv(records, artifacts["comparison.csv"])
    _check_comparison_text(cmp_, records, artifacts["comparison.txt"])


def _check_comparison_csv(records, data):
    rows = _csv_rows(data)
    _require(rows[0][:4] == ["variable", "variant", "reported", "group1_n"]
             and len(rows) == 1 + 2 * len(records), "comparison.csv: shape")
    for rec, pair in zip(records, zip(rows[1::2], rows[2::2])):
        for row, variant in zip(pair, ("pooled", "welch")):
            res = rec[variant]
            reported = rec["reported_variant"] == variant
            expected = [
                rec["name"], variant, "true" if reported else "false",
                rec["group1"]["n"], rec["group1"]["mean"], rec["group1"]["sd"],
                rec["group1"]["sem"], rec["group2"]["n"], rec["group2"]["mean"],
                rec["group2"]["sd"], rec["group2"]["sem"],
                rec["levene"]["F"], rec["levene"]["p"],
                res["t"], res["df"], res["p_two_tailed"], res["mean_difference"],
                res["se_difference"], res["ci_low"], res["ci_high"],
                "true" if reported and rec["significant_at_05"] else "false",
                "true" if reported and rec["significant_at_10"] else "false",
                "false", "",
            ]
            got = [cell if isinstance(want, str) else
                   (int(cell) if isinstance(want, int) else float(cell))
                   for cell, want in zip(row, expected)]
            _require(got == expected, f"comparison.csv row {rec['name']} {variant}")


def _check_comparison_text(cmp_, records, data):
    lines = data.decode("utf-8").splitlines()
    for label in ("1", "2"):
        ids = cmp_[f"group{label}_ids"]
        _require(f"Group {label} ({len(ids)}): " + ", ".join(ids) in lines,
                 f"comparison.txt: group {label} line")
    desc = _lines_after(lines, "Group statistics", skip=1)
    tests = _lines_after(lines, "Levene's test and t-tests", skip=1)
    for j, rec in enumerate(records):
        name = rec["name"]
        for i, label in enumerate(("group1", "group2")):
            cells = desc[2 * j + i].split()
            _require(cells[:3] == [name, label[-1], str(rec[label]["n"])],
                     f"comparison.txt: descriptives row of {name}")
            for cell, key in zip(cells[3:], ("mean", "sd", "sem")):
                _text_close(cell, rec[label][key], f"comparison.txt {name} {key}")
        for i, variant in enumerate(("pooled", "welch")):
            cells = tests[2 * j + i].split()
            marked = cells[4] == "*"
            _require(cells[0] == name and cells[3] == variant
                     and marked == (rec["reported_variant"] == variant),
                     f"comparison.txt: test row of {name} {variant}")
            res = rec[variant]
            values = [rec["levene"]["F"], rec["levene"]["p"]] + [
                res[key] for key in ("t", "df", "p_two_tailed", "mean_difference",
                                     "se_difference", "ci_low", "ci_high")]
            for cell, value in zip(cells[1:3] + cells[5 if marked else 4:], values):
                _text_close(cell, value, f"comparison.txt {name} {variant}")
    significant = [rec["name"] for rec in records if rec["significant"]]
    _require(lines[-1].endswith(": " + (", ".join(significant) or "none")),
             "comparison.txt: significant variables line")
