"""Serialization of models, rankings, and comparisons.

Three formats per artifact: JSON (full precision, machine-readable), CSV
(full precision, chart-ready), and aligned text tables with numbers to
3 decimals for reading. The JSON of a factor model or a group comparison
is its result record, field for field (:func:`record_json`). The three
ranking files are written to open streams in one pass over the ranking
(:func:`write_ranking`); every other artifact is returned as a string. All
emitters are deterministic: same object in, same bytes out.
"""

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np


def _num(x):
    """Full-precision, locale-free decimal text for CSV cells."""
    return repr(float(x))


def _clean(x):
    """Make a value JSON-safe; non-finite floats become null."""
    if x is None or isinstance(x, (str, bool, int)):
        return x
    x = float(x)
    return x if math.isfinite(x) else None


def to_json_text(payload):
    """Canonical JSON encoding used for every .json artifact."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _encode(value):
    """JSON form of a result record: a dataclass becomes a dict of its
    fields, a tuple, list or array a list, and every leaf goes through
    :func:`_clean`."""
    # The class's field table, read directly: dataclasses.is_dataclass() and
    # fields() on every value took twice as long on a 120-variable comparison.
    fields = getattr(type(value), "__dataclass_fields__", None)
    if fields is not None:
        return {name: _encode(getattr(value, name)) for name in fields}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return _clean(value)


def record_json(record):
    """The .json artifact of a result record (a ``FactorModel`` or a
    ``GroupComparisonReport``): the record's fields are its keys."""
    return to_json_text(_encode(record))


def _csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _factor_headers(k):
    return [f"factor_{j}" for j in range(1, k + 1)]


# ---------------------------------------------------------------------------
# factor model


def loadings_csv(model):
    """Rotated loadings, variables as rows and factors as columns."""
    rows = [["variable"] + _factor_headers(model.retained)]
    for name, row in zip(model.indicator_names, model.loadings_rotated):
        rows.append([name] + [_num(v) for v in row])
    return _csv_text(rows)


def eigenvalues_csv(model):
    p = len(model.eigenvalues)
    rows = [["component", "eigenvalue", "proportion", "cumulative"]]
    cumulative = 0.0
    for i, value in enumerate(model.eigenvalues, start=1):
        share = float(value) / p
        cumulative += share
        rows.append([str(i), _num(value), _num(share), _num(cumulative)])
    return _csv_text(rows)


def communalities_csv(model):
    rows = [["variable", "communality"]]
    for name, value in zip(model.indicator_names, model.communalities):
        rows.append([name, _num(value)])
    return _csv_text(rows)


def score_coefficients_csv(model):
    rows = [["variable"] + _factor_headers(model.retained)]
    for name, row in zip(model.indicator_names, model.score_coefficients):
        rows.append([name] + [_num(v) for v in row])
    return _csv_text(rows)


def factor_model_text(model):
    lines = []
    p = len(model.indicator_names)
    lines.append("Factor model")
    lines.append("=" * 12)
    lines.append(f"Variables: {p}")
    lines.append(f"Retained factors: {model.retained}")
    lines.append(
        f"Variance explained by retained factors: "
        f"{100.0 * model.variance_explained:.1f}%"
    )
    lines.append(f"KMO sampling adequacy: {model.kmo.overall:.3f} ({model.kmo.label})")
    if not model.rotation_converged:
        lines.append("WARNING: rotation did not converge; loadings are best-iterate")
    lines.append("")
    lines.append("Eigenvalues")
    lines.append("component  eigenvalue  proportion  cumulative")
    cumulative = 0.0
    for i, value in enumerate(model.eigenvalues, start=1):
        share = float(value) / p
        cumulative += share
        lines.append(f"{i:>9d}  {value:>10.3f}  {share:>10.3f}  {cumulative:>10.3f}")
    lines.append("")
    title = "Rotated loadings" if model.rotation_method != "none" else "Loadings"
    lines.append(f"{title} (communality in last column)")
    name_width = max(len("variable"), max(len(n) for n in model.indicator_names))
    header = ["variable".ljust(name_width)]
    header += [h.rjust(9) for h in _factor_headers(model.retained)]
    header.append("communality".rjust(12))
    lines.append("  ".join(header))
    for name, row, h2 in zip(model.indicator_names, model.loadings_rotated,
                             model.communalities):
        cells = [name.ljust(name_width)]
        cells += [f"{v:>9.3f}" for v in row]
        cells.append(f"{h2:>12.3f}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ranking


def top_loading_variables(model, factor, count=3):
    """The ``count`` variables loading strongest (by magnitude) on a factor."""
    column = model.loadings_rotated[:, factor - 1]
    order = sorted(range(len(column)), key=lambda i: (-abs(float(column[i])), i))
    return [(model.indicator_names[i], float(column[i])) for i in order[:count]]


# to_json_text puts each top-level key on its own line; a JSON string never
# holds a raw newline, so this line occurs once.
_EMPTY_ENTRIES = '\n  "entries": [],\n'
_ENTRY_JSON = '    {\n      "case_id": %s,\n      "rank": %d,\n      "score": %s\n    }'
# Ranks formatted and written per block: the memory a write holds is this
# many ranks' text, whatever the number of cases.
_BLOCK_RANKS = 4096


def _ranking_text_head(ranked, model):
    strongest = ", ".join(
        f"{name} ({value:.3f})"
        for name, value in top_loading_variables(model, ranked.factor)
    )
    width = max(len("Communities"), max(map(len, ranked.case_ids)))
    return (f"Ranking on factor {ranked.factor} ({ranked.direction})\n"
            f"Largest loadings on this factor: {strongest}\n\n"
            f"{'Rank':>4} | Communities\n" + "-" * (7 + width) + "\n")


def _ranking_text_tail(ranked):
    if not ranked.group_size:
        return ""
    n, k = ranked.n_cases, ranked.group_size
    return (f"\nGroup 1 (ranks 1-{k}): " + ", ".join(ranked.group1_ids)
            + f"\nGroup 2 (ranks {n - k + 1}-{n}): " + ", ".join(ranked.group2_ids)
            + "\n")


def write_ranking(ranked, model, streams):
    """Write ranking.json, ranking.csv and ranking.txt in one pass.

    ``streams`` maps each wanted format (``"json"``, ``"csv"``, ``"text"``)
    to an open text stream. The ranks go out in blocks of ``_BLOCK_RANKS``;
    each block's scores are formatted once, with ``float.__repr__``, and
    that text serves JSON and CSV alike (a non-finite score is ``null`` in
    JSON). The bytes are those of ``to_json_text`` over the whole document
    with one ``{"rank", "case_id", "score"}`` dict per entry, of
    ``csv.writer`` over ``(rank, case_id, repr(score))`` rows under a
    ``rank,case_id,score`` header, and of the aligned text table.
    """
    json_out = streams.get("json")
    csv_out = streams.get("csv")
    text_out = streams.get("text")
    n = ranked.n_cases
    if json_out is not None:
        head, _, json_tail = to_json_text({
            "factor": int(ranked.factor),
            "direction": ranked.direction,
            "entries": [],
            "group_size": None if ranked.group_size is None else int(ranked.group_size),
            "group1_ids": list(ranked.group1_ids),
            "group2_ids": list(ranked.group2_ids),
            "top_loadings": [
                {"variable": name, "loading": _clean(value)}
                for name, value in top_loading_variables(model, ranked.factor)],
        }).partition(_EMPTY_ENTRIES)
        json_out.write(head + '\n  "entries": [')
    if csv_out is not None:
        writer = csv.writer(csv_out, lineterminator="\n")
        writer.writerow(("rank", "case_id", "score"))
    if text_out is not None:
        text_out.write(_ranking_text_head(ranked, model))
    for start in range(0, n, _BLOCK_RANKS):
        stop = min(start + _BLOCK_RANKS, n)
        ranks = range(start + 1, stop + 1)
        ids = ranked.case_ids[start:stop]
        if json_out is not None or csv_out is not None:
            block = ranked.scores[start:stop]
            floats = block.tolist()
            scores = list(map(float.__repr__, floats))
        if json_out is not None:
            values = scores if np.isfinite(block).all() else [
                s if math.isfinite(x) else "null" for s, x in zip(scores, floats)]
            json_out.write(("\n" if start == 0 else ",\n") + ",\n".join(map(
                _ENTRY_JSON.__mod__,
                zip(map(encode_basestring_ascii, ids), ranks, values))))
        if csv_out is not None:
            writer.writerows(zip(ranks, ids, scores))
        if text_out is not None:
            text_out.write("".join(map("{:>4} | {}\n".format, ranks, ids)))
    if json_out is not None:
        json_out.write(("\n  ]" if n else "]") + ",\n" + json_tail)
    if text_out is not None:
        text_out.write(_ranking_text_tail(ranked))


# ---------------------------------------------------------------------------
# group comparison


def comparison_csv(report):
    rows = [[
        "variable", "variant", "reported",
        "group1_n", "group1_mean", "group1_sd", "group1_sem",
        "group2_n", "group2_mean", "group2_sd", "group2_sem",
        "levene_F", "levene_p",
        "t", "df", "p_two_tailed", "mean_difference", "se_difference",
        "ci_low", "ci_high", "significant_at_05", "significant_at_10",
        "degenerate", "note",
    ]]
    for rec in report.variables:
        base = [
            str(rec.group1.n), _num(rec.group1.mean), _num(rec.group1.sd),
            _num(rec.group1.sem),
            str(rec.group2.n), _num(rec.group2.mean), _num(rec.group2.sd),
            _num(rec.group2.sem),
        ]
        if rec.degenerate:
            rows.append([rec.name, "", ""] + base + [""] * 10
                        + ["true", rec.note or ""])
            continue
        levene = [_num(rec.levene.F), _num(rec.levene.p)]
        for res in (rec.pooled, rec.welch):
            rows.append(
                [rec.name, res.variant,
                 "true" if rec.reported_variant == res.variant else "false"]
                + base + levene
                + [_num(res.t), _num(res.df), _num(res.p_two_tailed),
                   _num(res.mean_difference), _num(res.se_difference),
                   _num(res.ci_low), _num(res.ci_high),
                   "true" if rec.significant_at_05 and rec.reported_variant == res.variant else "false",
                   "true" if rec.significant_at_10 and rec.reported_variant == res.variant else "false",
                   "false", ""]
            )
    return _csv_text(rows)


def comparison_text(report):
    lines = []
    lines.append("Group comparison")
    lines.append("=" * 16)
    lines.append(f"Group 1 ({len(report.group1_ids)}): " + ", ".join(report.group1_ids))
    lines.append(f"Group 2 ({len(report.group2_ids)}): " + ", ".join(report.group2_ids))
    lines.append(
        f"alpha = {report.alpha:g}; Levene alpha = {report.alpha_levene:g}; "
        f"CI level = {report.ci_level:g}; "
        f"standardization scope = {report.standardize_scope}; "
        f"Levene center = {report.levene_center}"
    )
    lines.append("")

    name_width = max(len("variable"), max(len(r.name) for r in report.variables))
    lines.append("Group statistics (raw units)")
    lines.append(
        f"{'variable'.ljust(name_width)}  group  {'N':>3}  {'mean':>12}  "
        f"{'sd':>12}  {'sem':>12}"
    )
    for rec in report.variables:
        for label, desc in (("1", rec.group1), ("2", rec.group2)):
            lines.append(
                f"{rec.name.ljust(name_width)}  {label:>5}  {desc.n:>3d}  "
                f"{desc.mean:>12.3f}  {desc.sd:>12.3f}  {desc.sem:>12.3f}"
            )
    lines.append("")

    lines.append("Levene's test and t-tests (standardized values)")
    lines.append(
        f"{'variable'.ljust(name_width)}  {'F':>8}  {'Sig.':>6}  variant  rep  "
        f"{'t':>8}  {'df':>7}  {'Sig.(2t)':>8}  {'mean diff':>10}  "
        f"{'se diff':>8}  {'ci low':>8}  {'ci high':>8}"
    )
    for rec in report.variables:
        if rec.degenerate:
            lines.append(
                f"{rec.name.ljust(name_width)}  degenerate: {rec.note}"
            )
            continue
        for res in (rec.pooled, rec.welch):
            marker = "*" if rec.reported_variant == res.variant else " "
            lines.append(
                f"{rec.name.ljust(name_width)}  {rec.levene.F:>8.3f}  "
                f"{rec.levene.p:>6.3f}  {res.variant:<7}  {marker:>3}  "
                f"{res.t:>8.3f}  {res.df:>7.3f}  {res.p_two_tailed:>8.3f}  "
                f"{res.mean_difference:>10.3f}  {res.se_difference:>8.3f}  "
                f"{res.ci_low:>8.3f}  {res.ci_high:>8.3f}"
            )
    lines.append("")
    lines.append("rep * = variant selected by Levene's test")
    significant = [r.name for r in report.variables if r.significant]
    lines.append(
        f"Significant at alpha {report.alpha:g}: "
        + (", ".join(significant) if significant else "none")
    )
    return "\n".join(lines) + "\n"
