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
import numbers
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


def _table(columns, rows):
    """Aligned text lines: the titles of ``columns``, then each row of cells.

    A column is ``(title, width)``, right-aligned, or left-aligned at a
    negative width. An integer cell prints in full, any other number to 3
    decimals. A row may stop short of the last column.
    """
    def line(cells):
        return "  ".join(cell.rjust(width) if width > 0 else cell.ljust(-width)
                         for cell, (_, width) in zip(cells, columns))

    def text(cell):
        if isinstance(cell, str):
            return cell
        return str(cell) if isinstance(cell, numbers.Integral) else f"{cell:.3f}"

    return [line(title for title, _ in columns)] + [line(map(text, row)) for row in rows]


def _name_column(names):
    """The left-aligned ``variable`` column, as wide as its longest name."""
    return "variable", -max(len("variable"), *map(len, names))


# ---------------------------------------------------------------------------
# factor model


def _by_variable_csv(model, headers, matrix):
    """``matrix`` of the model under ``headers``: one row per variable."""
    rows = [["variable"] + headers]
    rows += ([name] + [_num(v) for v in row]
             for name, row in zip(model.indicator_names, matrix))
    return _csv_text(rows)


def loadings_csv(model):
    """Rotated loadings, variables as rows and factors as columns."""
    return _by_variable_csv(model, _factor_headers(model.retained),
                            model.loadings_rotated)


def _eigenvalue_rows(model):
    """Per component: its number, eigenvalue, share of p and cumulative share."""
    p = len(model.eigenvalues)
    cumulative = 0.0
    for i, value in enumerate(model.eigenvalues, start=1):
        share = float(value) / p
        cumulative += share
        yield i, value, share, cumulative


def eigenvalues_csv(model):
    rows = [["component", "eigenvalue", "proportion", "cumulative"]]
    rows += ([str(i), _num(value), _num(share), _num(cumulative)]
             for i, value, share, cumulative in _eigenvalue_rows(model))
    return _csv_text(rows)


def communalities_csv(model):
    return _by_variable_csv(model, ["communality"], model.communalities[:, None])


def score_coefficients_csv(model):
    return _by_variable_csv(model, _factor_headers(model.retained),
                            model.score_coefficients)


def factor_model_text(model):
    names = model.indicator_names
    lines = [
        "Factor model", "=" * 12,
        f"Variables: {len(names)}",
        f"Retained factors: {model.retained}",
        f"Variance explained by retained factors: "
        f"{100.0 * model.variance_explained:.1f}%",
        f"KMO sampling adequacy: {model.kmo.overall:.3f} ({model.kmo.label})",
    ]
    if not model.rotation_converged:
        lines.append("WARNING: rotation did not converge; loadings are best-iterate")
    lines += ["", "Eigenvalues"]
    lines += _table((("component", 9), ("eigenvalue", 10), ("proportion", 10),
                     ("cumulative", 10)), _eigenvalue_rows(model))
    title = "Rotated loadings" if model.rotation_method != "none" else "Loadings"
    lines += ["", f"{title} (communality in last column)"]
    columns = (_name_column(names),
               *((header, 9) for header in _factor_headers(model.retained)),
               ("communality", 12))
    lines += _table(columns, ((name, *row, h2) for name, row, h2 in zip(
        names, model.loadings_rotated, model.communalities)))
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


# The fields of a t-test, in column order.
_TEST_FIELDS = ("t", "df", "p_two_tailed", "mean_difference", "se_difference",
                "ci_low", "ci_high")


def _comparison_rows(report):
    """``(record, t-test, flags)`` per comparison row: a degenerate variable's
    one row, with no t-test, or a pooled then a Welch row. ``flags`` holds
    whether the row is the reported variant, and whether it is significant at
    0.05 and at 0.10, which only the reported row can be."""
    for rec in report.variables:
        if rec.degenerate:
            yield rec, None, (False, False, False)
            continue
        for res in (rec.pooled, rec.welch):
            reported = res.variant == rec.reported_variant
            yield rec, res, (reported, reported and rec.significant_at_05,
                             reported and rec.significant_at_10)


def comparison_csv(report):
    rows = [[
        "variable", "variant", "reported",
        *(f"group{g}_{field}" for g in (1, 2) for field in ("n", "mean", "sd", "sem")),
        "levene_F", "levene_p", *_TEST_FIELDS,
        "significant_at_05", "significant_at_10", "degenerate", "note",
    ]]
    for rec, res, flags in _comparison_rows(report):
        groups = [cell for group in (rec.group1, rec.group2)
                  for cell in (str(group.n), _num(group.mean), _num(group.sd),
                               _num(group.sem))]
        if res is None:
            # Blank Levene F and p, t-test fields and 0.05 and 0.10 flags.
            blanks = [""] * (2 + len(_TEST_FIELDS) + 2)
            rows.append([rec.name, "", "", *groups, *blanks, "true", rec.note or ""])
            continue
        reported, at_05, at_10 = ("true" if flag else "false" for flag in flags)
        rows.append([rec.name, res.variant, reported, *groups,
                     _num(rec.levene.F), _num(rec.levene.p),
                     *(_num(getattr(res, field)) for field in _TEST_FIELDS),
                     at_05, at_10, "false", ""])
    return _csv_text(rows)


def comparison_text(report):
    records = report.variables
    name = _name_column(rec.name for rec in records)
    lines = [
        "Group comparison", "=" * 16,
        f"Group 1 ({len(report.group1_ids)}): " + ", ".join(report.group1_ids),
        f"Group 2 ({len(report.group2_ids)}): " + ", ".join(report.group2_ids),
        f"alpha = {report.alpha:g}; Levene alpha = {report.alpha_levene:g}; "
        f"CI level = {report.ci_level:g}; "
        f"standardization scope = {report.standardize_scope}; "
        f"Levene center = {report.levene_center}",
        "", "Group statistics (raw units)",
    ]
    lines += _table(
        (name, ("group", 5), ("N", 3), ("mean", 12), ("sd", 12), ("sem", 12)),
        ((rec.name, label, group.n, group.mean, group.sd, group.sem)
         for rec in records
         for label, group in (("1", rec.group1), ("2", rec.group2))))
    lines += ["", "Levene's test and t-tests (standardized values)"]
    lines += _table(
        (name, ("F", 8), ("Sig.", 6), ("variant", -7), ("rep", 3), ("t", 8),
         ("df", 7), ("Sig.(2t)", 8), ("mean diff", 10), ("se diff", 8),
         ("ci low", 8), ("ci high", 8)),
        # A degenerate row is its name and its note, run on past the F column.
        ((rec.name, f"degenerate: {rec.note}") if res is None else
         (rec.name, rec.levene.F, rec.levene.p, res.variant,
          "*" if flags[0] else " ", *(getattr(res, field) for field in _TEST_FIELDS))
         for rec, res, flags in _comparison_rows(report)))
    significant = [rec.name for rec in records if rec.significant]
    lines += ["", "rep * = variant selected by Levene's test",
              f"Significant at alpha {report.alpha:g}: "
              + (", ".join(significant) if significant else "none")]
    return "\n".join(lines) + "\n"
