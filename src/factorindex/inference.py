"""Two-group statistics: descriptives, Levene's test, pooled and Welch t-tests.

The group comparison keeps the reporting convention of classic statistical
packages: descriptive statistics in the variable's original units, test
statistics on standardized values, both t-test variants computed with the
reported one chosen by Levene's test.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dataset as ds_mod
from .errors import DegenerateDataError, ValidationError
from .numkernel import f_tail_p, t_quantile, t_two_tailed_p

_ZERO_SS = 1e-300


@dataclass(frozen=True)
class GroupDescriptives:
    n: int
    mean: float
    sd: float
    sem: float


@dataclass(frozen=True)
class LeveneResult:
    F: float
    df1: int
    df2: int
    p: float
    center: str


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p_two_tailed: float
    mean_difference: float
    se_difference: float
    ci_low: float
    ci_high: float
    level: float
    variant: str
    degenerate: bool = False


@dataclass(frozen=True)
class VariableComparison:
    """All statistics for one variable in a two-group comparison."""

    name: str
    group1: GroupDescriptives
    group2: GroupDescriptives
    levene: LeveneResult = None
    pooled: TTestResult = None
    welch: TTestResult = None
    reported_variant: str = None
    significant: bool = None
    significant_at_05: bool = None
    significant_at_10: bool = None
    degenerate: bool = False
    note: str = None


@dataclass(frozen=True)
class GroupComparisonReport:
    variables: tuple
    group1_ids: tuple
    group2_ids: tuple
    alpha: float
    alpha_levene: float
    ci_level: float
    standardize_scope: str
    levene_center: str


def _as_sample(values, minimum=2):
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < minimum:
        raise ValidationError(f"need at least {minimum} observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("sample contains non-finite values")
    return arr


def group_descriptives(values):
    """n, mean, sample standard deviation, and standard error of the mean."""
    arr = _as_sample(values)
    n = arr.size
    sd = float(arr.std(ddof=1))
    return GroupDescriptives(n=n, mean=float(arr.mean()), sd=sd, sem=sd / math.sqrt(n))


def _check_center(center):
    if center not in ("mean", "median"):
        raise ValidationError(f"center must be 'mean' or 'median', got {center!r}")


def _check_probability(label, value):
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{label} must be in (0, 1), got {value!r}")


def valid_ci_level(level):
    """Whether ``level`` can be a confidence level: it lies in (0, 1), and the
    interval's t quantile, taken at (1 + level) / 2, is below 1. That
    probability rounds to 1 at the float just below 1."""
    return 0.0 < level < 1.0 and (1.0 + level) / 2.0 < 1.0


def _check_level(level):
    _check_probability("confidence level", level)
    if not valid_ci_level(level):
        raise ValidationError(
            f"confidence level must have (1 + level) / 2 below 1, got {level!r}")


def levene_test(g1, g2, center="mean"):
    """Levene's equality-of-variances test for two groups.

    One-way ANOVA on absolute deviations from each group's center
    (mean for the classic statistic, median for Brown-Forsythe).
    """
    _check_center(center)
    a = _as_sample(g1)
    b = _as_sample(g2)
    middle = np.mean if center == "mean" else np.median
    da = np.abs(a - middle(a))
    db = np.abs(b - middle(b))
    n1, n2 = da.size, db.size
    grand = (da.sum() + db.sum()) / (n1 + n2)
    ssb = n1 * (da.mean() - grand) ** 2 + n2 * (db.mean() - grand) ** 2
    ssw = float(np.sum((da - da.mean()) ** 2) + np.sum((db - db.mean()) ** 2))
    df1 = 1
    df2 = n1 + n2 - 2
    if ssw <= _ZERO_SS:
        raise DegenerateDataError(
            "Levene statistic undefined: no within-group spread in the deviations"
        )
    f = float(ssb / df1) / (ssw / df2)
    return LeveneResult(F=f, df1=df1, df2=df2, p=f_tail_p(f, df1, df2), center=center)


def _finish_t(delta, se, df, level, variant):
    if se == 0.0:
        if delta == 0.0:
            # Equal means, zero spread: report a null result rather than
            # aborting a multi-variable comparison.
            return TTestResult(
                t=0.0, df=float(df), p_two_tailed=1.0, mean_difference=0.0,
                se_difference=0.0, ci_low=0.0, ci_high=0.0,
                level=level, variant=variant, degenerate=True,
            )
        raise DegenerateDataError(
            f"{variant} t statistic undefined: zero variance in both groups "
            f"with unequal means (difference {delta:g})"
        )
    t = delta / se
    margin = t_quantile((1.0 + level) / 2.0, df) * se
    return TTestResult(
        t=float(t), df=float(df), p_two_tailed=float(t_two_tailed_p(t, df)),
        mean_difference=float(delta), se_difference=float(se),
        ci_low=float(delta - margin), ci_high=float(delta + margin),
        level=level, variant=variant,
    )


def t_tests(g1, g2, level=0.95):
    """Two-sample t-tests with confidence intervals: ``(pooled, welch)``.

    Pooled assumes equal variances; Welch does not and takes
    Satterthwaite's degrees of freedom. When both groups are constant,
    both variants report ``n1 + n2 - 2`` degrees of freedom.
    """
    _check_level(level)
    a = _as_sample(g1)
    b = _as_sample(g2)
    n1, n2 = a.size, b.size
    delta = float(a.mean() - b.mean())
    var1, var2 = a.var(ddof=1), b.var(ddof=1)
    df = n1 + n2 - 2
    se = math.sqrt((((n1 - 1) * var1 + (n2 - 1) * var2) / df) * (1.0 / n1 + 1.0 / n2))
    va, vb = var1 / n1, var2 / n2
    se2 = va + vb
    if se2:  # Satterthwaite's ratio in shares of se2: no square under- or overflows
        sa, sb = va / se2, vb / se2
        welch_df = 1.0 / (sa * sa / (n1 - 1) + sb * sb / (n2 - 1))
    else:
        welch_df = df
    return (_finish_t(delta, se, df, level, "pooled"),
            _finish_t(delta, math.sqrt(se2), welch_df, level, "welch"))


def compare_groups(ds, group1_ids, group2_ids, variables=None, alpha=0.05,
                   alpha_levene=0.05, ci_level=0.95, standardize_scope="selected",
                   levene_center="mean"):
    """Per-variable two-group comparison over an indicator dataset.

    ``variables`` names the compared columns of ``ds``, in report order;
    None compares every column, without a copy. One column is enough.
    Descriptives are computed on raw values. Levene and both t-tests run on
    z-scores taken over ``standardize_scope``: ``"selected"`` standardizes
    over just the compared cases, ``"all"`` over the whole dataset. The
    reported variant is pooled when Levene's p exceeds ``alpha_levene``,
    Welch otherwise. A variable that ``column_moments`` finds constant within
    the scope is marked degenerate and skipped, and the report proceeds; one
    whose mean or sd within the scope overflows stops it, by name. Each
    group's rows are read in id-list order, whatever the row order of ``ds``.
    """
    if standardize_scope not in ("selected", "all"):
        raise ValidationError(
            f"standardize_scope must be 'selected' or 'all', got {standardize_scope!r}"
        )
    _check_probability("alpha", alpha)
    _check_probability("alpha_levene", alpha_levene)
    _check_level(ci_level)
    _check_center(levene_center)
    group1_ids = tuple(group1_ids)
    group2_ids = tuple(group2_ids)
    overlap = set(group1_ids) & set(group2_ids)
    if overlap:
        raise ValidationError(f"groups overlap: {sorted(overlap)}")
    if len(group1_ids) < 2 or len(group2_ids) < 2:
        raise ValidationError("each group needs at least 2 cases")
    # The row of each group id, found in one pass over the table's ids.
    row_of = dict.fromkeys(group1_ids + group2_ids)
    for i, cid in enumerate(ds.case_ids):
        if cid in row_of:
            row_of[cid] = i
    unknown = {cid for cid, row in row_of.items() if row is None}
    if unknown:
        raise ValidationError(f"unknown case id(s): {sorted(unknown)}")
    for label, group in (("1", group1_ids), ("2", group2_ids)):
        repeated = ds_mod.first_duplicate(group)
        if repeated is not None:
            raise ValidationError(f"group {label} repeats case id {repeated!r}")

    sub = ds if variables is None else ds_mod.select_variables(ds, variables)
    # Group 1's rows then group 2's, in id-list order; group 1 is block[:n1].
    n1 = len(group1_ids)
    block = sub.values[[row_of[cid] for cid in group1_ids + group2_ids]]
    del row_of  # not held through the scope statistics

    scope = block if standardize_scope == "selected" else sub.values
    scope_means, scope_sds, constant = ds_mod.column_moments(scope, sub.indicator_names)

    records = []
    for j, name in enumerate(sub.indicator_names):
        column = block[:, j]
        desc1 = group_descriptives(column[:n1])
        desc2 = group_descriptives(column[n1:])
        try:
            if constant[j]:
                raise DegenerateDataError("constant within the standardization scope")
            z = (column - scope_means[j]) / scope_sds[j]
            levene = levene_test(z[:n1], z[n1:], center=levene_center)
            pooled, welch = t_tests(z[:n1], z[n1:], level=ci_level)
        except DegenerateDataError as exc:
            records.append(VariableComparison(name, desc1, desc2, degenerate=True,
                                              note=str(exc)))
            continue
        variant = "pooled" if levene.p > alpha_levene else "welch"
        reported = pooled if variant == "pooled" else welch
        records.append(VariableComparison(
            name=name, group1=desc1, group2=desc2, levene=levene,
            pooled=pooled, welch=welch, reported_variant=variant,
            significant=bool(reported.p_two_tailed < alpha),
            significant_at_05=bool(reported.p_two_tailed < 0.05),
            significant_at_10=bool(reported.p_two_tailed < 0.10),
        ))

    return GroupComparisonReport(
        variables=tuple(records),
        group1_ids=group1_ids,
        group2_ids=group2_ids,
        alpha=alpha,
        alpha_levene=alpha_levene,
        ci_level=ci_level,
        standardize_scope=standardize_scope,
        levene_center=levene_center,
    )
