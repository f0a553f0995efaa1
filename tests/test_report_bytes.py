"""The exact bytes of every factor-model and comparison renderer.

The records are built by hand from floats that no BLAS or libm can move,
so each expected text is a literal: a change to a renderer that moves a
byte fails here.
"""

import numpy as np
import pytest

from factorindex import reports
from factorindex.factors import FactorModel, KmoResult
from factorindex.inference import (GroupComparisonReport, GroupDescriptives,
                                   LeveneResult, TTestResult, VariableComparison)

LONG = "households_below_poverty_line"


def model(rotation_method="varimax", converged=False):
    return FactorModel(
        indicator_names=(LONG, "x", "y"),
        eigenvalues=np.array([1.75, 0.875, 0.375]),
        retained=2,
        loadings_unrotated=np.zeros((3, 2)),
        loadings_rotated=np.array([[0.875, -0.125], [-0.5, 0.75], [0.25, 0.5]]),
        rotation=np.eye(2),
        communalities=np.array([0.78125, 0.8125, 0.3125]),
        variance_explained=0.875,
        kmo=KmoResult(0.625, np.array([0.5, 0.625, 0.75]), "mediocre"),
        score_coefficients=np.array([[0.5, -0.25], [-0.375, 0.625],
                                     [0.125, 0.4375]]),
        rotation_method=rotation_method,
        rotation_converged=converged,
    )


def one_factor_model():
    return FactorModel(
        indicator_names=("a", "b"),
        eigenvalues=np.array([1.5, 0.5]),
        retained=1,
        loadings_unrotated=np.array([[0.75], [-0.75]]),
        loadings_rotated=np.array([[0.75], [-0.75]]),
        rotation=np.eye(1),
        communalities=np.array([0.5625, 0.5625]),
        variance_explained=0.75,
        kmo=KmoResult(0.5, np.array([0.5, 0.5]), "miserable"),
        score_coefficients=np.array([[0.5], [-0.5]]),
        rotation_method="none",
        rotation_converged=True,
    )


def ttest(variant, t, df, p, diff, se, low, high):
    return TTestResult(t=t, df=df, p_two_tailed=p, mean_difference=diff,
                       se_difference=se, ci_low=low, ci_high=high, level=0.95,
                       variant=variant)


def compared(name, levene_p, variant, p, group1, group2):
    pooled = ttest("pooled", -2.5, 18.0, p, -1.25, 0.5, -2.3125, -0.1875)
    welch = ttest("welch", -2.5, 15.75, p + 0.0078125, -1.25, 0.5, -2.375, -0.125)
    return VariableComparison(
        name=name, group1=group1, group2=group2,
        levene=LeveneResult(F=1.5, df1=1, df2=18, p=levene_p, center="mean"),
        pooled=pooled, welch=welch, reported_variant=variant,
        significant=p < 0.05, significant_at_05=p < 0.05,
        significant_at_10=p < 0.10)


def comparison():
    g1 = GroupDescriptives(n=10, mean=-12.5, sd=2.25, sem=0.71875)
    g2 = GroupDescriptives(n=10, mean=1234.0625, sd=0.5, sem=0.15625)
    return GroupComparisonReport(
        variables=(
            compared(LONG, 0.25, "pooled", 0.015625, g1, g2),
            compared("x", 0.03125, "welch", 0.0625, g2, g1),
            VariableComparison(name="flat", group1=g1, group2=g2, degenerate=True,
                               note="constant within the standardization scope"),
        ),
        group1_ids=("c1", "c2"), group2_ids=("c9", "c10"),
        alpha=0.05, alpha_levene=0.05, ci_level=0.95,
        standardize_scope="selected", levene_center="mean")


def nothing_significant():
    g = GroupDescriptives(n=2, mean=0.5, sd=0.25, sem=0.125)
    return GroupComparisonReport(
        variables=(compared("v", 0.5, "pooled", 0.5, g, g),),
        group1_ids=("a", "b"), group2_ids=("c", "d"),
        alpha=0.01, alpha_levene=0.1, ci_level=0.9,
        standardize_scope="all", levene_center="median")


EXPECTED = {
    ("loadings_csv", "model"): """\
variable,factor_1,factor_2
households_below_poverty_line,0.875,-0.125
x,-0.5,0.75
y,0.25,0.5
""",
    ("loadings_csv", "one_factor"): """\
variable,factor_1
a,0.75
b,-0.75
""",
    ("eigenvalues_csv", "model"): """\
component,eigenvalue,proportion,cumulative
1,1.75,0.5833333333333334,0.5833333333333334
2,0.875,0.2916666666666667,0.875
3,0.375,0.125,1.0
""",
    ("eigenvalues_csv", "one_factor"): """\
component,eigenvalue,proportion,cumulative
1,1.5,0.75,0.75
2,0.5,0.25,1.0
""",
    ("communalities_csv", "model"): """\
variable,communality
households_below_poverty_line,0.78125
x,0.8125
y,0.3125
""",
    ("communalities_csv", "one_factor"): """\
variable,communality
a,0.5625
b,0.5625
""",
    ("score_coefficients_csv", "model"): """\
variable,factor_1,factor_2
households_below_poverty_line,0.5,-0.25
x,-0.375,0.625
y,0.125,0.4375
""",
    ("score_coefficients_csv", "one_factor"): """\
variable,factor_1
a,0.5
b,-0.5
""",
    ("factor_model_text", "model"): """\
Factor model
============
Variables: 3
Retained factors: 2
Variance explained by retained factors: 87.5%
KMO sampling adequacy: 0.625 (mediocre)
WARNING: rotation did not converge; loadings are best-iterate

Eigenvalues
component  eigenvalue  proportion  cumulative
        1       1.750       0.583       0.583
        2       0.875       0.292       0.875
        3       0.375       0.125       1.000

Rotated loadings (communality in last column)
variable                        factor_1   factor_2   communality
households_below_poverty_line      0.875     -0.125         0.781
x                                 -0.500      0.750         0.812
y                                  0.250      0.500         0.312
""",
    ("factor_model_text", "one_factor"): """\
Factor model
============
Variables: 2
Retained factors: 1
Variance explained by retained factors: 75.0%
KMO sampling adequacy: 0.500 (miserable)

Eigenvalues
component  eigenvalue  proportion  cumulative
        1       1.500       0.750       0.750
        2       0.500       0.250       1.000

Loadings (communality in last column)
variable   factor_1   communality
a             0.750         0.562
b            -0.750         0.562
""",
    ("comparison_csv", "comparison"): """\
variable,variant,reported,group1_n,group1_mean,group1_sd,group1_sem,group2_n,group2_mean,group2_sd,group2_sem,levene_F,levene_p,t,df,p_two_tailed,mean_difference,se_difference,ci_low,ci_high,significant_at_05,significant_at_10,degenerate,note
households_below_poverty_line,pooled,true,10,-12.5,2.25,0.71875,10,1234.0625,0.5,0.15625,1.5,0.25,-2.5,18.0,0.015625,-1.25,0.5,-2.3125,-0.1875,true,true,false,
households_below_poverty_line,welch,false,10,-12.5,2.25,0.71875,10,1234.0625,0.5,0.15625,1.5,0.25,-2.5,15.75,0.0234375,-1.25,0.5,-2.375,-0.125,false,false,false,
x,pooled,false,10,1234.0625,0.5,0.15625,10,-12.5,2.25,0.71875,1.5,0.03125,-2.5,18.0,0.0625,-1.25,0.5,-2.3125,-0.1875,false,false,false,
x,welch,true,10,1234.0625,0.5,0.15625,10,-12.5,2.25,0.71875,1.5,0.03125,-2.5,15.75,0.0703125,-1.25,0.5,-2.375,-0.125,false,true,false,
flat,,,10,-12.5,2.25,0.71875,10,1234.0625,0.5,0.15625,,,,,,,,,,,,true,constant within the standardization scope
""",
    ("comparison_csv", "none"): """\
variable,variant,reported,group1_n,group1_mean,group1_sd,group1_sem,group2_n,group2_mean,group2_sd,group2_sem,levene_F,levene_p,t,df,p_two_tailed,mean_difference,se_difference,ci_low,ci_high,significant_at_05,significant_at_10,degenerate,note
v,pooled,true,2,0.5,0.25,0.125,2,0.5,0.25,0.125,1.5,0.5,-2.5,18.0,0.5,-1.25,0.5,-2.3125,-0.1875,false,false,false,
v,welch,false,2,0.5,0.25,0.125,2,0.5,0.25,0.125,1.5,0.5,-2.5,15.75,0.5078125,-1.25,0.5,-2.375,-0.125,false,false,false,
""",
    ("comparison_text", "comparison"): """\
Group comparison
================
Group 1 (2): c1, c2
Group 2 (2): c9, c10
alpha = 0.05; Levene alpha = 0.05; CI level = 0.95; standardization scope = selected; Levene center = mean

Group statistics (raw units)
variable                       group    N          mean            sd           sem
households_below_poverty_line      1   10       -12.500         2.250         0.719
households_below_poverty_line      2   10      1234.062         0.500         0.156
x                                  1   10      1234.062         0.500         0.156
x                                  2   10       -12.500         2.250         0.719
flat                               1   10       -12.500         2.250         0.719
flat                               2   10      1234.062         0.500         0.156

Levene's test and t-tests (standardized values)
variable                              F    Sig.  variant  rep         t       df  Sig.(2t)   mean diff   se diff    ci low   ci high
households_below_poverty_line     1.500   0.250  pooled     *    -2.500   18.000     0.016      -1.250     0.500    -2.312    -0.188
households_below_poverty_line     1.500   0.250  welch           -2.500   15.750     0.023      -1.250     0.500    -2.375    -0.125
x                                 1.500   0.031  pooled          -2.500   18.000     0.062      -1.250     0.500    -2.312    -0.188
x                                 1.500   0.031  welch      *    -2.500   15.750     0.070      -1.250     0.500    -2.375    -0.125
flat                           degenerate: constant within the standardization scope

rep * = variant selected by Levene's test
Significant at alpha 0.05: households_below_poverty_line
""",
    ("comparison_text", "none"): """\
Group comparison
================
Group 1 (2): a, b
Group 2 (2): c, d
alpha = 0.01; Levene alpha = 0.1; CI level = 0.9; standardization scope = all; Levene center = median

Group statistics (raw units)
variable  group    N          mean            sd           sem
v             1    2         0.500         0.250         0.125
v             2    2         0.500         0.250         0.125

Levene's test and t-tests (standardized values)
variable         F    Sig.  variant  rep         t       df  Sig.(2t)   mean diff   se diff    ci low   ci high
v            1.500   0.500  pooled     *    -2.500   18.000     0.500      -1.250     0.500    -2.312    -0.188
v            1.500   0.500  welch           -2.500   15.750     0.508      -1.250     0.500    -2.375    -0.125

rep * = variant selected by Levene's test
Significant at alpha 0.01: none
""",
}


RECORDS = {"model": model, "one_factor": one_factor_model,
           "comparison": comparison, "none": nothing_significant}


@pytest.mark.parametrize("renderer, record", sorted(EXPECTED),
                         ids=[":".join(case) for case in sorted(EXPECTED)])
def test_renderer_bytes(renderer, record):
    assert getattr(reports, renderer)(RECORDS[record]()) == EXPECTED[renderer, record]
