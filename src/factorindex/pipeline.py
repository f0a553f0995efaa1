"""End-to-end orchestration: load -> factor model -> ranking -> comparison.

A run can stop early (``factors``, ``rank``) or compare explicit groups
without a factor model (``compare``). Report files are written only after
every computation has succeeded, so a run that fails in a computation
leaves no outputs; a write that fails part-way leaves the files written
before it. Outputs are byte-deterministic for identical inputs and config.
"""

import os
import platform
from dataclasses import dataclass

import numpy as np

from . import __version__, reports
from .config import PipelineConfig
from .dataset import load_csv, select_variables, standardize
from .errors import ValidationError, with_stage
from .factors import build_factor_model, factor_scores
from .inference import compare_groups
from .ranking import rank_by_factor, with_groups

STAGES = ("factors", "rank", "analyze", "compare")


@dataclass(frozen=True)
class PipelineResult:
    config: PipelineConfig
    model: object
    ranked: object
    comparison: object
    files: tuple


def run_pipeline(config, stage="analyze"):
    """Run the pipeline up to ``stage`` and write the report files.

    ``stage`` is one of ``"factors"`` (stop after the factor model),
    ``"rank"`` (through ranking), ``"analyze"`` (full run including the
    group comparison) or ``"compare"`` (compare the config's two explicit
    groups, skipping extraction and ranking).
    """
    if stage not in STAGES:
        raise ValidationError(f"unknown pipeline stage {stage!r}")
    ranks = stage in ("rank", "analyze")
    groups = (config.compare_group1, config.compare_group2)
    if stage == "compare" and not all(groups):
        raise ValidationError("compare requires comparison.group1 and "
                              "comparison.group2 id lists")
    ds = load_csv(config.input, id_column=config.id_column,
                  missing_policy=config.missing_policy)
    if config.variables is not None:
        ds = select_variables(ds, config.variables)

    if ranks:
        bound = ds.n_cases // 2
        if not 1 <= config.ranking_k <= bound:
            raise ValidationError(
                f"ranking k={config.ranking_k} out of range: need "
                f"1 <= k <= floor(n/2) = {bound} (n = {ds.n_cases})"
            )

    model = ranked = comparison = None
    if stage != "compare":
        z = with_stage("standardize", standardize, ds)
        model = build_factor_model(
            z,
            retention_rule=config.retention_rule,
            retention_k=config.retention_k,
            rotation_method=config.rotation_method,
            kaiser_normalize=config.kaiser_normalization,
            rotation_tol=config.rotation_tol,
            rotation_max_iter=config.rotation_max_iter,
        )

    if ranks:
        if config.ranking_factor > model.retained:
            raise ValidationError(
                f"ranking.factor={config.ranking_factor} exceeds the "
                f"{model.retained} retained factor(s)"
            )
        scores = with_stage("scoring", factor_scores, z, model.score_coefficients)
        ranked = rank_by_factor(scores, config.ranking_factor,
                                config.ranking_direction)
        ranked = with_groups(ranked, config.ranking_k)
        groups = (ranked.group1_ids, ranked.group2_ids)

    if stage in ("analyze", "compare"):
        comparison = with_stage(
            "comparison", compare_groups, ds, *groups,
            variables=config.compare_variables, alpha=config.alpha,
            alpha_levene=config.alpha_levene, ci_level=config.ci_level,
            standardize_scope=config.standardize_scope,
            levene_center=config.levene_center)

    files = _write_outputs(config, model, ranked, comparison)
    return PipelineResult(config=config, model=model, ranked=ranked,
                          comparison=comparison, files=tuple(files))


def _write_outputs(config, model, ranked, comparison):
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    staged = []  # (filename, text)

    if model is not None:
        if "json" in config.formats:
            staged.append(("factor_model.json", reports.record_json(model)))
        if "csv" in config.formats:
            staged.append(("factor_model.csv", reports.loadings_csv(model)))
            staged.append(("factor_model_eigenvalues.csv",
                           reports.eigenvalues_csv(model)))
            staged.append(("factor_model_communalities.csv",
                           reports.communalities_csv(model)))
            staged.append(("factor_model_coefficients.csv",
                           reports.score_coefficients_csv(model)))
        if "text" in config.formats:
            staged.append(("factor_model.txt", reports.factor_model_text(model)))

    if ranked is not None:
        if "json" in config.formats:
            staged.append(("ranking.json", reports.ranking_json(ranked, model)))
        if "csv" in config.formats:
            staged.append(("ranking.csv", reports.ranking_csv(ranked)))
        if "text" in config.formats:
            staged.append(("ranking.txt", reports.ranking_text(ranked, model)))

    if comparison is not None:
        if "json" in config.formats:
            staged.append(("comparison.json", reports.record_json(comparison)))
        if "csv" in config.formats:
            staged.append(("comparison.csv", reports.comparison_csv(comparison)))
        if "text" in config.formats:
            staged.append(("comparison.txt", reports.comparison_text(comparison)))

    staged.append(("run_summary.json", reports.to_json_text(run_summary(config))))

    written = []
    for filename, text in staged:
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        written.append(path)
    return written


def run_summary(config):
    return {
        "config": config.to_dict(),
        "versions": {
            "factorindex": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
