"""End-to-end orchestration: load -> factor model -> ranking -> comparison.

A run can stop early (``factors``, ``rank``) or compare explicit groups
without a factor model (``compare``). The loaded table is the run's one
dataset: ``variables`` narrows only the factor model's input, and the
comparison takes the ``comparison.variables`` columns from the whole table,
or the factor model's columns when that key is unset.

Report files are written only after every computation has succeeded, and
then all of them or none: each is written whole into a temporary directory
inside ``out_dir``, and only when every one is complete, and no target path
is a directory, is each moved into place with ``os.replace``. A run that
fails leaves the files already in ``out_dir`` as they were, and removes
``out_dir`` if the run created it and it is still empty. Outputs are
byte-deterministic for identical inputs and config.
"""

import errno
import os
import platform
import shutil
import tempfile
from contextlib import ExitStack, suppress
from dataclasses import dataclass

import numpy as np

from . import __version__, reports
from .config import PipelineConfig
from .dataset import load_csv, select_variables, standardize
from .errors import ValidationError, with_stage
from .factors import build_factor_model, factor_scores
from .inference import compare_groups
from .ranking import check_group_size, rank_by_factor, with_groups

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
    model_ds = (ds if config.variables is None
                else select_variables(ds, config.variables))
    # Unset, the comparison takes the factor model's table itself, not a
    # copy, and the whole table is freed.
    compared = model_ds if config.compare_variables is None else ds
    del ds

    if ranks:
        # Before the factor model, so a singular R cannot mask a bad k.
        check_group_size(config.ranking_k, model_ds.n_cases)

    model = ranked = comparison = None
    if stage != "compare":
        z = with_stage("standardize", standardize, model_ds)
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
        scores = with_stage("scoring", factor_scores, z, model.score_coefficients)
        ranked = rank_by_factor(scores, config.ranking_factor,
                                config.ranking_direction)
        ranked = with_groups(ranked, config.ranking_k)
        groups = (ranked.group1_ids, ranked.group2_ids)

    if stage in ("analyze", "compare"):
        comparison = with_stage(
            "comparison", compare_groups, compared, *groups,
            variables=config.compare_variables, alpha=config.alpha,
            alpha_levene=config.alpha_levene, ci_level=config.ci_level,
            standardize_scope=config.standardize_scope,
            levene_center=config.levene_center)

    files = _write_outputs(config, model, ranked, comparison)
    return PipelineResult(config=config, model=model, ranked=ranked,
                          comparison=comparison, files=tuple(files))


_RANKING_FILES = (("json", "ranking.json"), ("csv", "ranking.csv"),
                  ("text", "ranking.txt"))


def _write_outputs(config, model, ranked, comparison):
    """Write every artifact into a temporary directory inside ``out_dir``,
    then move each into place; return the paths in write order."""
    out_dir = config.out_dir
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_dir)
    try:
        names = _write_artifacts(tmp, config, model, ranked, comparison)
        targets = [os.path.join(out_dir, name) for name in names]
        for target in targets:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        target)
        for name, target in zip(names, targets):
            os.replace(os.path.join(tmp, name), target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if created:
            # Empty unless something else wrote into it; then it stays.
            with suppress(OSError):
                os.rmdir(out_dir)
        raise
    os.rmdir(tmp)
    return targets


def _write_artifacts(directory, config, model, ranked, comparison):
    """Write the requested artifacts into ``directory``; return their names."""
    formats = config.formats
    files = []  # (filename, text); write_ranking writes the ranking files
    if model is not None:
        if "json" in formats:
            files.append(("factor_model.json", reports.record_json(model)))
        if "csv" in formats:
            files.append(("factor_model.csv", reports.loadings_csv(model)))
            files.append(("factor_model_eigenvalues.csv",
                          reports.eigenvalues_csv(model)))
            files.append(("factor_model_communalities.csv",
                          reports.communalities_csv(model)))
            files.append(("factor_model_coefficients.csv",
                          reports.score_coefficients_csv(model)))
        if "text" in formats:
            files.append(("factor_model.txt", reports.factor_model_text(model)))
    if ranked is not None:
        ranking = {fmt: name for fmt, name in _RANKING_FILES if fmt in formats}
        files += [(name, None) for name in ranking.values()]
    if comparison is not None:
        if "json" in formats:
            files.append(("comparison.json", reports.record_json(comparison)))
        if "csv" in formats:
            files.append(("comparison.csv", reports.comparison_csv(comparison)))
        if "text" in formats:
            files.append(("comparison.txt", reports.comparison_text(comparison)))
    files.append(("run_summary.json", reports.to_json_text(run_summary(config))))

    for name, text in files:
        if text is not None:
            with _open(directory, name) as fh:
                fh.write(text)
    if ranked is not None:
        with ExitStack() as stack:
            reports.write_ranking(ranked, model, {
                fmt: stack.enter_context(_open(directory, name))
                for fmt, name in ranking.items()})
    return [name for name, _ in files]


def _open(directory, name):
    return open(os.path.join(directory, name), "w", encoding="utf-8", newline="")


def run_summary(config):
    return {
        "config": config.to_dict(),
        "versions": {
            "factorindex": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
