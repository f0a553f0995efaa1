"""End-to-end orchestration: load -> factor model -> ranking -> comparison.

Which steps a run takes is ``config.COMMANDS``'s row for its stage: it can
stop early (``factors``, ``rank``) or compare explicit groups without a
factor model (``compare``). The loaded table is the run's one
dataset: ``variables`` narrows only the factor model's input, and the
comparison takes the ``comparison.variables`` columns from the whole table,
or the factor model's columns when that key is unset. When no later step
reads the factor model's table, its z-scores are written over its values,
so the run holds the table once. The compared table is dropped before the
files are written.

Each notice (listwise deletion's dropped ids, a varimax rotation with no
fixed point) is one stderr ``warning: ...`` line, printed once its step
has returned; a step that fails prints none.

Report files are written only after every computation has succeeded, and
then all of them or none: each is written whole into a temporary directory
inside ``out_dir``, and only when every one is complete, and no target path
is a directory, is each moved into place with ``os.replace``. A run that
fails leaves the files already in ``out_dir`` as they were, and removes
``out_dir`` if the run created it and it is still empty. After the moves,
each name in ``_ARTIFACTS`` that this run did not write is removed from
``out_dir`` if it is a regular file or a symlink (not the symlink's target),
so ``out_dir`` holds one run; a directory at such a name stays. Outputs are
byte-deterministic for identical inputs and config.
"""

import errno
import os
import platform
import shutil
import sys
import tempfile
from contextlib import ExitStack, suppress
from dataclasses import dataclass

import numpy as np

from . import __version__, reports
from .config import COMMANDS, PipelineConfig
from .dataset import load_csv, select_variables, standardize
from .errors import ValidationError, with_stage
from .factors import build_factor_model, factor_scores
from .inference import MIN_GROUP_SIZE, compare_groups
from .ranking import check_group_size, rank_by_factor, with_groups


@dataclass(frozen=True)
class PipelineResult:
    config: PipelineConfig
    model: object
    ranked: object
    comparison: object
    files: tuple


def run_pipeline(config, stage="analyze"):
    """Run the steps of subcommand ``stage`` and write the report files.

    ``stage`` names a row of ``config.COMMANDS``: ``"factors"`` (stop after
    the factor model), ``"rank"`` (through ranking), ``"analyze"`` (full run
    including the group comparison) or ``"compare"`` (compare the config's
    two explicit groups, skipping extraction and ranking).
    """
    if stage not in COMMANDS:
        raise ValidationError(f"unknown pipeline stage {stage!r}")
    steps = COMMANDS[stage][1]
    groups = (config.compare_group1, config.compare_group2)
    if "groups" in steps and not all(groups):
        raise ValidationError(f"{stage} requires comparison.group1 and "
                              "comparison.group2 id lists")
    ds = load_csv(config.input, id_column=config.id_column,
                  missing_policy=config.missing_policy)
    if ds.dropped_ids:
        _notice(f"listwise deletion dropped {len(ds.dropped_ids)} case(s): "
                f"{', '.join(ds.dropped_ids)}")
    model_ds = (ds if config.variables is None
                else select_variables(ds, config.variables))
    # Unset, the comparison takes the factor model's table itself, not a
    # copy, and the whole table is freed.
    compared = (None if "comparison" not in steps
                else model_ds if config.compare_variables is None else ds)
    del ds

    if "ranking" in steps:
        # Before the factor model, so a singular R cannot mask a bad k; groups
        # that are compared need as many cases as compare_groups asks.
        check_group_size(config.ranking_k, model_ds.n_cases,
                         MIN_GROUP_SIZE if "comparison" in steps else 1)

    model = ranked = comparison = None
    if "model" in steps:
        # A table that no later step reads gets the z-scores over its values.
        z = with_stage("standardize", standardize, model_ds,
                       overwrite=model_ds is not compared)
        model = build_factor_model(
            z,
            retention_rule=config.retention_rule,
            retention_k=config.retention_k,
            rotation_method=config.rotation_method,
            kaiser_normalize=config.kaiser_normalization,
            rotation_tol=config.rotation_tol,
            rotation_max_iter=config.rotation_max_iter,
        )
        if not model.rotation_converged:
            _notice(f"varimax did not reach a fixed point in "
                    f"{config.rotation_max_iter} sweeps; returning best iterate")
    del model_ds  # an overwritten one is z's buffer, which the ranking frees

    if "ranking" in steps:
        scores = with_stage("scoring", factor_scores, z, model.score_coefficients)
        del z  # the ranking's per-case objects reuse its memory
        ranked = rank_by_factor(scores, config.ranking_factor,
                                config.ranking_direction)
        ranked = with_groups(ranked, config.ranking_k)
        groups = (ranked.group1_ids, ranked.group2_ids)

    if "comparison" in steps:
        comparison = with_stage(
            "comparison", compare_groups, compared, *groups,
            variables=config.compare_variables, alpha=config.alpha,
            alpha_levene=config.alpha_levene, ci_level=config.ci_level,
            standardize_scope=config.standardize_scope,
            levene_center=config.levene_center)
    del compared  # not held through the write

    files = _write_outputs(config, model, ranked, comparison)
    return PipelineResult(config=config, model=model, ranked=ranked,
                          comparison=comparison, files=tuple(files))


def _notice(text):
    print(f"warning: {text}", file=sys.stderr)


# Every file a run can write, in listing order: (name, format, result,
# reports function that renders it). run_summary.json has no format: every
# run writes it. The ranking files have no renderer, because
# reports.write_ranking writes them together in one pass.
_ARTIFACTS = (
    ("factor_model.json", "json", "model", "record_json"),
    ("factor_model.csv", "csv", "model", "loadings_csv"),
    ("factor_model_eigenvalues.csv", "csv", "model", "eigenvalues_csv"),
    ("factor_model_communalities.csv", "csv", "model", "communalities_csv"),
    ("factor_model_coefficients.csv", "csv", "model", "score_coefficients_csv"),
    ("factor_model.txt", "text", "model", "factor_model_text"),
    ("ranking.json", "json", "ranked", None),
    ("ranking.csv", "csv", "ranked", None),
    ("ranking.txt", "text", "ranked", None),
    ("comparison.json", "json", "comparison", "record_json"),
    ("comparison.csv", "csv", "comparison", "comparison_csv"),
    ("comparison.txt", "text", "comparison", "comparison_text"),
    ("run_summary.json", None, "summary", "to_json_text"),
)


def _write_outputs(config, model, ranked, comparison):
    """Write this run's artifacts into a temporary directory inside
    ``out_dir``, move each into place, then remove the other artifact names;
    return the paths in listing order."""
    results = {"model": model, "ranked": ranked, "comparison": comparison,
               "summary": run_summary(config)}
    chosen = [row for row in _ARTIFACTS
              if row[1] in config.formats + (None,) and results[row[2]] is not None]
    out_dir = config.out_dir
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_dir)
    try:
        with ExitStack() as stack:
            ranking = {}  # format -> open stream, for one write_ranking pass
            for name, fmt, key, renderer in chosen:
                if renderer is None:
                    ranking[fmt] = stack.enter_context(_open(tmp, name))
                    continue
                with _open(tmp, name) as stream:
                    # Looked up per call, so a wrapped reports function is used.
                    stream.write(getattr(reports, renderer)(results[key]))
            if ranking:
                reports.write_ranking(ranked, model, ranking)
        for name, *_ in chosen:
            if os.path.isdir(os.path.join(out_dir, name)):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        os.path.join(out_dir, name))
        for name, *_ in chosen:
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if created:
            # Empty unless something else wrote into it; then it stays.
            with suppress(OSError):
                os.rmdir(out_dir)
        raise
    os.rmdir(tmp)
    for name, *_ in (row for row in _ARTIFACTS if row not in chosen):
        stale = os.path.join(out_dir, name)
        if os.path.islink(stale) or os.path.isfile(stale):
            os.remove(stale)
    return [os.path.join(out_dir, name) for name, *_ in chosen]


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
