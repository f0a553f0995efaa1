"""Ranking cases on a factor and picking the extreme groups."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .factors import FactorScores


@dataclass(frozen=True)
class RankedIndex:
    """Cases ordered on one factor's scores, optionally split into end groups.

    ``factor`` is the 1-based column that was ranked. ``case_ids`` and
    ``scores`` are columns in rank order: rank ``r`` is ``case_ids[r - 1]``
    with score ``scores[r - 1]``. Group 1 holds ranks 1..k, group 2 ranks
    n-k+1..n; both are empty until :func:`with_groups` is applied.
    """

    factor: int
    direction: str
    case_ids: tuple
    scores: np.ndarray
    group_size: int = None
    group1_ids: tuple = ()
    group2_ids: tuple = ()

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "case_ids", tuple(self.case_ids))

    @property
    def n_cases(self):
        return len(self.case_ids)


def _resolve_factor(selector, n_factors):
    """Check a 1-based integer factor selector against the retained count."""
    if not isinstance(selector, int) or isinstance(selector, bool):
        raise ValidationError(f"cannot parse factor selector {selector!r}")
    if not 1 <= selector <= n_factors:
        raise ValidationError(
            f"factor selector {selector!r} out of range: model retains {n_factors}"
        )
    return selector


def rank_by_factor(scores, factor, direction="ascending"):
    """Rank all cases on one score column.

    ``direction='ascending'`` puts the smallest score at rank 1 (the usual
    orientation when low scores mean most deprived). Ties break on case id,
    lexicographic ascending, so the ranking is independent of input order.
    """
    if not isinstance(scores, FactorScores):
        raise ValidationError("rank_by_factor expects FactorScores")
    if direction not in ("ascending", "descending"):
        raise ValidationError(
            f"direction must be 'ascending' or 'descending', got {direction!r}"
        )
    idx = _resolve_factor(factor, scores.scores.shape[1])
    column = scores.scores[:, idx - 1]
    ids = scores.case_ids
    # Ties break on the id as Python orders str; numpy's str arrays would
    # drop trailing NULs, so only the id's position in that order is sorted.
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    key = column if direction == "ascending" else -column
    order = np.lexsort((id_rank, key))
    return RankedIndex(factor=idx, direction=direction,
                       case_ids=tuple(map(ids.__getitem__, order.tolist())),
                       scores=column[order])


def check_group_size(k, n):
    """Require 1 <= k <= floor(n/2), so the end groups of n cases cannot overlap."""
    bound = n // 2
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= bound:
        raise ValidationError(
            f"group size k={k!r} out of range: need 1 <= k <= floor(n/2) = {bound} "
            f"(n = {n})"
        )


def with_groups(ranked, k=10):
    """A copy of ``ranked`` with its first-k and last-k cases as the groups."""
    n = ranked.n_cases
    check_group_size(k, n)
    return replace(ranked, group_size=k, group1_ids=ranked.case_ids[:k],
                   group2_ids=ranked.case_ids[n - k:])
