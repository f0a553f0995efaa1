"""Ranking cases on a factor and picking the extreme groups."""

from dataclasses import dataclass, replace

from .errors import ValidationError
from .factors import FactorScores


@dataclass(frozen=True)
class RankEntry:
    rank: int
    case_id: str
    score: float


@dataclass(frozen=True)
class RankedIndex:
    """Cases ordered on one factor's scores, optionally split into end groups.

    ``factor`` is the 1-based column that was ranked. Group 1 holds ranks
    1..k, group 2 ranks n-k+1..n; both are empty until
    :func:`select_groups` is applied.
    """

    factor: int
    direction: str
    entries: tuple
    group_size: int = None
    group1_ids: tuple = ()
    group2_ids: tuple = ()

    @property
    def n_cases(self):
        return len(self.entries)


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
    pairs = list(zip(scores.case_ids, (float(v) for v in column)))
    if direction == "ascending":
        pairs.sort(key=lambda item: (item[1], item[0]))
    else:
        pairs.sort(key=lambda item: (-item[1], item[0]))
    entries = tuple(
        RankEntry(rank=i, case_id=cid, score=score)
        for i, (cid, score) in enumerate(pairs, start=1)
    )
    return RankedIndex(factor=idx, direction=direction, entries=entries)


def select_groups(ranked, k=10):
    """First-k and last-k case ids of a ranked index.

    ``k`` must satisfy 1 <= k <= floor(n/2) so the groups cannot overlap.
    """
    n = ranked.n_cases
    bound = n // 2
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= bound:
        raise ValidationError(
            f"group size k={k!r} out of range: need 1 <= k <= floor(n/2) = {bound} "
            f"(n = {n})"
        )
    group1 = tuple(e.case_id for e in ranked.entries[:k])
    group2 = tuple(e.case_id for e in ranked.entries[n - k:])
    return group1, group2


def with_groups(ranked, k=10):
    """A copy of ``ranked`` with the end groups of size ``k`` filled in."""
    group1, group2 = select_groups(ranked, k)
    return replace(ranked, group_size=k, group1_ids=group1, group2_ids=group2)
