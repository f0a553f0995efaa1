import random

import numpy as np
import pytest

from factorindex.errors import ValidationError
from factorindex.factors import FactorScores
from factorindex.ranking import rank_by_factor, with_groups


def scores_of(mapping, n_factors=1):
    ids = tuple(mapping)
    column = np.array([mapping[c] for c in ids], dtype=float)
    return FactorScores(case_ids=ids, scores=np.tile(column[:, None],
                                                     (1, n_factors)))


class TestRankByFactor:
    def test_ascending(self):
        ranked = rank_by_factor(scores_of({"A": -1.2, "B": 0.5, "C": 0.3}), 1)
        assert [(e.rank, e.case_id) for e in ranked.entries] == [
            (1, "A"), (2, "C"), (3, "B")]

    def test_tie_breaks_lexicographically(self):
        ranked = rank_by_factor(scores_of({"B": 0.5, "A": 0.5}), 1)
        assert [(e.rank, e.case_id) for e in ranked.entries] == [
            (1, "A"), (2, "B")]

    def test_descending_reverses_distinct_scores(self):
        mapping = {"A": -1.2, "B": 0.5, "C": 0.3}
        up = rank_by_factor(scores_of(mapping), 1, "ascending")
        down = rank_by_factor(scores_of(mapping), 1, "descending")
        assert [e.case_id for e in down.entries] == \
            [e.case_id for e in up.entries][::-1]
        n = len(mapping)
        up_rank = {e.case_id: e.rank for e in up.entries}
        for e in down.entries:
            assert e.rank == n + 1 - up_rank[e.case_id]

    def test_permutation_invariance(self):
        rng = np.random.RandomState(7)
        ids = [f"c{i:02d}" for i in range(25)]
        values = rng.randn(25)
        baseline = None
        for _ in range(50):
            order = rng.permutation(25)
            scores = FactorScores(
                case_ids=tuple(ids[i] for i in order),
                scores=values[order][:, None],
            )
            ranked = rank_by_factor(scores, 1)
            pairs = [(e.case_id, e.rank) for e in ranked.entries]
            if baseline is None:
                baseline = pairs
            assert pairs == baseline

    def test_affine_invariance(self):
        rng = np.random.RandomState(11)
        values = rng.randn(15)
        ids = tuple(f"c{i}" for i in range(15))
        base = rank_by_factor(FactorScores(ids, values[:, None]), 1)
        for a, b in ((2.0, 0.0), (0.5, 3.0), (10.0, -7.0)):
            moved = rank_by_factor(
                FactorScores(ids, (a * values + b)[:, None]), 1)
            assert [(e.rank, e.case_id) for e in moved.entries] == \
                [(e.rank, e.case_id) for e in base.entries]

    def test_factor_selector_forms(self):
        scores = FactorScores(("a", "b", "c"),
                              np.array([[0.0, 1.0], [1.0, 0.0], [2.0, -1.0]]))
        by_int = rank_by_factor(scores, 2)
        assert [e.case_id for e in by_int.entries] == ["c", "b", "a"]
        with pytest.raises(ValidationError, match="cannot parse"):
            rank_by_factor(scores, "2")

    def test_unknown_selector(self):
        scores = scores_of({"a": 1.0, "b": 2.0, "c": 0.0})
        with pytest.raises(ValidationError, match="out of range"):
            rank_by_factor(scores, 4)
        with pytest.raises(ValidationError, match="selector"):
            rank_by_factor(scores, "factor_x")

    def test_scores_monotone_along_ranks(self):
        rng = np.random.RandomState(13)
        scores = FactorScores(tuple(f"c{i}" for i in range(30)),
                              rng.randn(30)[:, None])
        ranked = rank_by_factor(scores, 1, "ascending")
        values = [e.score for e in ranked.entries]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSelectGroups:
    def test_published_design_bounds(self):
        rng = np.random.RandomState(17)
        scores = FactorScores(tuple(f"c{i:02d}" for i in range(88)),
                              rng.randn(88)[:, None])
        ranked = rank_by_factor(scores, 1)
        grouped = with_groups(ranked, 10)
        assert grouped.group1_ids == tuple(e.case_id for e in ranked.entries[:10])
        assert grouped.group2_ids == tuple(e.case_id for e in ranked.entries[78:88])
        assert {e.rank for e in ranked.entries[78:88]} == set(range(79, 89))

    def test_boundary_partition(self):
        rng = np.random.RandomState(19)
        scores = FactorScores(tuple(f"c{i:02d}" for i in range(20)),
                              rng.randn(20)[:, None])
        ranked = rank_by_factor(scores, 1)
        grouped = with_groups(ranked, 10)
        assert sorted(grouped.group1_ids + grouped.group2_ids) == sorted(scores.case_ids)
        assert not set(grouped.group1_ids) & set(grouped.group2_ids)

    def test_k_out_of_range(self):
        scores = scores_of({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 5.0})
        ranked = rank_by_factor(scores, 1)
        with pytest.raises(ValidationError, match=r"floor\(n/2\) = 2.*n = 5"):
            with_groups(ranked, 3)
        with pytest.raises(ValidationError):
            with_groups(ranked, 0)

    def test_with_groups_fills_fields(self):
        scores = scores_of({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        ranked = with_groups(rank_by_factor(scores, 1), 2)
        assert ranked.group_size == 2
        assert ranked.group1_ids == ("a", "b")
        assert ranked.group2_ids == ("c", "d")


class TestRankOrderMatchesPythonSort:
    """The ranking is Python's ``sorted`` on (score, id), or (-score, id)."""

    @staticmethod
    def expected(ids, values, direction):
        sign = 1.0 if direction == "ascending" else -1.0
        return sorted(zip(ids, values), key=lambda pair: (sign * pair[1], pair[0]))

    @pytest.mark.parametrize("direction", ["ascending", "descending"])
    def test_ties_signed_zeros_and_trailing_nuls(self, direction):
        ids = ["b", "a\x00\x00", "a\x00", "a", "\x00", "c", "A", "é", "z", "y"]
        values = [0.0, -0.0, 0.0, -0.0, 0.0, 1.5, 1.5, -2.0, -2.0, 1e-300]
        ranked = rank_by_factor(
            FactorScores(tuple(ids), np.array(values)[:, None]), 1, direction)
        expected = self.expected(ids, values, direction)
        assert ranked.case_ids == tuple(cid for cid, _ in expected)
        # repr tells -0.0 from 0.0: each score stays with its own case.
        assert [repr(v) for v in ranked.scores.tolist()] == \
            [repr(v) for _, v in expected]

    @pytest.mark.parametrize("direction", ["ascending", "descending"])
    def test_random_tables_with_many_ties(self, direction):
        rng = random.Random(23)
        ids = sorted({"".join(rng.choices("ab\x00é", k=rng.randint(1, 4)))
                      for _ in range(400)})
        rng.shuffle(ids)
        values = [rng.choice((-1.0, -0.0, 0.0, 0.25, 3.0)) for _ in ids]
        ranked = rank_by_factor(
            FactorScores(tuple(ids), np.array(values)[:, None]), 1, direction)
        expected = self.expected(ids, values, direction)
        assert ranked.case_ids == tuple(cid for cid, _ in expected)
        assert [repr(v) for v in ranked.scores.tolist()] == \
            [repr(v) for _, v in expected]


class TestRankedColumns:
    def test_entries_are_a_view_of_the_columns(self):
        ranked = rank_by_factor(scores_of({"A": -1.2, "B": 0.5, "C": 0.3}), 1)
        assert ranked.n_cases == 3
        assert ranked.case_ids == ("A", "C", "B")
        assert [(e.rank, e.case_id, e.score) for e in ranked.entries] == [
            (1, "A", -1.2), (2, "C", 0.3), (3, "B", 0.5)]
        assert all(type(e.score) is float for e in ranked.entries)

    def test_scores_are_read_only(self):
        ranked = rank_by_factor(scores_of({"A": -1.2, "B": 0.5, "C": 0.3}), 1)
        assert ranked.scores.dtype == np.float64
        with pytest.raises(ValueError):
            ranked.scores[0] = 0.0
