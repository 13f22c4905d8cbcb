import functools
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querymind import _kernels
from querymind.codespace import (
    BLOCK_ROWS,
    CodeSpace,
    Feedback,
    FeedbackMode,
    Repeats,
    Symmetries,
    VariantConfig,
    encode01,
    feedback,
)
from querymind.combinatorics import bucket_size
from querymind.engine import play_adversarial, play_honest, worst_case_queries
from querymind.errors import DomainError, ProtocolError
from querymind.strategies import (
    MinimaxStrategy,
    SolutionSet,
    _RationalBasis,
    filter_consistent,
    get_strategy,
    minimax_next,
)

from conftest import perm_config


@pytest.fixture(scope="module")
def perm3():
    cfg = perm_config(3)
    return cfg, CodeSpace.enumerate(cfg)


class TestFilterConsistent:
    def test_full_match_keeps_only_query(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        kept = filter_consistent(s, (1, 2, 3), Feedback(3))
        assert kept.codes() == [(1, 2, 3)]

    def test_one_fixed_point_bucket(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        kept = filter_consistent(s, (1, 2, 3), Feedback(1))
        assert set(kept.codes()) == {(1, 3, 2), (3, 2, 1), (2, 1, 3)}

    def test_impossible_response_is_empty(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        assert len(filter_consistent(s, (1, 2, 3), Feedback(2))) == 0

    def test_buckets_partition(self):
        cfg = VariantConfig(3, 3)
        space = CodeSpace.enumerate(cfg)
        s = SolutionSet.full(space)
        for qi in (0, 5, 13):
            q = space.decode(qi)
            total = 0
            for b in range(4):
                for w in range(4 - b):
                    total += len(filter_consistent(s, q, Feedback(b, w)))
            assert total == len(s)

    def test_empty_set_stays_empty(self, perm3):
        cfg, space = perm3
        kept = filter_consistent(SolutionSet(space, []), (1, 2, 3), Feedback(1))
        assert len(kept) == 0

    def test_contradictory_transcript_is_empty(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        turns = [((1, 2, 3), Feedback(3)), ((1, 3, 2), Feedback(3)), ((2, 1, 3), Feedback(0))]
        for q, r in turns:
            s = filter_consistent(s, q, r)
        assert len(s) == 0

    def test_bucket_bounded_by_closed_form(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        for q in space:
            for r in range(4):
                assert len(filter_consistent(s, q, Feedback(r))) <= bucket_size(3, r)


def _viewed_rows(s):
    """The rows a solution set's view holds, as a copy."""
    block, at = s.view
    return block[at]


class TestSolutionSetRows:
    @pytest.mark.parametrize(
        "cfg", [VariantConfig(3, 3), perm_config(4)], ids=["3-3-bw", "perm4-b"]
    )
    def test_children_slice_the_rows_of_their_codes(self, cfg):
        space = CodeSpace.enumerate(cfg)
        table = space.feedback_rows(np.arange(space.size))
        parent = SolutionSet(space, np.arange(1, space.size, 2))
        parent.minimax_scores()  # a set without symmetries computes its block
        assert np.array_equal(_viewed_rows(parent), table[parent.indices])
        for qi in (0, 5, space.size - 1):
            children = parent.split(qi)
            unviewed = SolutionSet(space, parent.indices).split(qi)
            assert [fb for fb, _ in children] == [fb for fb, _ in unviewed]
            for _, child in children:
                # a grandchild of a child that was never scored views too
                for _, grandchild in child.split(1):
                    if len(grandchild) > 1:
                        assert np.array_equal(_viewed_rows(grandchild), table[grandchild.indices])
                    else:
                        assert grandchild.view is None  # never scored
                if len(child) > 1:
                    assert np.array_equal(_viewed_rows(child), table[child.indices])
        assert np.array_equal(_viewed_rows(parent), table[parent.indices])

    def test_hand_down_leaves_rows_only_with_the_children(self, perm3, monkeypatch):
        # one block: the children view the parent's block, and scoring them
        # neither copies it nor computes rows
        cfg, space = perm3
        table = space.feedback_rows(np.arange(space.size))
        parent = SolutionSet(space, [0, 1, 2, 3, 4])
        parent.minimax_scores()
        block, _ = parent.view
        children = [child for _, child in parent.split(0)]
        assert parent.view[0] is block
        assert sum(len(child) > 1 for child in children) == 2

        def computed(*args):
            raise AssertionError("computed feedback rows")

        monkeypatch.setattr(CodeSpace, "feedback_rows", computed)
        for child in children:
            if len(child) > 1:
                assert child.view[0] is block
                want = [np.bincount(table[q, child.indices]).max() for q in range(space.size)]
                assert child.minimax_scores().tolist() == want
                assert child.view[0] is block
                assert np.array_equal(_viewed_rows(child), table[child.indices])

    def test_whole_space_holds_no_rows(self):
        space = CodeSpace.enumerate(VariantConfig(4, 4))
        s = SolutionSet.full(space)
        minimax_next(s)
        children = s.split(0)
        assert s.view is None
        assert all(child.view is None for _, child in children)

    def test_a_large_symmetric_set_holds_rows_once_split_again(self, monkeypatch):
        # perm-6's first bucket, its 265 derangements, has more codes than
        # one kernel block sums and symmetries left: it is scored from its
        # ids against one query per orbit and split once by a query column;
        # split again (only the exact search does), it computes its block,
        # which the children of that split and of every later one view
        space = CodeSpace.enumerate(perm_config(6))
        space.n_realised_fids  # computes the root rows first
        shapes, columns = [], []
        computed, column = CodeSpace.feedback_rows, CodeSpace.query_column

        def record(space, *args):
            block = computed(space, *args)
            shapes.append(block.shape)
            return block

        def read(space, qi, indices):
            columns.append(qi)
            return column(space, qi, indices)

        monkeypatch.setattr(CodeSpace, "feedback_rows", record)
        monkeypatch.setattr(CodeSpace, "query_column", read)
        bucket = max((child for _, child in SolutionSet.full(space).split(0)), key=len)
        assert len(bucket) == 265 > BLOCK_ROWS
        shapes.clear()
        columns.clear()
        bucket.minimax_scores()
        assert shapes == [(265, len(bucket.symmetries.reps))]
        assert bucket.view is None
        bucket.split(1)
        assert columns == [1] and bucket.view is None
        shapes.clear()
        for qi in (2, 3):
            for _, child in bucket.split(qi):
                assert len(child) < 2 or child.view[0] is bucket.view[0]
        assert shapes == [(265, space.size)]
        assert columns == [1]

    def test_a_small_symmetric_set_builds_its_block_unlabelled(self, monkeypatch):
        # a game's largest first bucket on perm-5, the 45 codes with one
        # fixed point, keeps symmetries but fits in one kernel block: it
        # scores every column of its own block and never labels its orbits
        space = CodeSpace.enumerate(perm_config(5))
        table = space.feedback_rows(np.arange(space.size))
        space.n_realised_fids  # labels the whole space's orbits first

        def first_bucket():
            return max((child for _, child in SolutionSet.full(space).split(0)), key=len)

        assert not first_bucket().symmetries.trivial
        bucket = first_bucket()
        assert len(bucket) == 45
        shapes, computed = [], CodeSpace.feedback_rows

        def record(space, *args):
            block = computed(space, *args)
            shapes.append(block.shape)
            return block

        def refuse(group):
            raise AssertionError("labelled orbits")

        monkeypatch.setattr(CodeSpace, "feedback_rows", record)
        monkeypatch.setattr(Symmetries, "labels", property(refuse))
        scores = bucket.minimax_scores()
        assert shapes == [(45, space.size)]
        assert np.array_equal(_viewed_rows(bucket), table[bucket.indices])
        want = _kernels.column_max_buckets(table, bucket.indices, range(space.n_fids))
        assert scores.tolist() == want.tolist()


class TestMinimax:
    def test_singleton_scores_one(self, perm3):
        cfg, space = perm3
        s = SolutionSet(space, [0])
        for q in space:
            assert SolutionSet(space, s.indices).minimax_scores()[space.encode(q)] == 1

    def test_score_of_answered_query_is_full_set(self, perm3):
        cfg, space = perm3
        s = filter_consistent(SolutionSet.full(space), (1, 2, 3), Feedback(1))
        assert SolutionSet(space, s.indices).minimax_scores()[space.encode((1, 2, 3))] == len(s)

    def test_perm3_score(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        assert SolutionSet(space, s.indices).minimax_scores()[space.encode((1, 2, 3))] == 3

    def test_two_candidates_returns_member(self, perm3):
        cfg, space = perm3
        s = SolutionSet(space, [1, 4])
        q = minimax_next(s)
        assert q == space.decode(1)  # lower-indexed member on a tie

    def test_knuth_first_guess_pattern(self):
        cfg = VariantConfig(4, 6)
        space = CodeSpace.enumerate(cfg)
        q = minimax_next(SolutionSet.full(space))
        assert sorted(q.count(c) for c in set(q)) == [2, 2]

    def test_scores_gather_table_in_blocks(self):
        # scoring the full set must not copy the whole table slice at once
        cfg = VariantConfig(5, 5)
        space = CodeSpace.enumerate(cfg)
        table = space.feedback_rows(np.arange(space.size))
        tracemalloc.start()
        try:
            q = minimax_next(SolutionSet.full(space))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes / 4
        scores = _kernels.max_bucket_sizes(table, space.n_fids)
        assert space.encode(q) == int(np.flatnonzero(scores == scores.min())[0])

    def test_never_repeats_while_undetermined(self, perm3):
        cfg, space = perm3
        for h in space:
            s = SolutionSet.full(space)
            seen = []
            while len(s) > 1:
                q = minimax_next(s)
                assert q not in seen
                seen.append(q)
                s = filter_consistent(s, q, feedback(q, h, cfg))

    def test_requires_two_candidates(self, perm3):
        cfg, space = perm3
        with pytest.raises(DomainError):
            minimax_next(SolutionSet(space, [2]))


_SMALL_CONFIGS = [
    perm_config(5),
    VariantConfig(3, 3),
    VariantConfig(3, 4, feedback=FeedbackMode.BLACK_ONLY),
    VariantConfig(2, 6),
    VariantConfig(4, 5, repeats=Repeats.FORBIDDEN),
]


@functools.lru_cache(maxsize=None)
def _space_and_table(cfg):
    space = CodeSpace.enumerate(cfg)
    return space, space.feedback_rows(np.arange(space.size))


class TestOrbitScores:
    @pytest.mark.parametrize(
        "cfg",
        [*_SMALL_CONFIGS, perm_config(6)],
        ids=lambda c: f"{c.n}-{c.k}-{c.feedback.value}-{c.repeats.value}",
    )
    def test_orbit_scores_equal_full_kernel_scores(self, cfg, monkeypatch):
        # every set a sweep or a game scores, with the symmetries it
        # carries, gets the scores of all its rows against every query
        space, table = _space_and_table(cfg)
        paths, taken = set(), []
        counted = CodeSpace.bucket_maxima

        def record(space, block, at=None, cols=None):
            # (from a view, one query per orbit only)
            taken.append((at is not None, cols is not None or block.shape[1] < space.size))
            return counted(space, block, at, cols)

        monkeypatch.setattr(CodeSpace, "bucket_maxima", record)

        class Checked(MinimaxStrategy):
            def next_query(self, history, s):
                want = _kernels.column_max_buckets(table, s.indices, range(space.n_fids))
                taken.clear()
                assert s.minimax_scores().tolist() == want.tolist()
                paths.update(taken)
                return super().next_query(history, s)

        worst_case_queries(Checked(), space)
        play_adversarial(Checked(), space)
        for idx in (0, space.size // 2):
            play_honest(Checked(), space.decode(idx), space)
        # every column of a view, and a set of more than BLOCK_ROWS codes
        # with symmetries left from its own ids against one query per orbit,
        # which perm-6's first query leaves (265 derangements) and no
        # smaller space does; nothing scores one query per orbit from a view
        want = {(True, False)}
        assert paths == (want | {(False, True)} if cfg == perm_config(6) else want)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_member_floor_answer_is_the_full_argmin(self, data):
        space, table = _space_and_table(data.draw(st.sampled_from(_SMALL_CONFIGS)))
        picks = data.draw(
            st.lists(st.integers(0, space.size - 1), min_size=2, max_size=12, unique=True)
        )
        s = SolutionSet(space, picks)
        s.minimax_scores()  # a set without symmetries computes its block
        scores = _kernels.column_max_buckets(table, s.indices, range(space.n_fids))
        floor = -(-(len(s) - 1) // (space.n_realised_fids - 1))
        assert scores.min() >= floor
        tied = np.flatnonzero(scores == scores.min())
        members = tied[np.isin(tied, s.indices)]
        want = members[0] if members.size else tied[0]
        assert minimax_next(s) == space.decode(int(want))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_two_codes_answer_the_lower_unscored(self, data):
        # both members of a two-code set score 1, the member floor, so the
        # lower one wins with or without a view and no bucket is counted
        space, table = _space_and_table(data.draw(st.sampled_from(_SMALL_CONFIGS)))
        picks = sorted(
            data.draw(st.lists(st.integers(0, space.size - 1), min_size=2, max_size=2, unique=True))
        )
        scores = _kernels.column_max_buckets(table, np.array(picks), range(space.n_fids))
        assert scores[picks].tolist() == [1, 1]

        def refuse(*args):
            raise AssertionError("counted buckets")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CodeSpace, "bucket_maxima", refuse)
            for s in (
                SolutionSet(space, picks[::-1]),
                SolutionSet(space, picks, (table, np.array(picks))),
            ):
                assert minimax_next(s) == space.decode(picks[0])

    def test_member_at_the_floor_skips_scoring(self, perm3, monkeypatch):
        cfg, space = perm3
        s = SolutionSet(space, [4, 1])
        s.minimax_scores()  # a set without symmetries computes its block

        def scored(self):
            raise AssertionError("scored every query")

        monkeypatch.setattr(SolutionSet, "minimax_scores", scored)
        assert minimax_next(s) == space.decode(1)


def _matrix_rank(vectors) -> int:
    return int(np.linalg.matrix_rank(np.array(vectors, dtype=float))) if vectors else 0


def _rank(codes, cfg) -> int:
    return int(np.linalg.matrix_rank(np.array([encode01(c, cfg) for c in codes], dtype=float)))


class TestRationalBasis:
    def test_rank_of_valid_queries_n2_k2(self):
        cfg = VariantConfig(2, 2, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace.enumerate(cfg)
        basis = _RationalBasis(4)
        added = [basis.add(encode01(c, cfg)) for c in space]
        assert added == [True, True, True, False]  # (2,2) = (1,2) + (2,1) - (1,1)
        assert basis.rank == 3

    def test_dependent_vector_is_not_added(self):
        cfg = VariantConfig(2, 2, feedback=FeedbackMode.BLACK_ONLY)
        basis = _RationalBasis(4)
        assert basis.add(encode01((1, 1), cfg))
        assert not basis.add(encode01((1, 1), cfg))
        assert basis.rank == 1


    @pytest.mark.parametrize("seed", range(4))
    def test_decisions_match_fraction_elimination(self, seed):
        # fraction-free integer elimination keeps exactly the vectors that
        # rational elimination keeps, also for vectors with large entries
        # and for combinations of earlier ones
        rng = np.random.default_rng(seed)
        width = 7
        basis = _RationalBasis(width)
        rows, pivots = [], []
        kept = []
        for step in range(60):
            if kept and step % 3 == 0:
                coefs = rng.integers(-3, 4, size=len(kept))
                vec = np.array(kept).T @ coefs
            else:
                vec = rng.integers(-2, 3, size=width) * rng.choice([1, 1, 1, 7919])
            v = [Fraction(int(x)) for x in vec]
            for row, col in zip(rows, pivots):
                coef = v[col] / row[col]
                v = [x - coef * y for x, y in zip(v, row)]
            pivot = next((j for j, x in enumerate(v) if x), None)
            if pivot is not None:
                rows.append(v)
                pivots.append(pivot)
                kept.append(vec)
            assert basis.add(vec) == (pivot is not None)
        assert basis.rank == len(rows) == _matrix_rank(kept)


class TestBasisStrategy:
    def test_empty_history_first_code(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        assert get_strategy("basis").next_query([], s) == space.decode(0)

    def test_rank_increases_each_turn(self):
        cfg = VariantConfig(2, 3, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace.enumerate(cfg)
        strategy = get_strategy("basis")
        h = (3, 2)
        s = SolutionSet.full(space)
        history = []
        while len(s) > 1:
            q = strategy.next_query(history, s)
            history.append((q, feedback(q, h, cfg)))
            s = filter_consistent(s, q, history[-1][1])
            assert _rank([q for q, _ in history], cfg) == len(history)
        assert s.codes() == [h]

    @pytest.mark.parametrize(
        "cfg,rank",
        [
            (VariantConfig(1, 2, feedback=FeedbackMode.BLACK_ONLY), 2),
            (VariantConfig(2, 2, feedback=FeedbackMode.BLACK_ONLY), 3),
            (perm_config(3), 5),
        ],
        ids=["1-2-b", "2-2-b", "perm3"],
    )
    def test_worst_case_within_rank(self, cfg, rank):
        # filtering isolates every code once the queries span: at most rank turns
        space = CodeSpace.enumerate(cfg)
        assert _rank(list(space), cfg) == rank
        result = worst_case_queries(get_strategy("basis"), space)
        assert result.exhausted == []
        assert result.max_queries <= rank


class TestStrategyInterface:
    def test_first_consistent_queries_lowest_member(self, perm3):
        cfg, space = perm3
        s = SolutionSet(space, [2, 4])
        strategy = get_strategy("first-consistent")
        assert strategy.next_query([], s) == space.decode(2)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            get_strategy("oracle")

    def test_deterministic_given_history(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        for name in ("minimax", "basis", "first-consistent"):
            a = get_strategy(name).next_query([], s)
            b = get_strategy(name).next_query([], s)
            assert a == b

    def test_basis_follows_its_own_query_sequence(self, perm3):
        # reference: the lexicographically first code that raises the rank
        # (numpy's float rank is exact for 0/1 matrices of 9 columns)
        cfg, space = perm3
        s = SolutionSet.full(space)
        strategy = get_strategy("basis")
        expected = []
        for c in space:
            if _rank(expected + [c], cfg) > len(expected):
                expected.append(c)
        assert len(expected) == 5  # (n-1)^2 + 1
        history = []
        for want in expected:
            q = strategy.next_query(history, s)
            assert q == want
            history.append((q, Feedback(0)))
        # an earlier prefix is answered from the same list
        assert strategy.next_query(history[:1], s) == expected[1]

    def test_basis_rejects_history_off_its_sequence(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        strategy = get_strategy("basis")
        first = strategy.next_query([], s)
        other = space.decode(space.size - 1)
        assert other != first
        with pytest.raises(ProtocolError):
            strategy.next_query([(other, Feedback(0))], s)
