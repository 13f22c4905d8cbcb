import itertools
import tracemalloc

import numpy as np
import pytest

from querymind import _kernels
from querymind.codespace import (
    CodeSpace,
    Feedback,
    FeedbackMode,
    Repeats,
    VariantConfig,
    encode01,
    feedback,
)
from querymind.combinatorics import bucket_size
from querymind.errors import ContradictionError, DomainError, ProtocolError
from querymind.strategies import (
    Decoded,
    SolutionSet,
    _RationalBasis,
    basis_next,
    decode_candidates,
    filter_consistent,
    get_strategy,
    minimax_next,
    minimax_score,
    replay,
)

from conftest import black, perm_config


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

    def test_bucket_bounded_by_closed_form(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        for q in space:
            for r in range(4):
                assert len(filter_consistent(s, q, Feedback(r))) <= bucket_size(3, r)


class TestMinimax:
    def test_singleton_scores_one(self, perm3):
        cfg, space = perm3
        s = SolutionSet(space, [0])
        for q in space:
            assert minimax_score(q, s, cfg) == 1

    def test_score_of_answered_query_is_full_set(self, perm3):
        cfg, space = perm3
        s = filter_consistent(SolutionSet.full(space), (1, 2, 3), Feedback(1))
        assert minimax_score((1, 2, 3), s, cfg) == len(s)

    def test_perm3_score(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        assert minimax_score((1, 2, 3), s, cfg) == 3

    def test_two_candidates_returns_member(self, perm3):
        cfg, space = perm3
        s = SolutionSet(space, [1, 4])
        q = minimax_next(s, cfg)
        assert q == space.decode(1)  # lower-indexed member on a tie

    def test_knuth_first_guess_pattern(self):
        cfg = VariantConfig(4, 6)
        space = CodeSpace.enumerate(cfg)
        q = minimax_next(SolutionSet.full(space), cfg)
        assert sorted(q.count(c) for c in set(q)) == [2, 2]

    def test_scores_gather_table_in_blocks(self):
        # scoring the full set must not copy the whole table slice at once
        cfg = VariantConfig(5, 5)
        space = CodeSpace.enumerate(cfg)
        table = space.fid_table()
        tracemalloc.start()
        try:
            q = minimax_next(SolutionSet.full(space), cfg)
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
                q = minimax_next(s, cfg)
                assert q not in seen
                seen.append(q)
                s = filter_consistent(s, q, feedback(q, h, cfg))

    def test_requires_two_candidates(self, perm3):
        cfg, space = perm3
        with pytest.raises(DomainError):
            minimax_next(SolutionSet(space, [2]), cfg)


class TestRationalBasis:
    def test_rank_of_valid_queries_n2_k2(self):
        cfg = VariantConfig(2, 2, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace.enumerate(cfg)
        basis = _RationalBasis(4)
        for c in space:
            basis.add(encode01(c, cfg), 0)
        assert basis.rank == 3

    def test_dependent_vector_with_consistent_response(self):
        cfg = VariantConfig(2, 2, feedback=FeedbackMode.BLACK_ONLY)
        basis = _RationalBasis(4)
        basis.add(encode01((1, 1), cfg), 0)
        assert not basis.add(encode01((1, 1), cfg), 0)
        with pytest.raises(ContradictionError):
            basis.add(encode01((1, 1), cfg), 2)


class TestBasisNext:
    def test_empty_history_first_code(self, perm3):
        cfg, space = perm3
        assert basis_next([], space) == space.decode(0)

    def test_n1_k2_decodes_after_one_query(self):
        cfg = VariantConfig(1, 2, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace.enumerate(cfg)
        for h in space:
            fb = feedback((1,), h, cfg)
            out = basis_next([((1,), fb)], space)
            assert out == Decoded(h)

    def test_rank_increases_each_turn(self):
        cfg = VariantConfig(2, 3, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace.enumerate(cfg)
        h = (3, 2)
        history = []
        ranks = []
        while True:
            out = basis_next(history, space)
            if isinstance(out, Decoded):
                assert out.code == h
                break
            history.append((out, feedback(out, h, cfg)))
            basis = _RationalBasis(6)
            for q, _ in history:
                basis.add(encode01(q, cfg), 0)
            ranks.append(basis.rank)
        assert ranks == sorted(set(ranks))  # strictly increasing

    def test_at_most_rank_many_queries_n2_k2(self):
        cfg = VariantConfig(2, 2, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace.enumerate(cfg)
        for h in space:
            history = []
            while True:
                out = basis_next(history, space)
                if isinstance(out, Decoded):
                    assert out.code == h
                    break
                history.append((out, feedback(out, h, cfg)))
            assert len(history) <= 3  # rank of the valid-query span

    def test_contradictory_history(self, perm3):
        cfg, space = perm3
        history = [((1, 2, 3), Feedback(3)), ((1, 3, 2), Feedback(3))]
        with pytest.raises(ContradictionError):
            basis_next(history, space)


class TestDecodeCandidates:
    def test_queried_code_prediction_matches(self, perm3):
        cfg, space = perm3
        basis_queries = [(1, 2, 3), (2, 3, 1)]
        h = (3, 1, 2)
        responses = [black(q, h) for q in basis_queries]
        pred_basis = _RationalBasis(9)
        for q, r in zip(basis_queries, responses):
            pred_basis.add(encode01(q, cfg), r)
        for q, r in zip(basis_queries, responses):
            assert pred_basis.predict(encode01(q, cfg)) == r

    def test_elimination_n1_k3(self):
        cfg = VariantConfig(1, 3, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace.enumerate(cfg)
        assert decode_candidates([(1,), (2,)], [0, 0], space) == (3,)

    def test_perm3_all_queries_decode_every_hidden(self, perm3):
        cfg, space = perm3
        queries = list(space)
        for h in space:
            responses = [black(q, h) for q in queries]
            assert decode_candidates(queries, responses, space) == h

    def test_black_white_space_filters_on_black_pegs(self):
        # responses are black counts; the space's table packs white pegs too
        cfg = VariantConfig(2, 3)
        space = CodeSpace.enumerate(cfg)
        queries = [(1, 2), (2, 3), (3, 1)]
        for h in space:
            responses = [black(q, h) for q in queries]
            consistent = [
                c for c in space
                if all(black(q, c) == r for q, r in zip(queries, responses))
            ]
            if len(consistent) == 1:
                assert decode_candidates(queries, responses, space) == h


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
        cfg, space = perm3
        s = SolutionSet.full(space)
        strategy = get_strategy("basis")
        h = space.decode(space.size - 1)
        history = []
        while not isinstance(expected := basis_next(history, space), Decoded):
            q = strategy.next_query(history, s)
            assert q == expected
            history.append((q, feedback(q, h, cfg)))
        assert len(history) >= 2
        # an earlier prefix is answered from the same list
        assert strategy.next_query(history[:1], s) == history[1][0]

    def test_basis_rejects_history_off_its_sequence(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        strategy = get_strategy("basis")
        first = strategy.next_query([], s)
        other = space.decode(space.size - 1)
        assert other != first
        with pytest.raises(ProtocolError):
            strategy.next_query([(other, Feedback(0))], s)

    def test_replay_matches_incremental_filter(self, perm3):
        cfg, space = perm3
        h = (2, 3, 1)
        turns = []
        s = SolutionSet.full(space)
        for q in [(1, 2, 3), (1, 3, 2)]:
            r = feedback(q, h, cfg)
            s = filter_consistent(s, q, r)
            turns.append((q, r))
        assert replay(space, turns).codes() == s.codes()
