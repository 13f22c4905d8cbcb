import pytest

from querymind.codespace import CodeSpace, Feedback, FeedbackMode, VariantConfig, feedback
from querymind.engine import (
    CONTRADICTION,
    DETERMINED,
    EXHAUSTED,
    adversary_feedback,
    default_turn_budget,
    exact_game_value,
    play_adversarial,
    play_honest,
    worst_case_queries,
)
import numpy as np

from querymind.errors import DomainError
from querymind.strategies import SolutionSet, filter_consistent, get_strategy

from conftest import perm_config


@pytest.fixture(scope="module")
def perm3():
    cfg = perm_config(3)
    return cfg, CodeSpace.enumerate(cfg)


class TestPlayHonest:
    def test_trivial_space_zero_turns(self):
        cfg = VariantConfig(1, 1)
        t = play_honest(get_strategy("first-consistent"), (1,), cfg)
        assert t.outcome == DETERMINED
        assert t.solution == (1,)
        assert t.turns == ()

    def test_perm2_one_turn(self):
        cfg = perm_config(2)
        t = play_honest(get_strategy("first-consistent"), (2, 1), cfg)
        assert t.outcome == DETERMINED
        assert t.solution == (2, 1)
        assert len(t.turns) == 1
        assert t.turns[0] == ((1, 2), Feedback(0))

    def test_trace_sizes_non_increasing(self, perm3):
        cfg, space = perm3
        for name in ("minimax", "basis", "first-consistent"):
            for h in space:
                t = play_honest(get_strategy(name), h, cfg)
                assert t.outcome == DETERMINED
                assert t.solution == h
                sizes = t.sizes
                assert sizes[0] == 6 and sizes[-1] == 1
                assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_turn_budget_exhaustion(self, perm3):
        cfg, space = perm3
        t = play_honest(get_strategy("first-consistent"), (3, 1, 2), cfg, turn_budget=1)
        assert t.outcome == EXHAUSTED
        assert t.solution is None

    def test_invalid_hidden_code(self):
        cfg = perm_config(3)
        with pytest.raises(Exception):
            play_honest(get_strategy("minimax"), (1, 1, 2), cfg)

    def test_default_budget(self):
        assert default_turn_budget(VariantConfig(4, 6)) == 25


class TestAdversary:
    def test_max_response_only_on_forced_singleton(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        while len(s) > 1:
            q = get_strategy("minimax").next_query([], s)
            fb, s = adversary_feedback(s, q, cfg)
            assert fb.black < 3

    def test_keeps_largest_bucket(self, perm3):
        cfg, space = perm3
        s = SolutionSet.full(space)
        q = (1, 2, 3)
        fb, kept = adversary_feedback(s, q, cfg)
        for b in range(4):
            assert len(filter_consistent(s, q, Feedback(b))) <= len(kept)

    def test_perm3_trace(self, perm3):
        cfg, space = perm3
        t = play_adversarial(get_strategy("minimax"), cfg, turn_budget=6)
        sizes = t.sizes
        assert sizes[0] == 6
        assert t.outcome in (DETERMINED, EXHAUSTED)
        if t.outcome == DETERMINED:
            assert sizes[-1] == 1
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_adversary_at_least_as_hard_as_honest(self, perm3):
        cfg, space = perm3
        wc = worst_case_queries(get_strategy("minimax"), cfg)
        t = play_adversarial(get_strategy("minimax"), cfg, turn_budget=10)
        assert t.outcome == DETERMINED
        assert len(t.turns) >= wc.max_queries

    def test_empty_set_rejected(self, perm3):
        cfg, space = perm3
        with pytest.raises(DomainError):
            adversary_feedback(SolutionSet(space, []), (1, 2, 3), cfg)

    @pytest.mark.parametrize("name", ["minimax", "first-consistent", "basis"])
    @pytest.mark.parametrize(
        "cfg", [perm_config(4), VariantConfig(3, 3)], ids=["perm4-b", "3-3-bw"]
    )
    def test_honest_play_against_adversary_solution_repeats_turns(self, cfg, name):
        space = CodeSpace.enumerate(cfg)
        adv = play_adversarial(get_strategy(name), cfg, space=space)
        assert adv.outcome == DETERMINED
        honest = play_honest(get_strategy(name), adv.solution, cfg, space=space)
        assert honest.turns == adv.turns
        assert honest.sizes == adv.sizes


class TestWorstCase:
    def test_perm2_first_consistent(self):
        cfg = perm_config(2)
        wc = worst_case_queries(get_strategy("first-consistent"), cfg)
        assert wc.max_queries == 1
        assert wc.max_turns_to_win == 2
        assert wc.histogram == {1: 2}
        assert wc.histogram_win == {1: 1, 2: 1}

    def test_tree_walk_matches_honest_play(self, perm3):
        cfg, space = perm3
        for name in ("minimax", "basis"):
            wc = worst_case_queries(get_strategy(name), cfg)
            for idx, h in enumerate(space):
                t = play_honest(get_strategy(name), h, cfg)
                assert t.outcome == DETERMINED
                assert wc.per_code[idx] == len(t.turns)

    def test_win_count_vs_determination(self, perm3):
        cfg, space = perm3
        wc = worst_case_queries(get_strategy("minimax"), cfg)
        for d, w in zip(wc.per_code, wc.per_code_win):
            assert w in (d, d + 1)
        assert sum(wc.histogram.values()) == 6
        assert sum(wc.histogram_win.values()) == 6

    def test_threads_agree(self, perm3):
        cfg, space = perm3
        a = worst_case_queries(get_strategy("minimax"), cfg)
        b = worst_case_queries(get_strategy("minimax"), cfg, threads=2)
        assert np.array_equal(a.per_code, b.per_code)
        assert np.array_equal(a.per_code_win, b.per_code_win)


class TestExactGameValue:
    def test_singleton_space(self):
        cfg = VariantConfig(1, 1)
        r = exact_game_value(cfg)
        assert r.value == 0 and not r.capped

    def test_perm2(self):
        r = exact_game_value(perm_config(2))
        assert r.value == 1 and not r.capped

    def test_perm3(self):
        r = exact_game_value(perm_config(3))
        assert r.value == 3 and not r.capped

    def test_never_beats_information_floor(self):
        cfg = VariantConfig(2, 3)
        space = CodeSpace.enumerate(cfg)
        r = exact_game_value(cfg)
        assert space.n_fids ** r.value >= len(space.codes)

    def test_upper_bounded_by_minimax_sweep(self):
        cfg = perm_config(4)
        r = exact_game_value(cfg)
        wc = worst_case_queries(get_strategy("minimax"), cfg)
        assert r.value <= wc.max_queries
