import functools
import itertools
import tracemalloc
import weakref

import pytest

from querymind.codespace import (
    CodeSpace,
    Feedback,
    FeedbackMode,
    Repeats,
    Symmetries,
    VariantConfig,
    feedback,
)
from querymind.engine import (
    DETERMINED,
    EXHAUSTED,
    ExactGameValue,
    adversary_feedback,
    default_turn_budget,
    exact_game_value,
    play_adversarial,
    play_honest,
    worst_case_queries,
)
import numpy as np

from querymind import _kernels, codespace
from querymind.errors import CapacityError, DomainError, ProtocolError
from querymind.strategies import (
    STRATEGY_NAMES,
    SolutionSet,
    Strategy,
    filter_consistent,
    get_strategy,
)

from conftest import perm_config


@pytest.fixture(scope="module")
def perm3():
    return CodeSpace.enumerate(perm_config(3))


class TestPlayHonest:
    def test_trivial_space_zero_turns(self):
        space = CodeSpace.enumerate(VariantConfig(1, 1))
        t = play_honest(get_strategy("first-consistent"), (1,), space)
        assert t.outcome == DETERMINED
        assert t.solution == (1,)
        assert t.turns == ()

    def test_perm2_one_turn(self):
        space = CodeSpace.enumerate(perm_config(2))
        t = play_honest(get_strategy("first-consistent"), (2, 1), space)
        assert t.outcome == DETERMINED
        assert t.solution == (2, 1)
        assert len(t.turns) == 1
        assert t.turns[0] == ((1, 2), Feedback(0))

    def test_trace_sizes_non_increasing(self, perm3):
        space = perm3
        for name in ("minimax", "basis", "first-consistent"):
            for h in space:
                t = play_honest(get_strategy(name), h, space)
                assert t.outcome == DETERMINED
                assert t.solution == h
                sizes = t.sizes
                assert sizes[0] == 6 and sizes[-1] == 1
                assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_turn_budget_exhaustion(self, perm3):
        space = perm3
        t = play_honest(get_strategy("first-consistent"), (3, 1, 2), space, turn_budget=1)
        assert t.outcome == EXHAUSTED
        assert t.solution is None

    def test_zero_budget_plays_no_turn(self, perm3):
        # the same budget domain as worst_case_queries: 0 plays nothing
        t = play_honest(get_strategy("minimax"), (3, 1, 2), perm3, turn_budget=0)
        assert (t.outcome, t.turns, t.solution, t.sizes) == (EXHAUSTED, (), None, (6,))
        t = play_adversarial(get_strategy("minimax"), perm3, turn_budget=0)
        assert (t.outcome, t.turns, t.sizes) == (EXHAUSTED, (), (6,))
        one = CodeSpace.enumerate(VariantConfig(1, 1))
        t = play_honest(get_strategy("minimax"), (1,), one, turn_budget=0)
        assert (t.outcome, t.solution, t.sizes) == (DETERMINED, (1,), (1,))
        with pytest.raises(DomainError, match="turn budget must be >= 0"):
            play_honest(get_strategy("minimax"), (3, 1, 2), perm3, turn_budget=-1)

    def test_invalid_hidden_code(self, perm3):
        space = perm3
        with pytest.raises(Exception):
            play_honest(get_strategy("minimax"), (1, 1, 2), space)

    def test_default_budget(self):
        assert default_turn_budget(VariantConfig(4, 6)) == 25


class TestAdversary:
    def test_max_response_only_on_forced_singleton(self, perm3):
        space = perm3
        s = SolutionSet.full(space)
        while len(s) > 1:
            q = get_strategy("minimax").next_query([], s)
            fb, s = adversary_feedback(s, q)
            assert fb.black < 3

    def test_keeps_largest_bucket(self, perm3):
        space = perm3
        s = SolutionSet.full(space)
        q = (1, 2, 3)
        fb, kept = adversary_feedback(s, q)
        for b in range(4):
            assert len(filter_consistent(s, q, Feedback(b))) <= len(kept)

    def test_perm3_trace(self, perm3):
        space = perm3
        t = play_adversarial(get_strategy("minimax"), space, turn_budget=6)
        sizes = t.sizes
        assert sizes[0] == 6
        assert t.outcome in (DETERMINED, EXHAUSTED)
        if t.outcome == DETERMINED:
            assert sizes[-1] == 1
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_adversary_at_least_as_hard_as_honest(self, perm3):
        space = perm3
        wc = worst_case_queries(get_strategy("minimax"), space)
        t = play_adversarial(get_strategy("minimax"), space, turn_budget=10)
        assert t.outcome == DETERMINED
        assert len(t.turns) >= wc.max_queries

    def test_empty_set_rejected(self, perm3):
        space = perm3
        with pytest.raises(DomainError):
            adversary_feedback(SolutionSet(space, []), (1, 2, 3))

    @pytest.mark.parametrize("name", ["minimax", "first-consistent", "basis"])
    @pytest.mark.parametrize(
        "cfg", [perm_config(4), VariantConfig(3, 3)], ids=["perm4-b", "3-3-bw"]
    )
    def test_honest_play_against_adversary_solution_repeats_turns(self, cfg, name):
        space = CodeSpace.enumerate(cfg)
        adv = play_adversarial(get_strategy(name), space)
        assert adv.outcome == DETERMINED
        honest = play_honest(get_strategy(name), adv.solution, space)
        assert honest.turns == adv.turns
        assert honest.sizes == adv.sizes


class TestWorstCase:
    def test_perm2_first_consistent(self):
        space = CodeSpace.enumerate(perm_config(2))
        wc = worst_case_queries(get_strategy("first-consistent"), space)
        assert wc.max_queries == 1
        assert wc.max_turns_to_win == 2
        assert wc.histogram == {1: 2}
        assert wc.histogram_win == {1: 1, 2: 1}

    def test_tree_walk_matches_honest_play(self, spaces):
        configs = (perm_config(3), perm_config(4), VariantConfig(3, 3))
        for config, name in itertools.product(configs, STRATEGY_NAMES):
            space = spaces(config)
            wc = worst_case_queries(get_strategy(name), space)
            for idx, h in enumerate(space):
                t = play_honest(get_strategy(name), h, space)
                assert t.outcome == DETERMINED
                queried = any(q == h for q, _ in t.turns) or not t.turns
                assert wc.per_code[idx] == len(t.turns), (config, name, h)
                assert wc.per_code_win[idx] == len(t.turns) + (not queried), (config, name, h)

    def test_win_count_vs_determination(self, perm3):
        space = perm3
        wc = worst_case_queries(get_strategy("minimax"), space)
        for d, w in zip(wc.per_code, wc.per_code_win):
            assert w in (d, d + 1)
        assert sum(wc.histogram.values()) == 6
        assert sum(wc.histogram_win.values()) == 6

    def test_zero_budget_and_invalid_root_query(self, perm3):
        # the root is checked like every other node: budget first, then the
        # strategy's query
        space = perm3

        class Bad(Strategy):
            name = "bad"

            def next_query(self, history, s):
                return (9, 9, 9)

        zero = worst_case_queries(get_strategy("minimax"), space, turn_budget=0)
        assert zero.histogram == {}
        assert len(zero.exhausted) == space.size
        with pytest.raises(ProtocolError):
            worst_case_queries(Bad(), space)

    def test_negative_budget_rejected(self, perm3):
        with pytest.raises(DomainError, match="turn budget must be >= 0"):
            worst_case_queries(get_strategy("minimax"), perm3, turn_budget=-1)


class RowMeter:
    """Records every block of feedback rows that CodeSpace.feedback_rows
    computes (calls counts them) or the bucket-counting kernel reads, so a
    copy of rows is seen when it is scored, and the most rows alive at
    once. A block against fewer codes than the space counts by its cells,
    in rows of the whole space; largest_bytes is the largest block's
    bytes."""

    def __init__(self, monkeypatch, size):
        self.size = size
        self.live = []  # weak references to the recorded blocks
        self.most_live = 0
        self.largest = 0
        self.largest_bytes = 0
        self.calls = 0
        computed, counted = CodeSpace.feedback_rows, _kernels.column_max_buckets

        def feedback_rows(space, *args):
            self.calls += 1
            return self.record(computed(space, *args))

        def column_max_buckets(table, *args):
            return counted(self.record(table), *args)

        monkeypatch.setattr(CodeSpace, "feedback_rows", feedback_rows)
        monkeypatch.setattr(_kernels, "column_max_buckets", column_max_buckets)

    def record(self, block):
        self.live = [ref for ref in self.live if ref() is not None]
        if all(ref() is not block for ref in self.live):
            self.live.append(weakref.ref(block))
            self.largest = max(self.largest, block.size / self.size)
            self.largest_bytes = max(self.largest_bytes, block.nbytes)
            self.most_live = max(self.most_live, sum(ref().size for ref in self.live) / self.size)
        return block


def _sweep_cells(config, monkeypatch):
    """The minimax sweep of config, every bucket-counting cell it reads,
    its bucket-counting calls, and the groups whose orbits it labels."""
    cells, labelled = [], []
    counted, labels = _kernels.column_max_buckets, Symmetries.labels.func

    def count(table, rows, n_fids, cols=None):
        n_rows = len(table) if rows is None else len(rows)
        cells.append(n_rows * (table.shape[1] if cols is None else len(cols)))
        return counted(table, rows, n_fids, cols)

    def label(group):
        labelled.append(None)
        return labels(group)

    labelling = functools.cached_property(label)
    labelling.__set_name__(Symmetries, "labels")
    monkeypatch.setattr(_kernels, "column_max_buckets", count)
    monkeypatch.setattr(Symmetries, "labels", labelling)
    result = worst_case_queries(get_strategy("minimax"), CodeSpace.enumerate(config))
    return result, sum(cells), len(cells), len(labelled)


class TestRowBlocks:
    """Games and sweeps hold feedback rows of solution sets, never the
    size x size table."""

    @pytest.fixture(scope="class")
    def perm6(self):
        return CodeSpace.enumerate(perm_config(6))

    def test_games_compute_no_table(self, perm6, monkeypatch):
        meter = RowMeter(monkeypatch, perm6.size)
        for idx in (0, 359, 719):
            t = play_honest(get_strategy("minimax"), perm6.decode(idx), perm6)
            assert t.solution == perm6.decode(idx)
        assert play_adversarial(get_strategy("minimax"), perm6).outcome == DETERMINED
        # the first bucket, the 265 derangements of 6, is scored from its
        # ids against one query per conjugacy class; every later set fits in
        # one kernel block and builds its rows whatever symmetries it keeps,
        # so the largest block is the 96 codes an honest game leaves after
        # its second answer (30 rows when a game scored every set with
        # symmetries left against one query per orbit, 90 when generator
        # rows gave the second set no symmetry, 265 before orbit scoring)
        assert meter.largest == 96
        # the sets below it view that block and copy nothing: beside it only
        # two rows of single queries stay, which CodeSpace.query_column keeps
        assert meter.most_live <= meter.largest + 2

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_sweep_live_rows_stay_within_the_space(self, perm6, monkeypatch, name):
        meter = RowMeter(monkeypatch, perm6.size)
        if name != "minimax":
            # strategies that never score never compute symmetries either
            def refuse(*args):
                raise AssertionError("computed symmetries")

            monkeypatch.setattr(codespace, "_fix", refuse)
            monkeypatch.setattr(Symmetries, "labels", property(refuse))
        worst_case_queries(get_strategy(name), perm6)
        assert meter.most_live <= perm6.size
        if name != "minimax":
            # strategies that never score compute single query rows
            assert meter.largest <= 1

    @pytest.mark.parametrize(
        "config", [VariantConfig(2, 8), VariantConfig(1, 40)], ids=["2-8-bw", "1-40-bw"]
    )
    def test_sweep_rows_within_two_tables(self, config, monkeypatch):
        # the first query's largest bucket is over half the space; the sets
        # below it view its rows and never copy them, so the sweep stays
        # within the one table worst-case checks for
        space = CodeSpace.enumerate(config)
        meter = RowMeter(monkeypatch, space.size)
        worst_case_queries(get_strategy("minimax"), space)
        assert meter.most_live <= space.size

    def test_orbit_scoring_reads_fewer_cells(self, perm6, monkeypatch):
        # every bucket-counting cell the perm-6 sweep reads: 2_079_360 when
        # every set below the root was scored against all 720 queries,
        # 913_871 with one query per orbit of the groups that generator rows
        # fixing the later queries generated, 645_615 with the orbits of
        # (a subgroup of) the whole pointwise stabiliser, labelling 45
        # groups; 1_391_685 once a sweep set of at most BLOCK_ROWS codes
        # scored every column of its block and labelled nothing, so only the
        # whole space's group and that of the first query's buckets of 265
        # and 264 codes are labelled; 1_350_203 now that those two buckets
        # are scored from their ids against one query per orbit, not from
        # columns of their own blocks
        result, cells, _, labelled = _sweep_cells(perm6.config, monkeypatch)
        assert result.max_queries == 6
        assert cells <= 1_350_203
        assert labelled <= 2

    def test_perm7_sweep_reads_fewer_cells(self, monkeypatch):
        # 70_705_931 cells with the generator rows' orbits, 48_193_657 in
        # 2838 calls labelling 229 groups with every walk set's orbits;
        # small sets then traded cells for labels (69_842_684 cells, 5
        # groups) and two-code sets were answered unscored (1901 calls); a
        # set of more than BLOCK_ROWS codes with symmetries left is now
        # scored from its ids against one query per orbit, building no
        # block (66_937_536 cells in 1836 calls, still 5 groups)
        meter = RowMeter(monkeypatch, 5040)
        result, cells, calls, labelled = _sweep_cells(perm_config(7), monkeypatch)
        assert result.max_queries == 7
        assert cells <= 66_937_536
        assert calls <= 1836
        assert labelled <= 5
        # the largest block is 240 x 5040 ids of one byte each, not the
        # first query's largest bucket's 1855 x 5040
        assert meter.largest_bytes <= 240 * 5040

    def test_no_allocation_near_the_table(self, perm6):
        # the old table alone took size**2 int16; a minimax game now peaks
        # at one block, its slice and the kernel's float32 product buffer,
        # at most PRODUCT_CELLS cells and never more rows than the block
        table_bytes = 2 * perm6.size**2
        space = CodeSpace.enumerate(perm6.config)
        tracemalloc.start()
        try:
            play_adversarial(get_strategy("minimax"), space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes + 4 * 256 * perm6.size


class TestExactGameValue:
    def test_singleton_space(self):
        r = exact_game_value(CodeSpace.enumerate(VariantConfig(1, 1)))
        assert r.value == 0 and not r.capped

    # expected values come from an earlier solver with other pruning and
    # another query order
    @pytest.mark.parametrize(
        "n,cap,expected",
        [(2, None, (1, False)), (3, None, (3, False)), (4, None, (4, False)),
         (4, 2, (2, True)), (4, 4, (4, False))],
        ids=["perm2", "perm3", "perm4", "perm4-cap2", "perm4-cap4"],
    )
    def test_perm_value(self, n, cap, expected):
        space = CodeSpace.enumerate(perm_config(n))
        assert exact_game_value(space, depth_cap=cap) == ExactGameValue(*expected)

    def test_depth_cap_below_zero_rejected(self, perm3):
        with pytest.raises(DomainError, match="depth cap must be >= 0"):
            exact_game_value(perm3, depth_cap=-1)
        assert exact_game_value(perm3, depth_cap=0) == ExactGameValue(0, True)

    def test_never_beats_information_floor(self):
        space = CodeSpace.enumerate(VariantConfig(2, 3))
        r = exact_game_value(space)
        assert space.n_fids ** r.value >= len(space.codes)

    def test_upper_bounded_by_minimax_sweep(self):
        space = CodeSpace.enumerate(perm_config(4))
        r = exact_game_value(space)
        wc = worst_case_queries(get_strategy("minimax"), space)
        assert r.value <= wc.max_queries

    def test_perm6(self):
        # the minimax sweep reaches 6 too, so the value is not higher
        space = CodeSpace.enumerate(perm_config(6))
        assert exact_game_value(space) == ExactGameValue(6, False)

    @pytest.mark.parametrize(
        "config, value, calls",
        [(VariantConfig(3, 4, feedback=FeedbackMode.BLACK_ONLY), 5, 6), (perm_config(6), 6, 21)],
        ids=["3-4-b", "perm6"],
    )
    def test_solver_rows_within_one_table(self, config, value, calls, monkeypatch):
        # a set computes one block when it is scored and holds it, or, if
        # it is large and keeps symmetries, when it is split a second time,
        # and every node below it views that block; the solver holds rows
        # of nested and disjoint sets along its path within one table
        # (perm-6: 356 rows at most, 720 when every bucket of the whole
        # space held its block), plus the whole rows of single queries that
        # CodeSpace.query_column keeps (at most n*k)
        space = CodeSpace.enumerate(config)
        meter = RowMeter(monkeypatch, space.size)
        assert exact_game_value(space) == ExactGameValue(value, False)
        assert meter.most_live <= space.size + config.n * config.k
        # kernel calls: the root rows, query rows, one block per set scored
        # without a view (for perm-6's first buckets of 265 and 264 codes,
        # their ids against one query per orbit instead) and one per large
        # bucket split a second time: 21 on perm-6, as a query's second ask
        # no longer computes its row again (8 when every bucket of the whole
        # space computed its block when it was scored); not one per node or
        # per representative set. On (3,4) b the symmetries of the Hamming
        # graph leave the root one orbit: one root row (code 0's, where each
        # of 3 color-count patterns had one), one query row (code 0's, where
        # 3 root queries were tried), the block of its 27-code bucket at
        # each of depths 3, 4 and 5, and one 9-code block: 6, where it was 10
        assert meter.calls == calls

    @pytest.mark.parametrize(
        "n, k, value",
        [(4, 4, 5), (5, 4, 6)],
        ids=["4-4", "5-4"],
    )
    def test_repeated_partition_values(self, n, k, value):
        # black-peg spaces with repeats, where many queries split a set as
        # an earlier query did (on (5,4), 5203 of 6869 tries); each such
        # query is searched again and the memo answers its failing bucket,
        # so the values stay those of a search that skipped it
        space = CodeSpace.enumerate(VariantConfig(n, k, feedback=FeedbackMode.BLACK_ONLY))
        assert exact_game_value(space) == ExactGameValue(value, False)

    @pytest.mark.parametrize("n, k, value", [(4, 5, 7), (4, 6, 8)], ids=["4-5", "4-6"])
    def test_hamming_symmetries_reach(self, n, k, value):
        # black pegs with repeats, pruned by the symmetries of the Hamming
        # graph that fix the queries played: the root tries code 0 alone;
        # the minimax sweeps bound these from above at 8 and 9
        space = CodeSpace.enumerate(VariantConfig(n, k, feedback=FeedbackMode.BLACK_ONLY))
        assert exact_game_value(space) == ExactGameValue(value, False)

    def test_memo_over_budget_is_capacity(self, monkeypatch):
        # perm-4 fails at depth 3 before it passes at 4, so it stores a set
        monkeypatch.setattr(codespace, "MEMO_MEMORY_SHARE", 1e-12)
        with pytest.raises(CapacityError, match="memo"):
            exact_game_value(CodeSpace.enumerate(perm_config(4)))


def brute_force_value(space: CodeSpace) -> int:
    """Reference f: the plain minimax recursion over every informative
    query, memoized on the frozenset of the solution set, with no pruning,
    no query order and feedback from the scalar definition."""
    codes = list(space)
    rows = [[feedback(q, h, space.config) for h in codes] for q in codes]

    @functools.cache
    def value(s: frozenset) -> int:
        if len(s) == 1:
            return 0
        best = None
        for row in rows:
            buckets: dict = {}
            for i in s:
                buckets.setdefault(row[i], []).append(i)
            if len(buckets) > 1:
                v = 1 + max(value(frozenset(b)) for b in buckets.values())
                best = v if best is None else min(best, v)
        return best

    return value(frozenset(range(len(codes))))


def _small_configs():
    for n in range(1, 5):
        # with n = 1 the recursion visits every subset: 2**k sets
        for k in range(1, 9 if n == 1 else 28):
            for mode in FeedbackMode:
                for repeats in Repeats:
                    if repeats is Repeats.FORBIDDEN and k < n:
                        continue
                    cfg = VariantConfig(n, k, feedback=mode, repeats=repeats)
                    if cfg.space_size <= 27:
                        yield cfg


@pytest.mark.parametrize(
    "cfg",
    list(_small_configs()),
    ids=lambda c: f"{c.n}-{c.k}-{c.feedback.value}-{c.repeats.value}",
)
def test_exact_value_matches_brute_force(cfg):
    space = CodeSpace.enumerate(cfg)
    assert exact_game_value(space) == ExactGameValue(brute_force_value(space), False)
