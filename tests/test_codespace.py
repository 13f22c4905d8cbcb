import itertools
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querymind import _kernels, codespace
from querymind.codespace import (
    CodeSpace,
    Feedback,
    FeedbackMode,
    MemoMeter,
    Repeats,
    VariantConfig,
    check_table_memory,
    encode01,
    feedback,
    format_code,
    generator_bytes,
    orbit_labels,
    parse_code,
    root_queries,
    stabiliser_bytes,
)
from querymind.errors import CapacityError, DomainError, InvalidCodeError

from conftest import black, perm_config, white_bruteforce


def bw_config(n, k, repeats=Repeats.ALLOWED):
    return VariantConfig(n=n, k=k, feedback=FeedbackMode.BLACK_WHITE, repeats=repeats)


class TestVariantConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            VariantConfig(n=0, k=3)
        with pytest.raises(DomainError):
            VariantConfig(n=2, k=0)

    def test_forbidden_requires_k_ge_n(self):
        with pytest.raises(DomainError):
            VariantConfig(n=3, k=2, repeats=Repeats.FORBIDDEN)

    def test_space_size(self):
        assert VariantConfig(2, 3).space_size == 9
        assert VariantConfig(2, 3, repeats=Repeats.FORBIDDEN).space_size == 6

    def test_json_roundtrip(self):
        cfg = perm_config(4)
        assert VariantConfig.from_json(cfg.to_json()) == cfg


class TestFeedback:
    def test_identity(self):
        cfg = bw_config(3, 3)
        assert feedback((1, 2, 3), (1, 2, 3), cfg) == Feedback(3, 0)

    def test_cyclic_shift(self):
        cfg = bw_config(3, 3)
        assert feedback((1, 2, 3), (2, 3, 1), cfg) == Feedback(0, 3)

    def test_repeated_colors(self):
        # oracle: max over rearrangements of q, minus black
        cfg = bw_config(4, 3)
        q, h = (1, 1, 2, 2), (1, 2, 1, 3)
        expect_white = white_bruteforce(q, h)
        assert expect_white == 2
        assert feedback(q, h, cfg) == Feedback(1, 2)

    def test_black_only_has_no_white(self):
        cfg = VariantConfig(3, 3, feedback=FeedbackMode.BLACK_ONLY)
        fb = feedback((1, 2, 3), (1, 3, 2), cfg)
        assert fb.black == 1 and fb.white is None

    def test_rejects_invalid_codes(self):
        cfg = bw_config(3, 3)
        with pytest.raises(InvalidCodeError):
            feedback((1, 2), (1, 2, 3), cfg)
        with pytest.raises(InvalidCodeError):
            feedback((1, 2, 4), (1, 2, 3), cfg)

    @given(
        n=st.integers(1, 4),
        k=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_white_matches_rearrangement_oracle(self, n, k, data):
        cfg = bw_config(n, k)
        colors = st.integers(1, k)
        q = tuple(data.draw(st.lists(colors, min_size=n, max_size=n)))
        h = tuple(data.draw(st.lists(colors, min_size=n, max_size=n)))
        fb = feedback(q, h, cfg)
        assert fb.white == white_bruteforce(q, h)
        assert fb.black + fb.white <= n


class TestEnumerate:
    def test_single_code(self):
        space = CodeSpace.enumerate(VariantConfig(1, 1))
        assert space.size == 1 and space.decode(0) == (1,)

    def test_injective_count(self):
        space = CodeSpace.enumerate(VariantConfig(2, 3, repeats=Repeats.FORBIDDEN))
        assert space.size == 6

    def test_lexicographic_order(self):
        space = CodeSpace.enumerate(VariantConfig(2, 2))
        assert list(space) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_budget(self):
        with pytest.raises(CapacityError):
            CodeSpace.enumerate(VariantConfig(10, 10), budget=1000)

    @pytest.mark.parametrize(
        "cfg",
        [
            VariantConfig(3, 4),
            VariantConfig(3, 4, repeats=Repeats.FORBIDDEN),
            perm_config(5),
        ],
    )
    def test_encode_decode_bijection(self, cfg):
        space = CodeSpace.enumerate(cfg)
        for i in range(space.size):
            assert space.encode(space.decode(i)) == i
        assert space.rank(space.codes).tolist() == list(range(space.size))


def _symmetry_configs():
    for n, k in itertools.product(range(1, 5), range(1, 7)):
        for repeats in Repeats:
            if repeats is Repeats.FORBIDDEN and k < n:
                continue
            config = bw_config(n, k, repeats)
            if config.space_size <= 400:
                yield config


def _sample_codes(space):
    """Indices of the root queries and of the first, middle and last code."""
    roots = {space.encode(q) for q in root_queries(space.config)}
    return sorted(roots | {0, space.size // 2, space.size - 1})


class TestSymmetry:
    def test_knuth_root_queries(self):
        assert root_queries(bw_config(4, 6)) == [
            (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 2, 3), (1, 2, 3, 4)
        ]
        assert root_queries(perm_config(5)) == [(1, 2, 3, 4, 5)]
        assert root_queries(bw_config(3, 2)) == [(1, 1, 1), (1, 1, 2)]

    @pytest.mark.parametrize(
        "config", list(_symmetry_configs()), ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}"
    )
    def test_stabilisers_of_root_queries(self, config):
        # one root query per color-count pattern; every stabiliser row is a
        # bijection of the space that fixes the query and keeps black and
        # white pegs; stabiliser_bytes counts them before enumeration
        space = CodeSpace.enumerate(config)
        patterns = {tuple(sorted(map(c.count, set(c)))) for c in space}
        roots = root_queries(config)
        assert len(roots) == len(patterns)
        table = space.feedback_rows(np.arange(space.size))
        total = 0
        for q in roots:
            qi = space.encode(q)
            group = space.stabiliser(qi)
            total += group.nbytes
            assert group.dtype == np.int32 and (group[:, qi] == qi).all()
            assert (np.sort(group, axis=1) == np.arange(space.size)).all()
            for g in group:
                assert np.array_equal(table[np.ix_(g, g)], table)
        assert total == stabiliser_bytes(config)

    @pytest.mark.parametrize(
        "config", list(_symmetry_configs()), ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}"
    )
    def test_generators_are_symmetries_fixing_the_query(self, config):
        # every code's generators are bijections that fix it and keep black
        # and white pegs; codes share most generators, so each distinct one
        # is checked against the table once
        space = CodeSpace.enumerate(config)
        table = space.feedback_rows(np.arange(space.size))
        distinct = set()
        for qi in range(space.size):
            gens = space.generators(qi)
            assert gens.dtype == np.int32 and len(gens) < config.n + config.k
            assert gens.nbytes < generator_bytes(config)
            assert (np.sort(gens, axis=1) == np.arange(space.size)).all()
            assert (gens[:, qi] == qi).all()
            distinct.update(g.tobytes() for g in gens)
        for key in distinct:
            g = np.frombuffer(key, dtype=np.int32)
            assert np.array_equal(table[np.ix_(g, g)], table)

    @pytest.mark.parametrize(
        "config", list(_symmetry_configs()), ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}"
    )
    def test_generator_orbits_are_the_stabiliser_orbits(self, config):
        # the stabiliser's rows generate the whole group fixing q, so the
        # lowest code reached from each code through them labels its orbit
        space = CodeSpace.enumerate(config)
        for qi in _sample_codes(space):
            group = space.stabiliser(qi)
            want = np.arange(space.size)
            while True:
                lower = np.minimum(want, want[group].min(axis=0))
                if np.array_equal(lower, want):
                    break
                want = lower
            labels = orbit_labels(space.generators(qi))
            assert labels.tolist() == want.tolist()

    @pytest.mark.parametrize("shift", [1, -1])
    def test_orbit_labels_of_one_long_cycle(self, shift):
        # one orbit of 10_000 codes, whichever way round the cycle runs
        cycle = np.roll(np.arange(10_000), shift)[None, :]
        assert (orbit_labels(cycle) == 0).all()
        assert orbit_labels(np.empty((0, 3), dtype=np.int32)).tolist() == [0, 1, 2]

    def test_unused_colors_get_identity_and_transpositions(self):
        # (1, 13): 1 + 12*11/2 maps of the 12 unused colors, not 12!
        space = CodeSpace.enumerate(VariantConfig(1, 13))
        assert space.stabiliser(0).shape == (67, 13)
        assert stabiliser_bytes(VariantConfig(1, 13)) == 4 * 67 * 13


def _score_configs():
    for n, k in [(1, 1), (1, 4), (2, 1), (3, 1), (2, 3), (3, 3), (4, 3), (3, 4)]:
        for repeats in Repeats:
            for mode in FeedbackMode:
                if repeats is Repeats.ALLOWED or k >= n:
                    yield VariantConfig(n, k, feedback=mode, repeats=repeats)


def _stabiliser_by_rank(space, qi):
    """The stabiliser's rows by their definition: rank tau(x[sigma]) per
    symmetry, in the order CodeSpace.stabiliser lists them."""
    n, k = space.config.n, space.config.k
    q = space.decode(qi)
    free = [c for c in range(1, k + 1) if c not in q]
    rows = []
    for sigma in itertools.permutations(range(n)):
        forced = {}
        if not all(forced.setdefault(q[s], c) == c for s, c in zip(sigma, q)):
            continue
        for swap in [(), *itertools.combinations(free, 2)]:
            tau = np.arange(k + 1)
            tau[list(forced)] = list(forced.values())
            tau[list(swap)] = swap[::-1]
            rows.append(space.rank(tau[space.codes[:, sigma]]))
    return np.array(rows, dtype=np.int32)


class TestFeedbackRows:
    @pytest.mark.parametrize(
        "config",
        list(_score_configs()),
        ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}-{c.feedback.value}",
    )
    def test_full_space_scores_are_column_maxima(self, config):
        # the whole space is scored from one row per orbit (root_queries);
        # brute force counts every column of the scalar feedback table
        space = CodeSpace.enumerate(config)
        codes = list(space)
        table = [[space.fid_of(feedback(q, x, config)) for x in codes] for q in codes]
        want = [max(np.bincount(column)) for column in zip(*table)]
        scores = space.minimax_scores(np.arange(space.size))
        assert scores.dtype == np.int64 and scores.tolist() == want
        assert not scores.flags.writeable
        assert space.n_realised_fids == len({fid for row in table for fid in row})

    @pytest.mark.parametrize("config", [bw_config(3, 3), perm_config(4)])
    def test_query_column_is_the_row_over_indices(self, config):
        # the first ask below the root computes only the ids over indices,
        # the second the whole row, which is kept for at most n*k queries
        space = CodeSpace.enumerate(config)
        table = space.feedback_rows(np.arange(space.size))
        rng = np.random.default_rng(5)
        for qi in range(space.size):
            indices = rng.choice(space.size, size=space.size // 3, replace=False)
            for _ in range(2):
                column = space.query_column(qi, indices)
                assert column.dtype == np.int16
                assert column.tolist() == table[qi, indices].tolist()
            assert qi in space._query_rows
            assert len(space._query_rows) <= config.n * config.k
        assert space.query_column(0, np.arange(space.size)).tolist() == table[0].tolist()

    @pytest.mark.parametrize(
        "config",
        [bw_config(3, 3), bw_config(3, 3, Repeats.FORBIDDEN), perm_config(5),
         VariantConfig(1, 6), bw_config(2, 4)],
        ids=["3-3", "3-3-norep", "perm5", "1-6", "2-4"],
    )
    def test_stabiliser_rows_equal_rank_of_each_symmetry(self, config):
        space = CodeSpace.enumerate(config)
        for qi in {0, space.size // 2, space.size - 1}:
            assert np.array_equal(space.stabiliser(qi), _stabiliser_by_rank(space, qi))


class TestEncode01:
    def test_direct(self):
        cfg = VariantConfig(2, 2)
        assert encode01((1, 2), cfg).tolist() == [1, 0, 0, 1]

    def test_self_dot_is_n(self):
        cfg = VariantConfig(3, 4)
        v = encode01((2, 4, 1), cfg)
        assert int(v @ v) == 3

    def test_dot_equals_black(self):
        cfg = VariantConfig(3, 3)
        a = encode01((1, 2, 3), cfg)
        b = encode01((1, 3, 2), cfg)
        assert int(a @ b) == 1 == black((1, 2, 3), (1, 3, 2))

    def test_dot_identity_sampled(self):
        rng = random.Random(7)
        for cfg in (bw_config(4, 3), perm_config(4)):
            space = CodeSpace.enumerate(cfg)
            for _ in range(1000):
                q = space.decode(rng.randrange(space.size))
                h = space.decode(rng.randrange(space.size))
                dot = int(encode01(q, cfg) @ encode01(h, cfg))
                assert dot == feedback(q, h, cfg).black


class TestPermutationResponseGap:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_no_black_n_minus_1(self, n):
        space = CodeSpace.enumerate(perm_config(n))
        assert not np.any(space.feedback_rows(np.arange(space.size)) == n - 1)


class TestSplit:
    @pytest.mark.parametrize("config", [bw_config(3, 3), perm_config(4)])
    def test_buckets_match_scalar_feedback(self, config):
        space = CodeSpace.enumerate(config)
        indices = np.arange(0, space.size, 2, dtype=np.int64)
        for qi in range(space.size):
            q = space.decode(qi)
            buckets = space.split(qi, indices)
            fids = [space.fid_of(r) for r, _ in buckets]
            assert fids == sorted(set(fids))
            for r, bucket in buckets:
                assert bucket.size > 0
                assert np.all(np.diff(bucket) > 0)
                assert all(feedback(q, space.decode(int(i)), config) == r for i in bucket)
            assert sorted(np.concatenate([b for _, b in buckets])) == list(indices)

    def test_empty_indices_give_no_buckets(self):
        space = CodeSpace.enumerate(perm_config(3))
        assert space.split(0, np.arange(0, dtype=np.int64)) == []

    def test_minimax_scores_are_largest_buckets(self):
        space = CodeSpace.enumerate(bw_config(3, 3))
        indices = np.arange(1, space.size, 3, dtype=np.int64)
        expected = [
            max(len(b) for _, b in space.split(qi, indices)) for qi in range(space.size)
        ]
        assert space.minimax_scores(indices).tolist() == expected

    def test_minimax_scores_of_empty_indices_are_zero(self):
        space = CodeSpace.enumerate(VariantConfig(2, 2))
        scores = space.minimax_scores(np.arange(0, dtype=np.int64))
        assert scores.dtype == np.int64
        assert scores.tolist() == [0] * space.size

    def test_packed_ids_fit_int16_or_capacity(self):
        # (180, 1) black+white has 181**2 ids, the most an int16 table holds
        space = CodeSpace.enumerate(VariantConfig(180, 1))
        assert space.fid_of(Feedback(180, 0)) == 32580
        assert space.feedback_rows(np.arange(space.size)).tolist() == [[32580]]
        black_only = CodeSpace.enumerate(
            VariantConfig(32767, 1, feedback=FeedbackMode.BLACK_ONLY)
        )
        assert black_only.feedback_rows(np.arange(black_only.size)).tolist() == [[32767]]
        for config in (
            VariantConfig(181, 1),
            VariantConfig(32768, 1, feedback=FeedbackMode.BLACK_ONLY),
        ):
            big = CodeSpace.enumerate(config)
            with pytest.raises(CapacityError):
                big.feedback_rows(np.arange(big.size))

    def test_table_beyond_physical_memory_is_capacity(self):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        size = math.isqrt(physical // 2) + 1  # size**2 int16 cells > physical
        config = VariantConfig(1, 2, feedback=FeedbackMode.BLACK_ONLY)
        space = CodeSpace(config, np.ones((size, 1), dtype=np.int16))
        with pytest.raises(CapacityError):
            space.feedback_rows(np.arange(space.size))

    def test_memo_meter_reads_physical_memory_once(self, monkeypatch):
        # 4096 bytes at share 1/4: eight 8-byte keys fit (8 * 128 bytes), a ninth does not
        reads = []
        monkeypatch.setattr(codespace, "_physical_memory", lambda: reads.append(1) or 4096)
        meter = MemoMeter()
        for _ in range(8):
            meter.add(8)
        with pytest.raises(CapacityError, match="memo of 9 failed solution sets"):
            meter.add(8)
        assert len(reads) == 1

    def test_kernel_features_count_against_physical_memory(self, monkeypatch):
        # the black-peg rows of 3 queries over the 8**6 codes of (6, 8) take
        # 1.5 MB, the float32 features the kernel builds for them 50 MB:
        # 16 MiB of physical memory holds the rows but not the features
        space = CodeSpace.enumerate(VariantConfig(6, 8, feedback=FeedbackMode.BLACK_ONLY))
        pages = {"SC_PHYS_PAGES": 4096, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr("querymind.codespace.os.sysconf", pages.__getitem__)

        def refuse(*args):
            raise AssertionError("allocated rows that do not fit with their features")

        monkeypatch.setattr(_kernels, "feedback_ids", refuse)
        with pytest.raises(CapacityError, match="bytes of kernel features"):
            space.black_rows([0, 1, 2])


    @pytest.mark.parametrize(
        "config,rows",
        [
            (VariantConfig(6, 8, feedback=FeedbackMode.BLACK_ONLY), [0, 1, 2]),
            (VariantConfig(4, 6), None),
            (VariantConfig(5, 5), None),
        ],
        ids=["6-8-b-black-rows", "4-6-bw-table", "5-5-bw-table"],
    )
    def test_check_counts_every_kernel_transient(self, config, rows, monkeypatch):
        # the one-hot, threshold and scaled arrays of the features and the
        # product buffer are live at the kernel's peak: physical memory one
        # byte below the traced peak must be refused
        space = CodeSpace.enumerate(config)
        tracemalloc.start()
        try:
            space.feedback_rows(np.arange(space.size)) if rows is None else space.black_rows(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pages = {"SC_PHYS_PAGES": peak - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr("querymind.codespace.os.sysconf", pages.__getitem__)
        n_rows = space.size if rows is None else len(rows)
        with pytest.raises(CapacityError):
            check_table_memory(config, n_rows, space.size)

def test_code_serialization_roundtrip():
    assert parse_code("1,2,3") == (1, 2, 3)
    assert format_code((4, 5)) == "4,5"
    with pytest.raises(InvalidCodeError):
        parse_code("1,x")
