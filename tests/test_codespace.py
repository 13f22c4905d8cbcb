import dataclasses
import itertools
import math
import random
import tracemalloc
import weakref

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
    Symmetries,
    orbit_labels,
    parse_code,
    symmetry_bytes,
)
from querymind.errors import CapacityError, DomainError, InvalidCodeError
from querymind.strategies import SolutionSet

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


def _small_configs():
    """Every space of at most 64 codes and at most 6 colors."""
    for n, k in itertools.product(range(1, 7), range(2, 7)):
        for repeats in Repeats:
            if repeats is Repeats.ALLOWED or k >= n:
                config = bw_config(n, k, repeats)
                if config.space_size <= 64:
                    yield config


def _sample_codes(space):
    """Indices of the lowest code of each orbit of every symmetry (one per
    color-count pattern) and of the first, middle and last code."""
    labels = _labels(Symmetries(space), space.size)
    roots = set(np.flatnonzero(labels == np.arange(space.size)).tolist())
    return sorted(roots | {0, space.size // 2, space.size - 1})


def _group_table(config):
    """Every symmetry (sigma, tau) in S_n x S_k as an index permutation of
    the space, by brute force: row g maps code x to g[x]."""
    space = CodeSpace.enumerate(config)
    taus = np.array([(0, *p) for p in itertools.permutations(range(1, config.k + 1))])
    rows = []
    for sigma in itertools.permutations(range(config.n)):
        images = taus[:, space.codes[:, list(sigma)]].reshape(-1, config.n)
        rows.append(space.rank(images).reshape(len(taus), space.size).astype(np.int16))
    return np.concatenate(rows)


def _hamming_fixing(space, qi):
    """Every symmetry g(x)[i] = tau_i(x[sigma(i)]) of the Hamming graph,
    in (S_k)^n x| S_n, that fixes the code at qi, as an index permutation
    of the space (row g maps code x to g[x]), by brute force: g fixes q iff
    tau_i(q[sigma(i)]) = q[i] at every position i, so each sigma, built
    one position at a time, takes every product of the tau_i that fix
    their own position."""
    n, k = space.config.n, space.config.k
    taus = np.array([(0, *p) for p in itertools.permutations(range(1, k + 1))])
    q = space.codes[qi]
    digits = {
        (s, i): (taus[taus[:, q[s]] == q[i]][:, space.codes[:, s]] - 1) * k ** (n - 1 - i)
        for s in range(n)
        for i in range(n)
    }
    rows = []

    def extend(ranks, left):
        i = n - len(left)
        if i == n:
            rows.append(ranks)
        for s in left:
            grown = ranks[:, None, :] + digits[s, i][None, :, :]
            extend(grown.reshape(-1, space.size), [t for t in left if t != s])

    extend(np.zeros((1, space.size), dtype=np.int64), list(range(n)))
    return np.concatenate(rows)


def _stabiliser_orbits(table, queries):
    """Lowest code of each orbit of the symmetries in table that fix every
    query: they form a group, so the orbit of x is {g[x]}."""
    return table[(table[:, queries] == queries).all(axis=1)].min(axis=0)


def _pair_images(space, group):
    """The listed pairs of a Symmetries as index permutations, computed by
    their definition: position i of the image of x holds tau(x[sigma(i)])."""
    pairs = zip(group._group.sigma.tolist(), group._group.tau.tolist())
    return np.array(
        [[space.encode(tuple(tau[x[s]] for s in sigma)) for x in space] for sigma, tau in pairs]
    )


def _labels(group, size):
    labels = group.labels
    return np.arange(size) if labels is None else labels


class TestSymmetry:
    def test_knuth_root_queries(self):
        def roots(config):
            space = CodeSpace.enumerate(config)
            return [space.decode(r) for r in Symmetries(space).reps]

        assert roots(bw_config(4, 6)) == [
            (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 2, 3), (1, 2, 3, 4)
        ]
        assert roots(perm_config(5)) == [(1, 2, 3, 4, 5)]
        assert roots(bw_config(3, 2)) == [(1, 1, 1), (1, 1, 2)]

    @pytest.mark.parametrize(
        "config", list(_symmetry_configs()), ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}"
    )
    def test_stabilisers_of_root_queries(self, config):
        # the orbits of every symmetry are the color-count patterns, and
        # the root queries the lowest code of each; every listed pair of the
        # symmetries fixing a root query is a bijection of the space that
        # fixes it and keeps black and white pegs; symmetry_bytes bounds
        # the list
        space = CodeSpace.enumerate(config)
        patterns = [tuple(sorted(map(c.count, set(c)))) for c in space]
        roots = sorted(patterns.index(p) for p in set(patterns))
        whole = Symmetries(space)
        labels = _labels(whole, space.size)
        assert labels.tolist() == [patterns.index(p) for p in patterns]
        table = space.feedback_rows(np.arange(space.size))
        for qi in roots:
            group = whole.fixing(qi)
            assert group._group.sigma.nbytes + group._group.tau.nbytes <= symmetry_bytes(config)
            for g in _pair_images(space, group):
                assert g[qi] == qi and sorted(g) == list(range(space.size))
                assert np.array_equal(table[np.ix_(g, g)], table)

    @pytest.mark.parametrize(
        "config", list(_symmetry_configs()), ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}"
    )
    def test_generators_are_symmetries_fixing_the_query(self, config):
        # after one query and after two, every listed pair is a bijection
        # that fixes each query played and keeps black and white pegs; each
        # distinct pair is checked against the table once
        space = CodeSpace.enumerate(config)
        table = space.feedback_rows(np.arange(space.size))
        sample = _sample_codes(space)
        distinct = set()
        for qi in sample:
            first = Symmetries(space).fixing(qi)
            for qj in sample:
                for g in _pair_images(space, first.fixing(qj)):
                    assert g[qi] == qi and g[qj] == qj
                    assert sorted(g) == list(range(space.size))
                    distinct.add(tuple(g))
        for g in map(list, distinct):
            assert np.array_equal(table[np.ix_(g, g)], table)

    @pytest.mark.parametrize(
        "config", list(_symmetry_configs()), ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}"
    )
    def test_generator_orbits_are_the_stabiliser_orbits(self, config, monkeypatch):
        # labels built from every listed pair, with the class permutations
        # and the free colors, are the orbits of the whole pointwise
        # stabiliser, found by brute force over S_n x S_k
        monkeypatch.setattr(codespace, "LABEL_PAIRS", config.space_size)
        space = CodeSpace.enumerate(config)
        table = _group_table(config)
        sample = _sample_codes(space)
        for qi in sample:
            first = Symmetries(space).fixing(qi)
            want = _stabiliser_orbits(table, [qi])
            assert _labels(first, space.size).tolist() == want.tolist()
            for qj in sample:
                want = _stabiliser_orbits(table, [qi, qj])
                assert _labels(first.fixing(qj), space.size).tolist() == want.tolist()

    @pytest.mark.parametrize(
        "config", list(_small_configs()), ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}"
    )
    def test_small_spaces_label_every_stabiliser_orbit(self, config, monkeypatch):
        # every sequence of one or two queries; the (sigma, tau) group never
        # reads the feedback mode, so the black-only space without repeats
        # gives the same groups, while black pegs with repeats get every
        # symmetry of the Hamming graph, found by brute force
        monkeypatch.setattr(codespace, "LABEL_PAIRS", config.space_size)
        space = CodeSpace.enumerate(config)
        black = CodeSpace.enumerate(dataclasses.replace(config, feedback=FeedbackMode.BLACK_ONLY))
        table = _group_table(config)
        for qi in range(space.size):
            first = Symmetries(space).fixing(qi)
            fixing = table[table[:, qi] == qi]
            assert _labels(first, space.size).tolist() == fixing.min(axis=0).tolist()
            for qj in range(space.size):
                want = fixing[fixing[:, qj] == qj].min(axis=0)
                assert _labels(first.fixing(qj), space.size).tolist() == want.tolist()
            first = Symmetries(black).fixing(qi)
            if config.repeats is Repeats.FORBIDDEN:
                assert _labels(first, space.size).tolist() == fixing.min(axis=0).tolist()
                continue
            fixing = _hamming_fixing(black, qi)
            assert _labels(first, space.size).tolist() == fixing.min(axis=0).tolist()
            for qj in range(space.size):
                want = fixing[fixing[:, qj] == qj].min(axis=0)
                assert _labels(first.fixing(qj), space.size).tolist() == want.tolist()

    def test_hamming_keys_are_ranked_exactly_on_long_codes(self):
        # (16,2) black pegs after 16 queries whose columns repeat within
        # kinds of positions; kind 4 is kind 1 with its colors swapped, so
        # both share one pattern of equal entries and one class, and kind 5
        # is constant, so color 2 there has key 16. The keys, 17 values at
        # each of 16 positions, are grouped by a dict of Python tuples, with
        # no packing into one integer
        space = CodeSpace.enumerate(VariantConfig(16, 2, feedback=FeedbackMode.BLACK_ONLY))
        rng = np.random.default_rng(23)
        kinds = [0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 4, 5, 5, 5, 5]
        columns = rng.integers(1, 3, size=(6, 16))
        columns[4] = 3 - columns[1]
        columns[5] = 1
        queries = columns[kinds].T
        group = Symmetries(space)
        for q in queries:
            group = group.fixing(space.encode(tuple(q.tolist())))
        cols = queries.T.tolist()
        keys = [{c: col.index(c) if c in col else 16 for c in (1, 2)} for col in cols]
        patterns = [tuple(col.index(c) for c in col) for col in cols]
        classes = [[i for i, p in enumerate(patterns) if p == kind] for kind in set(patterns)]
        assert len(classes) == 5
        lowest: dict = {}
        want = []
        for index, code in enumerate(space.codes.tolist()):
            key = tuple(tuple(sorted(keys[i][code[i]] for i in cls)) for cls in classes)
            want.append(lowest.setdefault(key, index))
        assert len(lowest) < space.size
        assert group.labels.tolist() == want

    @pytest.mark.parametrize("shift", [1, -1])
    def test_orbit_labels_of_one_long_cycle(self, shift):
        # one orbit of 10_000 codes, whichever way round the cycle runs
        cycle = np.roll(np.arange(10_000), shift)[None, :]
        assert (orbit_labels(cycle) == 0).all()
        assert orbit_labels(np.empty((0, 3), dtype=np.int32)).tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "config",
        [perm_config(7), VariantConfig(3, 4, feedback=FeedbackMode.BLACK_ONLY)],
        ids=["perm7", "3-4-b"],
    )
    def test_one_orbit_spaces_label_without_ranking(self, config, monkeypatch):
        # the whole space without repeats, and with black pegs and repeats,
        # is one orbit, labelled with no rank of any code; black pegs with
        # repeats label every group below it with no (sigma, tau) list
        def refuse(*args):
            raise AssertionError("ranked codes or built a (sigma, tau) list")

        space = CodeSpace.enumerate(config)
        monkeypatch.setattr(CodeSpace, "rank", refuse)
        assert (space.symmetries.labels == 0).all() and space.symmetries.reps.tolist() == [0]
        if config.repeats is Repeats.ALLOWED:
            monkeypatch.setattr(codespace, "_fix", refuse)
            monkeypatch.setattr(codespace, "orbit_labels", refuse)
            # after 111 and 444, one class of three positions with column
            # (1, 4): an orbit per multiset of 1, 4 and another color; a
            # group holds the queries played, not the group above it, so a
            # game's old groups and their labels are freed
            first = space.symmetries.fixing(0)
            above = weakref.ref(first)
            group = first.fixing(space.size - 1)
            del first
            assert above() is None
            assert [space.decode(int(r)) for r in group.reps] == [
                (1, 1, 1), (1, 1, 2), (1, 1, 4), (1, 2, 2), (1, 2, 4),
                (1, 4, 4), (2, 2, 2), (2, 2, 4), (2, 4, 4), (4, 4, 4),
            ]

    def test_unused_colors_are_free(self):
        # (1, 13): the 12 colors that 1 does not use are permuted freely,
        # with no listed map of them (12! of them): one pair, two orbits
        space = CodeSpace.enumerate(VariantConfig(1, 13))
        group = Symmetries(space).fixing(0)
        assert len(group._group.tau) == 1
        assert group.labels.tolist() == [0] + [1] * 12
        assert group.reps.tolist() == [0, 1]

    @pytest.mark.parametrize("feedback", list(FeedbackMode), ids=lambda f: f.value)
    def test_one_color_query_lists_one_pair(self, feedback):
        # q = 1^12 on (12,2): the 12! position permutations are one class,
        # so the list holds one pair; 13 orbits, one per count of color 2
        space = CodeSpace.enumerate(VariantConfig(12, 2, feedback=feedback))
        group = Symmetries(space).fixing(0)
        if feedback is FeedbackMode.BLACK_WHITE:  # black pegs label in closed form, with no list
            assert len(group._group.tau) == 1
        twos = (space.codes == 2).sum(axis=1)
        assert group.reps.tolist() == [int(np.flatnonzero(twos == t)[0]) for t in range(13)]
        assert np.array_equal(twos[group.labels], twos)


def _score_configs():
    for n, k in [(1, 1), (1, 4), (2, 1), (3, 1), (2, 3), (3, 3), (4, 3), (3, 4)]:
        for repeats in Repeats:
            for mode in FeedbackMode:
                if repeats is Repeats.ALLOWED or k >= n:
                    yield VariantConfig(n, k, feedback=mode, repeats=repeats)


class TestFeedbackRows:
    @pytest.mark.parametrize(
        "config",
        list(_score_configs()),
        ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}-{c.feedback.value}",
    )
    def test_full_space_scores_are_column_maxima(self, config):
        # the whole space is scored from one row per orbit of every symmetry;
        # brute force counts every column of the scalar feedback table
        space = CodeSpace.enumerate(config)
        codes = list(space)
        table = [[space.fid_of(feedback(q, x, config)) for x in codes] for q in codes]
        want = [max(np.bincount(column)) for column in zip(*table)]
        # a set of every code is scored with the space's group, built with
        # it or without; only the per-orbit root scores are shared, read-only
        assert not space.root_summary.scores.flags.writeable
        for whole in (SolutionSet.full(space), SolutionSet(space, np.arange(space.size))):
            scores = whole.minimax_scores()
            assert scores.dtype == np.int64 and scores.tolist() == want
            # one code: the group is trivial, the scores are the root's own
            assert scores.flags.writeable == (space.size > 1)
        assert space.n_realised_fids == len({fid for row in table for fid in row})

    @pytest.mark.parametrize("config", [bw_config(3, 3), perm_config(4)])
    def test_query_column_is_the_row_over_indices(self, config):
        space = CodeSpace.enumerate(config)
        table = space.feedback_rows(np.arange(space.size))
        # one byte per id, as the largest id (n black pegs) is below 256
        assert space.fid_of(Feedback(config.n, 0)) < 256
        rng = np.random.default_rng(5)
        for qi in range(space.size):
            indices = rng.choice(space.size, size=space.size // 3, replace=False)
            for _ in range(2):
                column = space.query_column(qi, indices)
                assert column.dtype == table.dtype == np.uint8
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
        # after one query or two, the list holds one pair per color map of
        # the used colors that some position permutation makes fix every
        # query, found by brute force over S_n; each pair fixes every query,
        # and ranking its images gives the symmetry by its definition
        space = CodeSpace.enumerate(config)
        picks = [0, space.size // 2, space.size - 1]
        for played in ([picks[0]], [picks[1]], picks[:2], picks[1:]):
            group = Symmetries(space)
            for qi in played:
                group = group.fixing(qi)
            queries = [space.decode(qi) for qi in played]
            used = sorted(set(itertools.chain(*queries)))
            want = set()
            for sigma in itertools.permutations(range(config.n)):
                tau = {}
                pairs = [(q[s], q[i]) for q in queries for i, s in enumerate(sigma)]
                if all(tau.setdefault(a, b) == b for a, b in pairs):
                    if len(set(tau.values())) == len(tau):
                        want.add(tuple(tau[c] for c in used))
            sigma, tau = group._group.sigma, group._group.tau
            assert sorted(tuple(t) for t in tau[:, used].tolist()) == sorted(want)
            for s, t in zip(sigma, tau):
                assert all((t[np.array(q)[s]] == q).all() for q in queries)
            ranked = [space.rank(t[space.codes[:, s]]) for s, t in zip(sigma, tau)]
            assert np.array_equal(ranked, _pair_images(space, group))


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
            buckets = [(r, child.indices) for r, child in SolutionSet(space, indices).split(qi)]
            fids = [space.fid_of(r) for r, _ in buckets]
            assert fids == sorted(set(fids))
            for r, bucket in buckets:
                assert bucket.size > 0
                assert np.all(np.diff(bucket) > 0)
                assert all(feedback(q, space.decode(int(i)), config) == r for i in bucket)
            assert sorted(np.concatenate([b for _, b in buckets])) == list(indices)

    def test_empty_indices_give_no_buckets(self):
        space = CodeSpace.enumerate(perm_config(3))
        assert SolutionSet(space, np.arange(0, dtype=np.int64)).split(0) == []

    def test_minimax_scores_are_largest_buckets(self):
        space = CodeSpace.enumerate(bw_config(3, 3))
        indices = np.arange(1, space.size, 3, dtype=np.int64)
        s = SolutionSet(space, indices)
        expected = [max(len(b) for _, b in s.split(qi)) for qi in range(space.size)]
        assert SolutionSet(space, indices).minimax_scores().tolist() == expected

    def test_minimax_scores_of_empty_indices_are_zero(self):
        space = CodeSpace.enumerate(VariantConfig(2, 2))
        scores = SolutionSet(space, np.arange(0, dtype=np.int64)).minimax_scores()
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

    def test_table_beyond_physical_memory_is_capacity(self, monkeypatch):
        # 1 MiB of physical memory: a check that under-counts builds a table
        # of about 1 MB and fails here, not one of half the machine's memory
        physical = 1 << 20
        monkeypatch.setattr(codespace, "_physical_memory", lambda: physical)
        size = math.isqrt(physical) + 1  # size**2 one-byte ids > physical
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
