import itertools
from fractions import Fraction

import pytest

from querymind.codespace import (
    CodeSpace,
    FeedbackMode,
    Mode,
    Repeats,
    VariantConfig,
    feedback,
    parse_code,
)
from querymind.combinatorics import entropy_lower_bound, match_distribution, shannon_entropy
from querymind.errors import DomainError
from querymind.nonadaptive import (
    QuerySet,
    entropy_audit,
    is_identifiable,
    min_nonadaptive_size,
)


def na_config(n, k=None):
    return VariantConfig(
        n,
        n if k is None else k,
        feedback=FeedbackMode.BLACK_ONLY,
        repeats=Repeats.FORBIDDEN,
        mode=Mode.NON_ADAPTIVE,
    )


class TestQuerySet:
    def test_requires_nonadaptive_mode(self):
        cfg = VariantConfig(2, 2, repeats=Repeats.FORBIDDEN)
        with pytest.raises(DomainError):
            QuerySet(cfg, ((1, 2),))

    def test_file_round_trip(self, tmp_path):
        cfg = na_config(3)
        qs = QuerySet(cfg, ((1, 2, 3), (2, 1, 3)))
        path = tmp_path / "q.queries"
        qs.to_file(str(path), comment="two probes")
        back = QuerySet.from_file(str(path), cfg)
        assert back == qs
        assert path.read_text().startswith("# two probes\n")


class TestIsIdentifiable:
    def test_empty_set_not_identifiable(self):
        cfg = na_config(2)
        rep = is_identifiable(QuerySet(cfg, ()), CodeSpace.enumerate(cfg))
        assert not rep.identifiable
        assert rep.witness == ((1, 2), (2, 1))

    def test_whole_space_identifiable(self):
        cfg = na_config(3)
        space = CodeSpace.enumerate(cfg)
        rep = is_identifiable(QuerySet(cfg, tuple(space)), space)
        assert rep.identifiable and rep.witness is None

    def test_single_query_perm2(self):
        cfg = na_config(2)
        rep = is_identifiable(QuerySet(cfg, ((1, 2),)), CodeSpace.enumerate(cfg))
        assert rep.identifiable
        assert rep.s == 1 and rep.entropy_lb == 1 and rep.gap == 0

    def test_witness_is_first_collision(self):
        cfg = na_config(3)
        rep = is_identifiable(QuerySet(cfg, ((1, 2, 3),)), CodeSpace.enumerate(cfg))
        assert not rep.identifiable
        a, b = rep.witness
        assert feedback((1, 2, 3), a, cfg).black == feedback((1, 2, 3), b, cfg).black
        # (1,3,2) and (3,2,1) are the first pair with equal responses
        assert rep.witness == ((1, 3, 2), (2, 1, 3))

    def test_monotone_in_query_prefix(self):
        cfg = na_config(3)
        space = CodeSpace.enumerate(cfg)
        full = tuple(space)
        identifiable_seen = False
        for s in range(len(full) + 1):
            rep = is_identifiable(QuerySet(cfg, full[:s]), space)
            if identifiable_seen:
                assert rep.identifiable
            identifiable_seen = identifiable_seen or rep.identifiable
        assert identifiable_seen


class TestMinSize:
    def test_perm2_single_query(self):
        res = min_nonadaptive_size(CodeSpace.enumerate(na_config(2)), s_cap=3)
        assert res.size == 1 and not res.capped
        assert res.query_set.queries == ((1, 2),)

    def test_singleton_space_needs_nothing(self):
        res = min_nonadaptive_size(CodeSpace.enumerate(na_config(1, 1)), s_cap=1)
        assert res.size == 0 and res.query_set.queries == ()

    def test_cap_exceeded(self):
        res = min_nonadaptive_size(CodeSpace.enumerate(na_config(3)), s_cap=1)
        assert res.capped and res.size is None and res.query_set is None

    def test_negative_cap_rejected(self):
        space = CodeSpace.enumerate(na_config(3))
        with pytest.raises(DomainError, match="set size cap must be >= 0"):
            min_nonadaptive_size(space, s_cap=-1)
        assert min_nonadaptive_size(space, s_cap=0).capped

    def test_result_is_minimal_and_identifiable(self):
        for n, k in [(2, 2), (2, 3), (3, 3), (1, 3)]:
            cfg = na_config(n, k)
            space = CodeSpace.enumerate(cfg)
            res = min_nonadaptive_size(space, s_cap=6)
            assert not res.capped
            assert is_identifiable(res.query_set, space).identifiable
            if res.size > 0:
                for rows in itertools.combinations(list(space), res.size - 1):
                    assert not is_identifiable(QuerySet(cfg, rows), space).identifiable

    def test_at_least_entropy_bound(self):
        for n, k in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            res = min_nonadaptive_size(CodeSpace.enumerate(na_config(n, k)), s_cap=8)
            assert res.size >= entropy_lower_bound(n, k)

    # With black pegs and repeats allowed an identifiable set is a resolving
    # set of the Hamming graph H(n, k); n = 2 follows floor(2(2k-1)/3)
    # (Caceres et al., SIAM J. Discrete Math. 2007), and k = 2 gives the
    # metric dimension of the hypercube (OEIS A303735). The witnesses of
    # (2,7), H(6,2) and H(7,2) are those of the search before its orbit prune.
    @pytest.mark.parametrize(
        "n, k, size, witness",
        [
            (2, 2, 2, None),
            (2, 3, 3, None),
            (2, 4, 4, None),
            (2, 5, 6, "1,1 1,2 1,3 2,1 3,4 4,4"),
            (2, 6, 7, "1,1 1,2 1,3 2,4 3,4 4,5 5,5"),
            (3, 2, 3, None),
            (4, 2, 4, None),
            (5, 2, 4, "1,1,1,1,1 1,1,1,2,2 1,1,2,1,2 1,2,1,1,2"),
            (2, 7, 8, "1,1 1,2 2,3 2,4 3,5 4,5 5,6 6,6"),
            (6, 2, 5, "1,1,1,1,1,1 1,1,1,1,1,2 1,1,1,2,2,1 1,1,2,1,2,1 1,2,1,1,2,1"),
            (7, 2, 6, "1,1,1,1,1,1,1 1,1,1,1,1,1,2 1,1,1,1,1,2,1 1,1,1,2,2,1,1 "
                      "1,1,2,1,2,1,1 1,2,1,1,2,1,1"),
        ],
    )
    def test_hamming_graph_metric_dimension(self, n, k, size, witness):
        cfg = VariantConfig(n, k, feedback=FeedbackMode.BLACK_ONLY, mode=Mode.NON_ADAPTIVE)
        res = min_nonadaptive_size(CodeSpace.enumerate(cfg), s_cap=size)
        assert res.size == size
        if witness is not None:
            assert res.query_set.queries == tuple(map(parse_code, witness.split()))


def first_identifiable_set(space, s_cap):
    """Reference: the first identifiable set of the least size, trying every
    itertools.combinations of indices with no pruning, responses from the
    scalar definition."""
    codes = list(space)
    rows = [[sum(a == b for a, b in zip(q, h)) for h in codes] for q in codes]
    for s in range(1, s_cap + 1):
        for combo in itertools.combinations(range(len(codes)), s):
            responses = {tuple(rows[q][h] for q in combo) for h in range(len(codes))}
            if len(responses) == len(codes):
                return [codes[q] for q in combo]
    return None


def _small_nonadaptive_configs():
    for n in range(1, 5):
        # with n = 1 the least set holds k - 1 codes: the reference tries ~2**k sets
        for k in range(2, 9 if n == 1 else 28):
            for repeats in Repeats:
                if repeats is Repeats.FORBIDDEN and k < n:
                    continue
                cfg = VariantConfig(
                    n,
                    k,
                    feedback=FeedbackMode.BLACK_ONLY,
                    repeats=repeats,
                    mode=Mode.NON_ADAPTIVE,
                )
                if cfg.space_size <= 27:
                    yield cfg


@pytest.mark.parametrize(
    "cfg",
    list(_small_nonadaptive_configs()),
    ids=lambda c: f"{c.n}-{c.k}-{c.repeats.value}",
)
def test_min_size_matches_unpruned_combinations(cfg):
    space = CodeSpace.enumerate(cfg)
    res = min_nonadaptive_size(space, s_cap=space.size)
    expected = first_identifiable_set(space, space.size)
    assert not res.capped
    assert list(res.query_set.queries) == expected


class TestEntropy:
    def test_audit_perm4(self):
        cfg = na_config(4)
        h = entropy_audit(cfg, (1, 2, 3, 4))
        dist = match_distribution(4, 4)
        assert dist == [
            Fraction(9, 24),
            Fraction(8, 24),
            Fraction(6, 24),
            Fraction(0),
            Fraction(1, 24),
        ]
        assert h == pytest.approx(1.75, abs=1e-12)

    def test_audit_matches_empirical(self):
        for n, k in [(2, 3), (3, 3), (3, 4)]:
            cfg = na_config(n, k)
            space = CodeSpace.enumerate(cfg)
            q = space.decode(0)
            counts = {}
            for h in space:
                b = sum(a == b_ for a, b_ in zip(q, h))
                counts[b] = counts.get(b, 0) + 1
            dist = [
                Fraction(counts.get(x, 0), space.size) for x in range(n + 1)
            ]
            assert entropy_audit(cfg, q) == pytest.approx(shannon_entropy(dist))

    def test_audit_rejects_repeats(self):
        cfg = VariantConfig(
            2, 2, feedback=FeedbackMode.BLACK_ONLY, mode=Mode.NON_ADAPTIVE
        )
        with pytest.raises(DomainError):
            entropy_audit(cfg, (1, 1))
