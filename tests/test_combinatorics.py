import itertools
import math
from fractions import Fraction

import pytest

from querymind.combinatorics import (
    bound_report,
    bucket_size,
    bucket_tail_sum,
    ceil_log,
    derangement,
    entropy_lower_bound,
    exact_match_count,
    harmonic,
    harmonic_brackets,
    lemma2_bound,
    match_distribution,
    shannon_entropy,
    theorem1_report,
    trivial_lower_bound,
)
from querymind.errors import DomainError

from conftest import black


def count_permutations_with_fixed_points(n, r):
    """Oracle: enumerate S_n, count permutations agreeing with identity in r spots."""
    identity = tuple(range(1, n + 1))
    return sum(
        1
        for p in itertools.permutations(identity)
        if black(p, identity) == r
    )


class TestDerangement:
    def test_small(self):
        assert derangement(0) == 1
        assert derangement(1) == 0
        # oracle: brute-force count of fixed-point-free permutations
        assert derangement(4) == count_permutations_with_fixed_points(4, 0) == 9

    def test_nearest_integer_to_m_factorial_over_e(self):
        # adjacent alternating partial sums bracket 1/e exactly; the whole
        # bracket of m!/e must land strictly inside (D(m) - 1/2, D(m) + 1/2)
        s14 = sum(Fraction((-1) ** i, math.factorial(i)) for i in range(15))
        s15 = sum(Fraction((-1) ** i, math.factorial(i)) for i in range(16))
        lo, hi = min(s14, s15), max(s14, s15)
        for m in range(1, 13):
            d = derangement(m)
            assert math.factorial(m) * lo > d - Fraction(1, 2)
            assert math.factorial(m) * hi < d + Fraction(1, 2)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            derangement(-1)


class TestBucketSize:
    def test_extremes(self):
        assert bucket_size(5, 5) == 1
        assert bucket_size(5, 4) == 0

    def test_brute_force_n4(self):
        for r in range(5):
            assert bucket_size(4, r) == count_permutations_with_fixed_points(4, r)
        assert bucket_size(4, 1) == 8

    def test_partition_of_symmetric_group(self):
        for n in range(13):
            assert sum(bucket_size(n, r) for r in range(n + 1)) == math.factorial(n)

    def test_range_checked(self):
        with pytest.raises(DomainError):
            bucket_size(4, 5)


class TestBucketTailSum:
    def test_x_zero_is_factorial(self):
        for n in range(1, 8):
            assert bucket_tail_sum(n, 0) == math.factorial(n)

    def test_x_n(self):
        assert bucket_tail_sum(6, 6) == 1

    def test_direct_sum_n4(self):
        assert bucket_tail_sum(4, 2) == 6 * 1 + 4 * 0 + 1 * 1 == 7
        assert bucket_tail_sum(4, 2) <= 24 // 2

    def test_tail_inequality_up_to_12(self):
        for n in range(1, 13):
            fact = math.factorial(n)
            for x in range(n + 1):
                assert bucket_tail_sum(n, x) * math.factorial(x) <= fact


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(4) == sum(Fraction(1, i) for i in range(1, 5)) == Fraction(25, 12)

    def test_brackets_contain_exact_value(self):
        for m in (1, 10, 100):
            lo, hi = harmonic_brackets(m)
            assert lo <= harmonic(m) <= hi
            assert hi - lo <= Fraction(m, 2**96)


class TestLemma2Bound:
    def test_t_zero_is_one(self):
        for n, c in [(5, 2), (7, 1), (9, 4)]:
            assert lemma2_bound(n, c, 0) == 1

    def test_direct_values(self):
        assert lemma2_bound(5, 2, 1) == Fraction(2 - Fraction(1, 3), 6) == Fraction(5, 18)
        expected = (2 - (harmonic(5) - harmonic(2))) / Fraction(math.factorial(5))
        assert lemma2_bound(5, 2, 3) == expected

    def test_parameter_ranges(self):
        with pytest.raises(DomainError):
            lemma2_bound(5, 5, 0)
        with pytest.raises(DomainError):
            lemma2_bound(5, 2, 4)


class TestCeilLog:
    def test_matches_brute_force(self):
        for base in range(2, 8):
            for m in range(1, 400):
                t = next(t for t in itertools.count() if base**t >= m)
                assert ceil_log(base, m) == t
            for t in range(6):  # exact powers, and one past them
                assert ceil_log(base, base**t) == t
                assert ceil_log(base, base**t + 1) == t + 1

    def test_rejects_base_below_two(self):
        with pytest.raises(DomainError):
            ceil_log(1, 5)


class TestTrivialLowerBound:
    def test_values(self):
        assert trivial_lower_bound(1) == 0
        assert trivial_lower_bound(2) == 1
        # smallest t with 4^t >= 24 is 3
        assert trivial_lower_bound(4) == 3

    def test_matches_ceil_log(self):
        for n in range(2, 40):
            t = trivial_lower_bound(n)
            assert n**t >= math.factorial(n)
            assert n ** (t - 1) < math.factorial(n)


class TestTheorem1Report:
    def test_condition_fails_at_small_c(self):
        # 1! - (H_n - H_1) <= 1 for n >= 2, so c = 1 never certifies
        rep = theorem1_report(5)
        assert rep.c == 1 and rep.condition_holds is False
        assert rep.largest_c_holding is None

    def test_monotone_in_c(self):
        from querymind.combinatorics import _condition_brackets

        n = 10**4
        held = False
        for c in range(1, 8):
            lo, _ = _condition_brackets(n, c)
            if held:
                assert lo > 1
            held = held or lo > 1

    def test_million_natural_log(self):
        # c = ceil(ln ln 1e6) = 3; 3! - (H_1e6 - H_3) is about -6.56, so the
        # finite-n witness fails with natural logs (the theorem is asymptotic)
        rep = theorem1_report(10**6, log_base="e")
        assert rep.c == 3
        assert rep.condition_holds is False
        assert rep.witness_high < 1
        assert float(rep.witness_low) == pytest.approx(-6.5594, abs=1e-3)

    def test_million_base_two(self):
        rep = theorem1_report(10**6, log_base="2")
        assert rep.c == 5
        assert rep.condition_holds is True
        assert rep.lower_bound == 10**6 - 5
        assert rep.largest_c_holding == 5


class TestEntropyLowerBound:
    def test_values(self):
        assert entropy_lower_bound(1, 1) == 0
        assert entropy_lower_bound(4, 4) == 2  # 2^4 < 24 < 2^5, ceil(log2/3)
        assert entropy_lower_bound(2, 4) == 2  # 2^3 < 12 < 2^4

    def test_rejects_k_lt_n(self):
        with pytest.raises(DomainError):
            entropy_lower_bound(4, 3)


class TestExactMatchCount:
    def test_full_agreement(self):
        assert exact_match_count(3, 5, 3) == 1

    def test_reduces_to_bucket_size_when_square(self):
        for n in range(1, 8):
            for x in range(n + 1):
                assert exact_match_count(n, n, x) == bucket_size(n, x)

    def test_brute_force_n2_k3(self):
        # query (1,2) against all 6 injective codes over 3 colors
        q = (1, 2)
        counts = [0, 0, 0]
        for h in itertools.permutations((1, 2, 3), 2):
            counts[black(q, h)] += 1
        assert counts == [3, 2, 1]
        assert [exact_match_count(2, 3, x) for x in range(3)] == [3, 2, 1]

    def test_total_is_space_size(self):
        for n in range(1, 7):
            for k in range(n, 9):
                total = sum(exact_match_count(n, k, x) for x in range(n + 1))
                assert total == math.factorial(k) // math.factorial(k - n)

    def test_probability_bounded_by_inverse_factorial(self):
        for n in range(1, 7):
            for k in range(n, 9):
                size = math.factorial(k) // math.factorial(k - n)
                for x in range(n + 1):
                    p = Fraction(exact_match_count(n, k, x), size)
                    assert p <= Fraction(1, math.factorial(x))

    def test_brute_force_all_small(self):
        for n in range(1, 5):
            for k in range(n, 6):
                full = list(itertools.permutations(range(1, k + 1), n))
                q = full[0]
                for x in range(n + 1):
                    oracle = sum(1 for h in full if black(q, h) == x)
                    assert exact_match_count(n, k, x) == oracle


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy([Fraction(1)]) == 0.0

    def test_uniform(self):
        assert shannon_entropy([Fraction(1, 2)] * 2) == pytest.approx(1.0, abs=1e-12)
        assert shannon_entropy([Fraction(1, 8)] * 8) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            shannon_entropy([Fraction(1, 2)])

    def test_match_entropy_below_three_square(self):
        for n in range(1, 9):
            assert shannon_entropy(match_distribution(n, n)) < 3

    def test_underflowing_probability_adds_nothing(self):
        # 1/10**400 is below the smallest double
        tiny = Fraction(1, 10**400)
        assert shannon_entropy([tiny, 1 - tiny]) == pytest.approx(0.0, abs=1e-12)

    def test_match_entropy_past_the_smallest_double(self):
        # P[black = n] = 1/n! underflows from n = 178; the entropy is that of n = 177
        want = shannon_entropy(match_distribution(177, 177))
        for n in (178, 200):
            assert shannon_entropy(match_distribution(n, n)) == pytest.approx(want, abs=1e-9)


class TestBoundReport:
    def test_n4_k4(self):
        report = bound_report(4, 4)
        assert report.trivial_lb == 3
        assert report.entropy_lb == 2
        assert report.space_size_no_repeats == 24

    def test_json_rationals_as_strings(self):
        obj = bound_report(6, 6).to_json()
        w = obj["theorem1"]["witness_low"]
        assert set(w) == {"num", "den"}
        Fraction(int(w["num"]), int(w["den"]))  # parses back

    def test_rectangular(self):
        report = bound_report(2, 5)
        assert report.trivial_lb is None
        assert report.entropy_lb == entropy_lower_bound(2, 5)
