"""Exact big-integer and rational calculators for every counting bound.

Everything here is a pure function of its integer inputs. Counting is done
in arbitrary-precision integers, bound comparisons in exact rationals
(``fractions.Fraction``); floating point appears only in reported entropy
values.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._intmath import ceil_log
from .errors import DomainError

# Integer-scaled harmonic brackets: H_m is trapped in an interval of width
# m / _HARMONIC_SCALE, far below any comparison margin used here.
_HARMONIC_SCALE = 1 << 96


def derangement(m: int) -> int:
    """Number of fixed-point-free permutations of m elements.

    Uses the alternating-sum formula m! * sum_{i<=m} (-1)^i / i! evaluated
    as exact integers (each term m!/i! is integral).
    """
    if m < 0:
        raise DomainError(f"derangement requires m >= 0, got {m}")
    fact_m = math.factorial(m)
    return sum(
        (-1) ** i * (fact_m // math.factorial(i)) for i in range(m + 1)
    )


def bucket_size(n: int, r: int) -> int:
    """Permutations of [n] agreeing with a fixed query in exactly r places."""
    if not 0 <= r <= n:
        raise DomainError(f"r must be in [0, {n}], got {r}")
    return math.comb(n, r) * derangement(n - r)


def bucket_tail_sum(n: int, x: int) -> int:
    """Permutations of [n] with at least x fixed points: sum of bucket sizes."""
    if not 0 <= x <= n:
        raise DomainError(f"x must be in [0, {n}], got {x}")
    return sum(bucket_size(n, i) for i in range(x, n + 1))


def harmonic(m: int) -> Fraction:
    """Exact m-th harmonic number; H_0 = 0."""
    if m < 0:
        raise DomainError(f"harmonic requires m >= 0, got {m}")
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


@functools.lru_cache
def harmonic_brackets(m: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational lower/upper brackets of H_m, cheap for large m.

    Exact rational summation of H_m has denominators near lcm(1..m), which
    is intractable past a few thousand terms; scaled-integer floor/ceil sums
    give brackets of width m / 2^96 instead.
    """
    if m < 0:
        raise DomainError(f"harmonic requires m >= 0, got {m}")
    lo = sum(_HARMONIC_SCALE // i for i in range(1, m + 1))
    hi = sum(-(-_HARMONIC_SCALE // i) for i in range(1, m + 1))
    return Fraction(lo, _HARMONIC_SCALE), Fraction(hi, _HARMONIC_SCALE)


def lemma2_bound(n: int, c: int, t: int) -> Fraction:
    """Guaranteed lower bound on |S_t| / n! against any strategy.

    Exact rational value of (c! - (H_{c+t} - H_c)) / (c+t)!, valid for the
    worst hidden code after t adaptive turns of the permutation game.
    """
    if not 1 <= c < n:
        raise DomainError(f"need 1 <= c < n, got c={c}, n={n}")
    if not 0 <= t <= n - c:
        raise DomainError(f"need 0 <= t <= n - c = {n - c}, got t={t}")
    num = math.factorial(c) - (harmonic(c + t) - harmonic(c))
    return num / math.factorial(c + t)


def trivial_lower_bound(n: int) -> int:
    """Smallest t with n^t >= n!, i.e. ceil(log_n(n!)); 0 for n = 1."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0
    return ceil_log(n, math.factorial(n))


@dataclass(frozen=True)
class Theorem1Report:
    """Exact evaluation of the threshold condition c! - (H_n - H_c) > 1."""

    n: int
    log_base: str  # "e" or "2"
    c: int  # ceil(log log n) in the chosen base
    witness_low: Fraction  # rigorous brackets of c! - (H_n - H_c)
    witness_high: Fraction
    condition_holds: bool
    lower_bound: Optional[int]  # n - c when the condition holds
    largest_c_holding: Optional[int]  # largest c' <= c where it holds


def _condition_brackets(n: int, c: int) -> tuple[Fraction, Fraction]:
    h_n_lo, h_n_hi = harmonic_brackets(n)
    h_c_lo, h_c_hi = harmonic_brackets(c)
    fact = math.factorial(c)
    return fact - (h_n_hi - h_c_lo), fact - (h_n_lo - h_c_hi)


def theorem1_report(n: int, log_base: str = "e") -> Theorem1Report:
    """Threshold check behind the n - log log n lower bound, exact at finite n.

    With c = ceil(log log n) (natural log by default, base 2 optional),
    decides whether c! - (H_n - H_c) > 1 using rigorous harmonic brackets;
    when it holds, n - c is a valid lower bound on the permutation game.
    """
    if n < 4:
        raise DomainError(f"n must be >= 4, got {n}")
    if log_base == "e":
        c = math.ceil(math.log(math.log(n)))
    elif log_base == "2":
        c = math.ceil(math.log2(math.log2(n)))
    else:
        raise DomainError(f"log_base must be 'e' or '2', got {log_base!r}")
    c = max(1, min(c, n - 1))
    lo, hi = _condition_brackets(n, c)
    if lo <= 1 < hi:
        raise DomainError(
            f"harmonic brackets too coarse to decide the condition at n={n}, c={c}"
        )
    holds = lo > 1
    largest: Optional[int] = None
    for cand in range(c, 0, -1):
        cand_lo, _ = _condition_brackets(n, cand)
        if cand_lo > 1:
            largest = cand
            break  # condition is monotone in c, smaller c cannot hold
    return Theorem1Report(
        n=n,
        log_base=log_base,
        c=c,
        witness_low=lo,
        witness_high=hi,
        condition_holds=holds,
        lower_bound=n - c if holds else None,
        largest_c_holding=largest,
    )


def entropy_lower_bound(n: int, k: int) -> int:
    """ceil((1/3) * log2(k!/(k-n)!)) via exact comparison against powers of 2."""
    if n < 1 or k < n:
        raise DomainError(f"need k >= n >= 1, got n={n}, k={k}")
    return ceil_log(8, math.perm(k, n))  # 8 = 2^3


def exact_match_count(n: int, k: int, x: int) -> int:
    """Injective codes agreeing with a fixed injective query in exactly x spots.

    Inclusion-exclusion over the agreement positions:
    C(n,x) * sum_j (-1)^j C(n-x, j) * (k-x-j)! / (k-n)!.
    Reduces to C(n,x) * D(n-x) when k = n.
    """
    if k < n:
        raise DomainError(f"need k >= n, got n={n}, k={k}")
    if not 0 <= x <= n:
        raise DomainError(f"x must be in [0, {n}], got {x}")
    total = 0
    for j in range(n - x + 1):
        term = math.comb(n - x, j) * math.perm(k - x - j, n - x - j)
        total += -term if j % 2 else term
    return math.comb(n, x) * total


def match_distribution(n: int, k: int) -> list[Fraction]:
    """Exact distribution of the black-peg count of a uniform injective code
    against a fixed injective query; entry x is P[black = x]."""
    total = math.perm(k, n)
    return [Fraction(exact_match_count(n, k, x), total) for x in range(n + 1)]


def shannon_entropy(p: list[Fraction]) -> float:
    """Entropy in bits of an exact finite distribution.

    The summation is in double precision; with at most a few hundred terms
    the accumulated error is below 1e-9 bits. A probability below the
    smallest double (1/n! from n = 178) rounds to 0 and is skipped: its
    term, below 1e-320 bits, would not change the sum.
    """
    total = sum(p, Fraction(0))
    if total != 1:
        raise DomainError(f"probabilities must sum to 1 exactly, got {total}")
    if any(x < 0 for x in p):
        raise DomainError("probabilities must be nonnegative")
    ent = 0.0
    for x in p:
        fx = float(x)
        if fx > 0:
            ent -= fx * math.log2(fx)
    return ent


@dataclass(frozen=True)
class BoundReport:
    """All exact lower bounds computable from (n, k) alone."""

    n: int
    k: int
    space_size_no_repeats: Optional[int]  # k!/(k-n)! when k >= n
    space_size_repeats: int  # k^n
    trivial_lb: Optional[int]  # permutation game, needs k == n
    theorem1: Optional[Theorem1Report]  # permutation game, needs n >= 4
    entropy_lb: Optional[int]  # non-adaptive no-repeats, needs k >= n

    def to_json(self) -> dict:
        def frac(x: Fraction) -> dict:
            return {"num": str(x.numerator), "den": str(x.denominator)}

        thm1 = None
        if self.theorem1 is not None:
            t = self.theorem1
            thm1 = {
                "log_base": t.log_base,
                "c": t.c,
                "witness_low": frac(t.witness_low),
                "witness_high": frac(t.witness_high),
                "condition_holds": t.condition_holds,
                "lower_bound": t.lower_bound,
                "largest_c_holding": t.largest_c_holding,
            }
        return {
            "n": self.n,
            "k": self.k,
            "space_size_no_repeats": (
                None
                if self.space_size_no_repeats is None
                else str(self.space_size_no_repeats)
            ),
            "space_size_repeats": str(self.space_size_repeats),
            "trivial_lb": self.trivial_lb,
            "theorem1": thm1,
            "entropy_lb": self.entropy_lb,
        }


def bound_report(n: int, k: int, log_base: str = "e") -> BoundReport:
    """Assemble every applicable bound for (n, k)."""
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    return BoundReport(
        n=n,
        k=k,
        space_size_no_repeats=math.perm(k, n) if k >= n else None,
        space_size_repeats=k**n,
        trivial_lb=trivial_lower_bound(n) if k == n else None,
        theorem1=theorem1_report(n, log_base) if (k == n and n >= 4) else None,
        entropy_lb=entropy_lower_bound(n, k) if k >= n else None,
    )
