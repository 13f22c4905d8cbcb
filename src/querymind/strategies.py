"""Codebreaker strategies behind a single interface.

Provided strategies:
  * ``minimax`` -- score every valid query by its largest response bucket
    over the remaining solution set; guess a minimum-score query.
  * ``basis`` -- query codes whose 0/1 encodings are linearly independent
    (exact rational rank tests) of all prior queries; once the queries span
    the codes, consistency filtering has isolated the hidden code.
  * ``first-consistent`` -- always guess the lowest-indexed remaining code.

All strategies are deterministic: ties are broken by preferring members of
the remaining solution set, then by lowest code-space index.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .codespace import Code, CodeSpace, Feedback, encode01
from .errors import ContradictionError, DomainError, ProtocolError

Turn = tuple[Code, Feedback]


class SolutionSet:
    """Immutable set of code-space indices consistent with a transcript."""

    __slots__ = ("space", "indices")

    def __init__(self, space: CodeSpace, indices: np.ndarray) -> None:
        self.space = space
        self.indices = np.asarray(indices, dtype=np.int64)

    @classmethod
    def full(cls, space: CodeSpace) -> "SolutionSet":
        return cls(space, np.arange(space.size, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.indices.size)

    def codes(self) -> list[Code]:
        return [self.space.decode(int(i)) for i in self.indices]

    def sole_code(self) -> Code:
        if len(self) != 1:
            raise DomainError(f"solution set has {len(self)} members, not 1")
        return self.space.decode(int(self.indices[0]))


def filter_consistent(s: SolutionSet, q: Code, r: Feedback) -> SolutionSet:
    """Members of s whose feedback to q equals r; may be empty."""
    space = s.space
    want = space.feedback_of_fid(space.fid_of(r))  # as split reports it
    for fb, bucket in space.split(space.encode(q), s.indices):
        if fb == want:
            return SolutionSet(space, bucket)
    return SolutionSet(space, s.indices[:0])


def minimax_next(s: SolutionSet) -> Code:
    """Minimum-score query; ties prefer members of s, then lowest index."""
    if len(s) < 2:
        raise DomainError("minimax needs at least 2 remaining candidates")
    scores = s.space.minimax_scores(s.indices)
    best = scores.min()
    tied = np.flatnonzero(scores == best)
    member = np.zeros(s.space.size, dtype=bool)
    member[s.indices] = True
    in_s = tied[member[tied]]
    chosen = int(in_s[0]) if in_s.size else int(tied[0])
    return s.space.decode(chosen)


class _RationalBasis:
    """Incremental exact row-echelon basis over Q; it tracks the rank only."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: np.ndarray) -> bool:
        """Insert vec if it lies outside the span; return whether it did."""
        v = [Fraction(int(x)) for x in vec]
        for row, col in zip(self.rows, self.pivot_cols):
            coef = v[col] / row[col]
            if coef:
                for j in range(self.width):
                    if row[j]:
                        v[j] -= coef * row[j]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        self.rows.append(v)
        self.pivot_cols.append(pivot)
        return True


def _first_outside_span(
    basis: _RationalBasis, space: CodeSpace, marks: np.ndarray
) -> Optional[Code]:
    """Add the lowest-index code whose encoding lies outside the basis span
    to the basis and return it, or None if every code lies inside.

    Scanned codes are marked and skipped later: they stay inside the span as
    the basis grows.
    """
    for idx in np.flatnonzero(~marks):
        marks[idx] = True
        c = space.decode(int(idx))
        if basis.add(encode01(c, space.config)):
            return c
    return None


class Strategy:
    """Deterministic query chooser: identical histories, identical queries."""

    name: str = "abstract"

    def next_query(self, history: Sequence[Turn], s: SolutionSet) -> Code:
        raise NotImplementedError


class FirstConsistentStrategy(Strategy):
    name = "first-consistent"

    def next_query(self, history: Sequence[Turn], s: SolutionSet) -> Code:
        return s.space.decode(int(s.indices[0]))


class MinimaxStrategy(Strategy):
    """Knuth-style minimax; decisions depend only on the remaining set."""

    name = "minimax"

    def next_query(self, history: Sequence[Turn], s: SolutionSet) -> Code:
        return minimax_next(s)


class BasisStrategy(Strategy):
    """Linear-algebra strategy; the query sequence depends only on the prior
    queries (never on responses), so every game walks one list of queries,
    extended on demand.

    Codes found dependent stay dependent as the basis grows, which lets the
    lexicographic scan skip them on later turns.

    Why filtering alone determines the code: black(q, c) = e(q).e(c) for the
    0/1 encodings e of ``encode01``. Let the responses come from a code h
    (any remaining candidate). If e(h) = sum_i a_i e(q_i) lies in the span of
    the query encodings, every consistent code c has e(h).e(c) =
    sum_i a_i black(q_i, h) = e(h).e(h) = n, so c = h. Hence the game ends
    once the queries span every code, and the scan runs dry only if s does
    not match the history. If e(h) lies outside the span, rational
    elimination of the responses gives e(c).e(h) = black(c, h) < n for every
    code c inside it, so it could not name the code either.
    """

    name = "basis"

    def __init__(self) -> None:
        self._queries: list[Code] = []
        self._marks: Optional[np.ndarray] = None
        self._basis: Optional[_RationalBasis] = None
        self._lock = threading.Lock()

    def next_query(self, history: Sequence[Turn], s: SolutionSet) -> Code:
        space = s.space
        config = space.config
        with self._lock:
            if self._basis is None:
                self._basis = _RationalBasis(config.n * config.k)
                self._marks = np.zeros(space.size, dtype=bool)
            while len(self._queries) <= len(history):
                c = _first_outside_span(self._basis, space, self._marks)
                if c is None:
                    raise ContradictionError(
                        "query span exhausted while multiple candidates remain"
                    )
                self._queries.append(c)
            queries = self._queries[: len(history) + 1]
        if any(tuple(q) != mine for (q, _), mine in zip(history, queries)):
            raise ProtocolError("history does not follow the basis query sequence")
        return queries[-1]


_STRATEGIES = {
    "minimax": MinimaxStrategy,
    "basis": BasisStrategy,
    "first-consistent": FirstConsistentStrategy,
}

STRATEGY_NAMES = tuple(_STRATEGIES)


def get_strategy(name: str) -> Strategy:
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise DomainError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
