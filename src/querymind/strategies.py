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

import math
from typing import Optional, Sequence

import numpy as np

from .codespace import BLOCK_ROWS, Code, CodeSpace, Feedback, Rows, Symmetries, encode01
from .errors import ContradictionError, DomainError, ProtocolError

Turn = tuple[Code, Feedback]


class SolutionSet:
    """Immutable set of code-space indices consistent with a transcript.

    Scoring. minimax_scores alone decides how a set is scored and alone
    spreads per-orbit scores; CodeSpace builds feedback ids
    (feedback_rows), counts buckets (bucket_maxima) and caches the scores
    of one query per orbit of the whole space (root_summary).

    Feedback rows. One rule, decided here alone, says which sets hold rows,
    from what a set can see of itself: its size, its group, its view and
    whether it was split before. A set with a view (block of rows,
    positions of its codes among the block's rows) scores every column of
    it, and every set split from it holds a view of the same block. A set
    below the whole space without a view that has more than BLOCK_ROWS
    codes, the rows the bucket-counting kernel sums in one block, and a
    non-trivial group scores one query per orbit from its ids against
    those queries alone (feedback_rows(indices, reps)) and holds no rows;
    any other such set computes its block, its codes' rows against every
    code (CodeSpace.feedback_rows), when it is scored. A set without a view
    that is split a second time, which only the exact search does, computes
    its block first, so the children of every later split view it instead
    of each computing rows. Nothing copies rows: a block lives as long as
    the last set that views it. Feedback ids are symmetric, so the split
    by query q reads column q of the view. The whole space holds no rows:
    it reads the root scores, computed once per space from one row per
    orbit of every symmetry, and is split by the row of the query played
    (CodeSpace.query_column), as is every set without a view split for
    the first time, and every set of a strategy that never scores.

    Symmetries. The whole space and every set split from it carry the
    symmetries that fix every query played (codespace.Symmetries, computed
    only if a set labels its orbits), which map the set S onto itself. A
    symmetry g keeps feedback, so g(q) splits S = g(S) into the images of
    q's buckets, and g(q) and q have the same score: scores are constant
    on orbits. So a large set without a view that labels the orbits of a
    non-trivial group scores only the lowest query of each orbit, never
    from |S| whole rows, and spreads the scores over the orbits. Labels
    cost a pass over the whole space whatever the set's size, while the
    columns they save grow with the set, so a set of at most BLOCK_ROWS
    codes scores every column in one kernel call and never labels (on a
    perm-7 sweep, labelling every set took 229 groups instead of 5 to read
    48.2 M cells instead of 69.8 M). A set of every code is scored with
    the space's own group, whatever group it was built with: its scores
    over the orbits of that group are the root scores.

    Memory. Hence a game, sweep or exact search holds only blocks of rows
    of sets below the root, viewed without copying, and stays within one
    table (codespace.check_table_memory) beside the rows of single queries
    that CodeSpace.query_column keeps. A game or a sweep splits each set
    once, so each code's row is computed at most once down it, and every
    block it holds is of a set of at most BLOCK_ROWS codes or of one with
    no symmetry left: on perm-7 the first bucket's 1855 codes are scored
    from their ids against one query per orbit, and the largest block is
    240 x 5040 ids, 1.2 MB, not 1855 x 5040, 9.3 MB. In the exact search a
    code's row can be computed once per large symmetric set above it that
    is split again, and a set that computes its block to split again holds
    it beside the blocks of its first split's children until the search
    drops them.
    """

    __slots__ = ("space", "indices", "view", "symmetries", "_split")

    def __init__(
        self,
        space: CodeSpace,
        indices: np.ndarray,
        view: Optional[Rows] = None,
        symmetries: Optional[Symmetries] = None,
    ) -> None:
        self.space = space
        self.indices = np.asarray(indices, dtype=np.int64)
        self.view = view  # (block of rows, positions of this set's codes)
        self.symmetries = symmetries
        self._split = False  # split once already

    @classmethod
    def full(cls, space: CodeSpace) -> "SolutionSet":
        """The whole space."""
        return cls(space, np.arange(space.size, dtype=np.int64), None, space.symmetries)

    def __len__(self) -> int:
        return int(self.indices.size)

    def codes(self) -> list[Code]:
        return [self.space.decode(int(i)) for i in self.indices]

    def sole_code(self) -> Code:
        if len(self) != 1:
            raise DomainError(f"solution set has {len(self)} members, not 1")
        return self.space.decode(int(self.indices[0]))

    def _rows(self) -> Rows:
        """The view, computed as this set's own block if it has none."""
        if self.view is None:
            self.view = (self.space.feedback_rows(self.indices), np.arange(len(self)))
        return self.view

    def minimax_scores(self) -> np.ndarray:
        """Largest response bucket over this set for every query (by
        index); shape (size,) int64, read-only for a one-code space."""
        space = self.space
        group = self.symmetries
        if len(self) == space.size:  # one row per orbit of every symmetry
            group, scores = space.symmetries, space.root_summary.scores
        elif self.view is None and len(self) > BLOCK_ROWS and group is not None and not group.trivial:
            scores = space.bucket_maxima(space.feedback_rows(self.indices, group.reps))
        else:
            return space.bucket_maxima(*self._rows())
        return scores if group.trivial else group.spread(scores)

    def member_scores(self) -> Optional[np.ndarray]:
        """Largest response bucket over this set of each of its codes as a
        query, read from the |S| x |S| columns of its view; None if it has
        no view."""
        return None if self.view is None else self.space.bucket_maxima(*self.view, self.indices)

    def split(self, qi: int) -> list[tuple[Feedback, "SolutionSet"]]:
        """Non-empty response buckets of query index qi, as (response,
        child) pairs in ascending packed-id order; each child keeps the
        order of indices. If this set has a view, children of two or more
        codes view the same block, which a set split a second time
        computes first if it has none."""
        space = self.space
        if self._split and len(self) < space.size:
            self._rows()
        self._split = True
        if self.view is None:
            column = space.query_column(qi, self.indices)
        else:
            block, at = self.view
            column = block[at, qi]
        group = None if self.symmetries is None else self.symmetries.fixing(qi)
        children = []
        for fb, pos in space.buckets(column):
            view = None if self.view is None or len(pos) < 2 else (block, at[pos])
            children.append((fb, SolutionSet(space, self.indices[pos], view, group)))
        return children


def filter_consistent(s: SolutionSet, q: Code, r: Feedback) -> SolutionSet:
    """Members of s whose feedback to q equals r; may be empty."""
    space = s.space
    want = space.feedback_of_fid(space.fid_of(r))  # as split reports it
    for fb, child in s.split(space.encode(q)):
        if fb == want:
            return child
    return SolutionSet(space, s.indices[:0])


def minimax_next(s: SolutionSet) -> Code:
    """Minimum-score query; ties prefer members of s, then lowest index.

    Member floor. With b realised feedback ids (CodeSpace.n_realised_fids),
    every query scores at least F = ceil((|S| - 1) / (b - 1)): a member
    query's own code is alone in the all-black bucket (that id occurs only
    between a code and itself), so its other |S| - 1 codes fall into at
    most b - 1 buckets; a non-member's |S| codes fall into at most b - 1
    buckets, all but all-black. So a member scoring F has the least score
    and wins every tie: if a set with rows finds members at F in its
    |S| x |S| member block, the lowest-index one is the answer, and no
    other query is scored. Both members of a two-code set score F = 1, so
    the lower one is the answer and nothing is scored.
    """
    if len(s) < 2:
        raise DomainError("minimax needs at least 2 remaining candidates")
    space = s.space
    if len(s) == 2:
        return space.decode(int(s.indices.min()))
    members = s.member_scores()
    if members is not None:
        floor = -(-(len(s) - 1) // (space.n_realised_fids - 1))
        at_floor = s.indices[members == floor]
        if at_floor.size:
            return space.decode(int(at_floor.min()))
    scores = s.minimax_scores()
    best = scores.min()
    tied = np.flatnonzero(scores == best)
    member = np.zeros(space.size, dtype=bool)
    member[s.indices] = True
    in_s = tied[member[tied]]
    chosen = int(in_s[0]) if in_s.size else int(tied[0])
    return space.decode(chosen)


class _RationalBasis:
    """Incremental exact row-echelon basis over Q; it tracks the rank only.

    Elimination is fraction-free, in Python ints: against a stored row with
    pivot p in column c, a vector becomes p * v - v[c] * row, then is divided
    by the gcd of its entries. Each step is the rational step times a
    nonzero factor, so every entry is zero exactly when it would be over Q,
    and the pivots and rank decisions are those of rational elimination.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[tuple[int, list[int]]] = []  # (pivot column, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: np.ndarray) -> bool:
        """Insert vec if it lies outside the span; return whether it did."""
        v = [int(x) for x in vec]
        for col, row in self.rows:
            a = v[col]
            if a:
                p = row[col]
                v = [p * x - a * y for x, y in zip(v, row)]
                g = math.gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        self.rows.append((pivot, v))
        return True


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

    def next_query(self, history: Sequence[Turn], s: SolutionSet) -> Code:
        space = s.space
        config = space.config
        if self._basis is None:
            self._basis = _RationalBasis(config.n * config.k)
            self._marks = np.zeros(space.size, dtype=bool)
        while len(self._queries) <= len(history):
            # the lowest-index code outside the span; scanned codes are
            # marked, since they stay inside the span as the basis grows
            for idx in np.flatnonzero(~self._marks):
                self._marks[idx] = True
                c = space.decode(int(idx))
                if self._basis.add(encode01(c, config)):
                    self._queries.append(c)
                    break
            else:
                raise ContradictionError(
                    "query span exhausted while multiple candidates remain"
                )
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
