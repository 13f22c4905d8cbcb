"""Codebreaker strategies behind a single interface.

Provided strategies:
  * ``minimax`` -- score every valid query by its largest response bucket
    over the remaining solution set; guess a minimum-score query.
  * ``basis`` -- query codes whose 0/1 encodings are linearly independent
    (exact rational rank tests) of all prior queries; black-peg responses
    then determine the hidden code by linear combination.
  * ``first-consistent`` -- always guess the lowest-indexed remaining code.

All strategies are deterministic: ties are broken by preferring members of
the remaining solution set, then by lowest code-space index.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .codespace import Code, CodeSpace, Feedback, VariantConfig, encode01
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

    def __contains__(self, c: Code) -> bool:
        idx = self.space.encode(c)
        pos = np.searchsorted(self.indices, idx)
        return pos < self.indices.size and self.indices[pos] == idx

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


def replay(space: CodeSpace, turns: Sequence[Turn]) -> SolutionSet:
    """Solution set after applying a whole transcript to the full space."""
    s = SolutionSet.full(space)
    for q, r in turns:
        s = filter_consistent(s, q, r)
    return s


def minimax_score(q: Code, s: SolutionSet, config: VariantConfig) -> int:
    """Largest response-bucket size that query q can leave behind."""
    if len(s) < 1:
        raise DomainError("solution set must be nonempty")
    space = s.space
    return max(len(bucket) for _, bucket in space.split(space.encode(q), s.indices))

def minimax_next(s: SolutionSet, config: VariantConfig) -> Code:
    """Minimum-score query; ties prefer members of s, then lowest index."""
    if len(s) < 2:
        raise DomainError("minimax needs at least 2 remaining candidates")
    scores = s.space.minimax_scores(s.indices)
    best = scores.min()
    tied = np.flatnonzero(scores == best)
    in_s = tied[np.isin(tied, s.indices, assume_unique=False)]
    chosen = int(in_s[0]) if in_s.size else int(tied[0])
    return s.space.decode(chosen)


@dataclass(frozen=True)
class Decoded:
    """Terminal result of the basis strategy: the hidden code is known."""

    code: Code


class _RationalBasis:
    """Incremental exact row-echelon basis over Q with response tracking.

    Rows are 0/1 code encodings; each pivot row carries the linear
    combination of observed responses that its reduction represents, so the
    predicted black-peg response of any vector in the span is recovered
    during reduction.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.row_resp: list[Fraction] = []
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(
        self, vec: np.ndarray
    ) -> tuple[list[Fraction], Fraction]:
        v = [Fraction(int(x)) for x in vec]
        pred = Fraction(0)
        for row, resp, col in zip(self.rows, self.row_resp, self.pivot_cols):
            coef = v[col] / row[col]
            if coef:
                for j in range(self.width):
                    if row[j]:
                        v[j] -= coef * row[j]
                pred += coef * resp
        return v, pred

    def in_span(self, vec: np.ndarray) -> bool:
        residual, _ = self._reduce(vec)
        return not any(residual)

    def predict(self, vec: np.ndarray) -> Optional[Fraction]:
        """Predicted response of vec, or None if vec is outside the span."""
        residual, pred = self._reduce(vec)
        if any(residual):
            return None
        return pred

    def add(self, vec: np.ndarray, resp: int) -> bool:
        """Insert vec with its observed response; False if vec was dependent.

        A dependent vector whose predicted response disagrees with the
        observed one is a contradiction in the transcript.
        """
        residual, pred = self._reduce(vec)
        pivot = next((j for j, x in enumerate(residual) if x), None)
        if pivot is None:
            if pred != resp:
                raise ContradictionError(
                    f"response {resp} contradicts predicted {pred}"
                )
            return False
        self.rows.append(residual)
        self.row_resp.append(Fraction(resp) - pred)
        self.pivot_cols.append(pivot)
        return True


def _basis_from(queries: Sequence[Code], responses: Sequence[int], space: CodeSpace) -> _RationalBasis:
    config = space.config
    basis = _RationalBasis(config.n * config.k)
    for q, resp in zip(queries, responses):
        basis.add(encode01(q, config), resp)
    return basis


def _first_outside_span(
    basis: _RationalBasis, space: CodeSpace, marks: np.ndarray
) -> Optional[Code]:
    """Lowest-index code whose encoding lies outside the basis span, or None.

    Codes found inside the span are marked and skipped: they stay inside as
    the basis grows.
    """
    config = space.config
    for idx in np.flatnonzero(~marks):
        c = space.decode(int(idx))
        if not basis.in_span(encode01(c, config)):
            return c
        marks[idx] = True
    return None


def basis_next(
    history: Sequence[Turn], space: CodeSpace
) -> Union[Code, Decoded]:
    """Next linearly independent query, or Decoded once the span is exhausted.

    Only black-peg responses are used; white pegs in the history are ignored.
    """
    s = replay(space, history)
    if len(s) == 0:
        raise ContradictionError("no code is consistent with the transcript")
    if len(s) == 1:
        return Decoded(s.sole_code())
    queries = [q for q, _ in history]
    responses = [r.black for _, r in history]
    basis = _basis_from(queries, responses, space)
    c = _first_outside_span(basis, space, np.zeros(space.size, dtype=bool))
    if c is not None:
        return c
    return Decoded(decode_candidates(queries, responses, space))


def decode_candidates(
    queries: Sequence[Code], responses: Sequence[int], space: CodeSpace
) -> Code:
    """Recover the hidden code from black-peg responses to spanning queries.

    Each candidate's encoding is expressed as an exact rational combination
    of the query encodings; the same combination of the responses predicts
    its black-peg count, and the hidden code is the unique candidate whose
    prediction equals n. When the queries do not span the valid-query
    subspace, plain consistency filtering may still leave a single
    candidate, which is returned instead.
    """
    config = space.config
    consistent = np.arange(space.size, dtype=np.int64)
    for q, resp in zip(queries, responses):
        # white pegs are ignored: keep every bucket with the black count
        keep = [b for r, b in space.split(space.encode(q), consistent) if r.black == resp]
        consistent = np.sort(np.concatenate(keep)) if keep else consistent[:0]
    if len(consistent) == 0:
        raise ContradictionError("no code is consistent with the responses")
    if len(consistent) == 1:
        return space.decode(int(consistent[0]))
    basis = _basis_from(queries, responses, space)
    hits: list[Code] = []
    for idx in range(space.size):
        c = space.decode(idx)
        pred = basis.predict(encode01(c, config))
        if pred == config.n:
            hits.append(c)
    if len(hits) != 1:
        raise ContradictionError(
            f"{len(hits)} candidates predict a full match; queries do not span"
        )
    return hits[0]


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
    """Knuth-style minimax; decisions depend only on the remaining set,
    so they are memoized on its index tuple."""

    name = "minimax"

    def __init__(self) -> None:
        self._memo: dict[bytes, Code] = {}

    def next_query(self, history: Sequence[Turn], s: SolutionSet) -> Code:
        key = s.indices.tobytes()
        hit = self._memo.get(key)
        if hit is None:
            hit = minimax_next(s, s.space.config)
            self._memo[key] = hit
        return hit


class BasisStrategy(Strategy):
    """Linear-algebra strategy; the query sequence depends only on the prior
    queries (never on responses), so every game walks one list of queries,
    extended on demand.

    Codes found dependent stay dependent as the basis grows, which lets the
    lexicographic scan skip them on later turns.
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
                self._basis.add(encode01(c, config), 0)
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
