"""Non-adaptive query sets: identifiability, minimal-set search, entropy audit.

Response vectors here are black-peg counts only, in either feedback mode and
with or without repeats: a query set that identifies every code from black
pegs is a resolving set of the Hamming graph when repeats are allowed.
White-peg analysis is out of scope, and the entropy audit and lower bound
cover the no-repeats non-adaptive lower bound only. They import their
helpers from combinatorics when called, so the search does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codespace import (
    Code,
    CodeSpace,
    Mode,
    Repeats,
    VariantConfig,
    format_code,
    hamming_labels,
    parse_code,
    validate_code,
)
from .errors import DomainError


@dataclass(frozen=True)
class QuerySet:
    """An ordered non-adaptive query list."""

    config: VariantConfig
    queries: tuple[Code, ...]

    def __post_init__(self) -> None:
        if self.config.mode is not Mode.NON_ADAPTIVE:
            raise DomainError("query sets require a non-adaptive config")
        for q in self.queries:
            validate_code(q, self.config)

    @property
    def size(self) -> int:
        return len(self.queries)

    def to_file(self, path: str, comment: str = "") -> None:
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.extend(format_code(q) for q in self.queries)
        try:
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write query file {path!r}: {exc.strerror or exc}") from None

    @classmethod
    def from_file(cls, path: str, config: VariantConfig) -> "QuerySet":
        queries = []
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if line:
                        queries.append(parse_code(line))
        except OSError as exc:
            raise DomainError(f"cannot read query file {path!r}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise DomainError(
                f"cannot read query file {path!r}: not UTF-8 at byte {exc.start}"
            ) from None
        return cls(config=config, queries=tuple(queries))


@dataclass(frozen=True)
class IdentifiabilityReport:
    identifiable: bool
    witness: Optional[tuple[Code, Code]]  # colliding pair on failure
    s: int
    entropy_lb: Optional[int]  # needs no-repeats config
    gap: Optional[int]  # s - entropy_lb

    def to_json(self) -> dict:
        return {
            "identifiable": self.identifiable,
            "witness": (
                None
                if self.witness is None
                else [format_code(self.witness[0]), format_code(self.witness[1])]
            ),
            "s": self.s,
            "entropy_lb": self.entropy_lb,
            "gap": self.gap,
        }


def _refine(labels: np.ndarray, row: np.ndarray, n: int) -> np.ndarray:
    """Dense class labels after one more query: two codes share a class iff
    they shared one before and the query's black-peg row agrees on them."""
    keys = labels * (n + 1) + row
    return np.cumsum(np.bincount(keys) > 0)[keys] - 1


def _entropy_lb_or_none(config: VariantConfig) -> Optional[int]:
    if config.repeats is Repeats.FORBIDDEN:
        from .combinatorics import entropy_lower_bound

        return entropy_lower_bound(config.n, config.k)
    return None


def is_identifiable(qs: QuerySet, space: CodeSpace) -> IdentifiabilityReport:
    """Whether the response vector is injective over the whole code space.

    On failure the witness is the first colliding pair in code-space order.
    """
    labels = np.zeros(space.size, dtype=np.int64)
    for row in space.black_rows([space.encode(q) for q in qs.queries]):
        labels = _refine(labels, row, space.config.n)
    first = np.unique(labels, return_index=True)[1][labels]  # first of each class
    repeated = np.flatnonzero(first != np.arange(space.size))
    witness = None
    if repeated.size:
        j = int(repeated[0])
        witness = (space.decode(int(first[j])), space.decode(j))
    entropy_lb = _entropy_lb_or_none(space.config)
    return IdentifiabilityReport(
        identifiable=witness is None,
        witness=witness,
        s=qs.size,
        entropy_lb=entropy_lb,
        gap=None if entropy_lb is None else qs.size - entropy_lb,
    )


@dataclass(frozen=True)
class MinSizeResult:
    size: Optional[int]  # None when the cap was exceeded
    capped: bool
    query_set: Optional[QuerySet]

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "capped": self.capped,
            "queries": (
                None
                if self.query_set is None
                else [format_code(q) for q in self.query_set.queries]
            ),
        }


def min_nonadaptive_size(space: CodeSpace, s_cap: int) -> MinSizeResult:
    """Smallest identifiable query-set size, by exhaustive subset search.

    Subsets are explored by size, then lexicographically by query indices,
    so the reported witness set is reproducible. Intended for tiny spaces.
    The walk is depth-first: each node refines its prefix's response
    classes by one query, so a leaf costs one bincount.

    Three prunes keep the witness the first identifiable set of its size in
    the order of itertools.combinations:
    - The first query is index 0. A symmetry g of the space that preserves
      black pegs maps an identifiable set onto an identifiable set, and
      such symmetries act transitively on codes: without repeats a color
      relabeling sends any injective code to any other, and with repeats
      each position may relabel its colors on its own. So if some s-set is
      identifiable, some s-set holding index 0 is, and the sets holding 0
      come first among the s-sets.
    - With repeats, at every level a candidate is tried only if it is the
      lowest code of its orbit under the symmetries of the Hamming graph
      that fix the queries chosen so far (codespace.hamming_labels). Let
      W = (w_0 < w_1 < ...) be the first identifiable s-set. If some g
      fixing w_0..w_{j-1} sent w_j lower, g(W) would be identifiable and
      hold w_0..w_{j-1} and g(w_j) < w_j, while W holds nothing else below
      w_j; so the least code where g(W) and W differ is in g(W), and g(W)
      would come before W. Hence every w_j passes, and the walk, which
      meets the sets it does not skip in order, still returns W.
    - A node returns as soon as its largest class has more than
      (n+1)**left codes: each query left splits a class into at most n + 1
      black-peg counts.
    """
    if s_cap < 0:
        raise DomainError(f"set size cap must be >= 0, got {s_cap}")
    config = space.config
    if space.size == 1:
        return MinSizeResult(0, False, QuerySet(config, ()))
    rows = space.black_rows(np.arange(space.size))
    n, size = config.n, space.size
    hamming = config.repeats is Repeats.ALLOWED

    def candidates(chosen: list[int], stop: int) -> list[int]:
        """Indices past chosen[-1] and below stop; with repeats, only the
        lowest code of each orbit of the symmetries that fix chosen."""
        tried = np.arange(chosen[-1] + 1, stop)
        orbits = hamming_labels(space, chosen) if hamming else None
        return (tried if orbits is None else tried[orbits[tried] == tried]).tolist()

    def walk(chosen: list[int], labels: np.ndarray, left: int) -> Optional[list[int]]:
        """First identifiable extension of chosen by left queries of higher
        index, in the order of itertools.combinations; labels are chosen's
        dense classes."""
        if np.bincount(labels).max() > (n + 1) ** left:
            return None
        if left == 0:
            return chosen
        if left == 1:
            keys = labels * (n + 1)
            for qi in candidates(chosen, size):
                if np.bincount(keys + rows[qi]).max() == 1:
                    return [*chosen, qi]
            return None
        for qi in candidates(chosen, size - left + 1):
            found = walk([*chosen, qi], _refine(labels, rows[qi], n), left - 1)
            if found is not None:
                return found
        return None

    first = _refine(np.zeros(size, dtype=np.int64), rows[0], n)
    for s in range(1, s_cap + 1):
        found = walk([0], first, s - 1)
        if found is not None:
            queries = tuple(space.decode(i) for i in found)
            return MinSizeResult(s, False, QuerySet(config, queries))
    return MinSizeResult(None, True, None)


def entropy_audit(config: VariantConfig, q: Code) -> float:
    """Entropy in bits of a single query's black-peg response under a uniform
    hidden code; bounded by an absolute constant below 3.

    Only the no-repeats variant is in scope; the distribution over exact
    agreement counts is the same for every injective query.
    """
    if config.repeats is not Repeats.FORBIDDEN:
        raise DomainError("entropy audit applies to repeats-forbidden configs only")
    validate_code(q, config)
    from .combinatorics import match_distribution, shannon_entropy

    return shannon_entropy(match_distribution(config.n, config.k))
