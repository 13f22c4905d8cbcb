"""Non-adaptive query sets: identifiability, minimal-set search, entropy audit.

Response vectors here are black-peg counts only, matching the scope of the
no-repeats non-adaptive lower bound; the with-repeats analogue and white-peg
analysis are out of scope.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .codespace import (
    Code,
    CodeSpace,
    DEFAULT_ENUMERATION_BUDGET,
    Mode,
    Repeats,
    VariantConfig,
    format_code,
    parse_code,
    validate_code,
)
from .combinatorics import (
    entropy_lower_bound,
    match_distribution,
    shannon_entropy,
)
from .errors import CapacityError, DomainError


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
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path: str, config: VariantConfig) -> "QuerySet":
        queries = []
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    queries.append(parse_code(line))
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


def response_vector(qs: QuerySet, h: Code) -> list[int]:
    """Black-peg counts of h against each query, in query order."""
    validate_code(h, qs.config)
    return [sum(1 for a, b in zip(q, h) if a == b) for q in qs.queries]


def _response_matrix(
    queries: Sequence[Code], space: CodeSpace
) -> np.ndarray:
    """(s, size) black-peg counts of every query against every code."""
    if not queries:
        return np.zeros((0, space.size), dtype=np.int16)
    qarr = np.array(queries, dtype=np.int16)
    return _kernels.feedback_ids(qarr, space.codes, space.config.k, False)


def _entropy_lb_or_none(config: VariantConfig) -> Optional[int]:
    if config.repeats is Repeats.FORBIDDEN:
        return entropy_lower_bound(config.n, config.k)
    return None


def is_identifiable(
    qs: QuerySet,
    space: Optional[CodeSpace] = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> IdentifiabilityReport:
    """Whether the response vector is injective over the whole code space.

    On failure the witness is the first colliding pair in code-space order.
    """
    if space is None:
        space = CodeSpace.enumerate(qs.config, budget)
    matrix = _response_matrix(qs.queries, space)
    entropy_lb = _entropy_lb_or_none(qs.config)
    seen: dict[bytes, int] = {}
    witness = None
    for j in range(space.size):
        key = matrix[:, j].tobytes()
        if key in seen and witness is None:
            witness = (space.decode(seen[key]), space.decode(j))
            break
        seen.setdefault(key, j)
    identifiable = witness is None
    return IdentifiabilityReport(
        identifiable=identifiable,
        witness=witness,
        s=qs.size,
        entropy_lb=entropy_lb,
        gap=None if entropy_lb is None else qs.size - entropy_lb,
    )


def _is_injective(matrix: np.ndarray, rows: Sequence[int]) -> bool:
    cols = matrix[list(rows)] if rows else np.zeros((0, matrix.shape[1]), np.int16)
    return len({cols[:, j].tobytes() for j in range(matrix.shape[1])}) == matrix.shape[1]


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


def min_nonadaptive_size(
    config: VariantConfig,
    s_cap: int,
    space_budget: int = 100_000,
    space: Optional[CodeSpace] = None,
) -> MinSizeResult:
    """Smallest identifiable query-set size, by exhaustive subset search.

    Subsets are explored by size, then lexicographically by query indices,
    so the reported witness set is reproducible. Intended for tiny spaces.
    """
    if config.space_size > space_budget:
        raise CapacityError(
            f"space size {config.space_size} exceeds search budget {space_budget}"
        )
    if space is None:
        space = CodeSpace.enumerate(config)
    if space.size == 1:
        return MinSizeResult(0, False, QuerySet(config, ()))
    matrix = _response_matrix(list(space), space)
    for s in range(1, s_cap + 1):
        for rows in itertools.combinations(range(space.size), s):
            if _is_injective(matrix, rows):
                queries = tuple(space.decode(i) for i in rows)
                return MinSizeResult(s, False, QuerySet(config, queries))
    return MinSizeResult(None, True, None)


def greedy_query_set(
    config: VariantConfig,
    space_budget: int = 100_000,
    space: Optional[CodeSpace] = None,
) -> QuerySet:
    """Identifiable query set built greedily: each appended query minimizes
    the number of still-unresolved code pairs, ties by lowest query index.
    """
    if config.space_size > space_budget:
        raise CapacityError(
            f"space size {config.space_size} exceeds search budget {space_budget}"
        )
    if space is None:
        space = CodeSpace.enumerate(config)
    if space.size == 1:
        return QuerySet(config, ())
    matrix = _response_matrix(list(space), space)
    # group labels of codes by their response prefix so far
    labels = np.zeros(space.size, dtype=np.int64)
    chosen: list[int] = []

    def unresolved(lab: np.ndarray) -> int:
        _, counts = np.unique(lab, return_counts=True)
        return int((counts * (counts - 1) // 2).sum())

    while unresolved(labels) > 0:
        best_q, best_pairs, best_labels = -1, None, None
        for qi in range(space.size):
            refined = labels * (config.n + 1) + matrix[qi]
            pairs = unresolved(refined)
            if best_pairs is None or pairs < best_pairs:
                best_q, best_pairs, best_labels = qi, pairs, refined
        # relabel densely to keep values bounded
        _, labels = np.unique(best_labels, return_inverse=True)
        chosen.append(best_q)
    return QuerySet(config, tuple(space.decode(i) for i in chosen))


def entropy_audit(config: VariantConfig, q: Code) -> float:
    """Entropy in bits of a single query's black-peg response under a uniform
    hidden code; bounded by an absolute constant below 3.

    Only the no-repeats variant is in scope; the distribution over exact
    agreement counts is the same for every injective query.
    """
    if config.repeats is not Repeats.FORBIDDEN:
        raise DomainError("entropy audit applies to repeats-forbidden configs only")
    validate_code(q, config)
    return shannon_entropy(match_distribution(config.n, config.k))


def joint_response_distribution(
    qs: QuerySet, space: Optional[CodeSpace] = None
) -> Counter:
    """Exact empirical distribution of whole response vectors over the space."""
    if space is None:
        space = CodeSpace.enumerate(qs.config)
    matrix = _response_matrix(qs.queries, space)
    return Counter(tuple(int(x) for x in matrix[:, j]) for j in range(space.size))


def joint_response_entropy(qs: QuerySet, space: Optional[CodeSpace] = None) -> float:
    """Entropy in bits of the joint response vector under a uniform hidden code."""
    if space is None:
        space = CodeSpace.enumerate(qs.config)
    dist = joint_response_distribution(qs, space)
    probs = [Fraction(c, space.size) for c in dist.values()]
    return shannon_entropy(probs)
