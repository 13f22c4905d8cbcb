"""Codes, variant configurations, distance functions, and code-space enumeration.

Colors are 1-based everywhere in the external interface. A code is a plain
tuple of ints; a code space materializes all valid codes for a config as a
numpy array in lexicographic order, giving each code a stable integer index.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import CapacityError, DomainError, InvalidCodeError

Code = tuple[int, ...]

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class FeedbackMode(enum.Enum):
    BLACK_ONLY = "b"
    BLACK_WHITE = "bw"


class Repeats(enum.Enum):
    ALLOWED = "yes"
    FORBIDDEN = "no"


class Mode(enum.Enum):
    ADAPTIVE = "adaptive"
    NON_ADAPTIVE = "nonadaptive"


@dataclass(frozen=True)
class VariantConfig:
    """The five game parameters: length, alphabet, feedback, repeats, mode."""

    n: int
    k: int
    feedback: FeedbackMode = FeedbackMode.BLACK_WHITE
    repeats: Repeats = Repeats.ALLOWED
    mode: Mode = Mode.ADAPTIVE

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"sequence length n must be >= 1, got {self.n}")
        if self.k < 1:
            raise DomainError(f"alphabet size k must be >= 1, got {self.k}")
        if self.repeats is Repeats.FORBIDDEN and self.k < self.n:
            raise DomainError(
                f"repeats forbidden requires k >= n, got k={self.k}, n={self.n}"
            )

    @property
    def space_size(self) -> int:
        """Number of valid codes: k^n with repeats, k!/(k-n)! without."""
        if self.repeats is Repeats.ALLOWED:
            return self.k**self.n
        return math.factorial(self.k) // math.factorial(self.k - self.n)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "feedback": self.feedback.value,
            "repeats": self.repeats.value,
            "mode": self.mode.value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VariantConfig":
        return cls(
            n=int(obj["n"]),
            k=int(obj["k"]),
            feedback=FeedbackMode(obj["feedback"]),
            repeats=Repeats(obj["repeats"]),
            mode=Mode(obj["mode"]),
        )


class Feedback(tuple):
    """A (black, white) response; white is None in black-only configs."""

    __slots__ = ()

    def __new__(cls, black: int, white: Optional[int] = None) -> "Feedback":
        return super().__new__(cls, (black, white))

    @property
    def black(self) -> int:
        return self[0]

    @property
    def white(self) -> Optional[int]:
        return self[1]

    def __repr__(self) -> str:
        if self.white is None:
            return f"Feedback(black={self.black})"
        return f"Feedback(black={self.black}, white={self.white})"


def validate_code(c: Code, config: VariantConfig) -> None:
    """Raise InvalidCodeError if c is not a valid code for config."""
    if len(c) != config.n:
        raise InvalidCodeError(f"code {c} has length {len(c)}, expected {config.n}")
    for color in c:
        if not 1 <= color <= config.k:
            raise InvalidCodeError(f"color {color} out of range [1, {config.k}] in {c}")
    if config.repeats is Repeats.FORBIDDEN and len(set(c)) != len(c):
        raise InvalidCodeError(f"code {c} repeats a color but repeats are forbidden")


def parse_code(text: str) -> Code:
    """Parse a comma-separated 1-based code string like "1,2,3"."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidCodeError(f"cannot parse code {text!r}") from exc


def format_code(c: Code) -> str:
    return ",".join(str(color) for color in c)


def feedback(q: Code, h: Code, config: VariantConfig) -> Feedback:
    """Black (and, if configured, white) peg counts of query q against h.

    White pegs use the color-count formula sum_c min(#c in q, #c in h) - black,
    which agrees with the max-over-rearrangements definition.
    """
    validate_code(q, config)
    validate_code(h, config)
    black = sum(1 for a, b in zip(q, h) if a == b)
    if config.feedback is FeedbackMode.BLACK_ONLY:
        return Feedback(black)
    matched = 0
    for c in set(q):
        matched += min(q.count(c), h.count(c))
    return Feedback(black, matched - black)


def encode01(c: Code, config: VariantConfig) -> np.ndarray:
    """0/1 encoding of length n*k: entry i*k + (color-1) is 1 for position i.

    The dot product of two encodings equals their black-peg count.
    """
    validate_code(c, config)
    vec = np.zeros(config.n * config.k, dtype=np.int8)
    for i, color in enumerate(c):
        vec[i * config.k + (color - 1)] = 1
    return vec


def check_table_memory(config: VariantConfig, rows: int, cols: int) -> None:
    """Raise CapacityError unless _kernels.feedback_ids, building a (rows,
    cols) int16 table, fits in physical memory with every transient it
    holds (_kernels.feedback_bytes; black_rows builds black-only features in
    either mode, so for it this is an upper bound). It needs no enumerated
    codes, so a command that builds the whole table can check first."""
    need = _kernels.feedback_bytes(
        rows, cols, config.n, config.k, config.feedback is FeedbackMode.BLACK_WHITE
    )
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise CapacityError(
            f"feedback table of {rows} x {cols} ids needs {need} bytes of kernel "
            f"features, buffers and output, over physical memory of {physical} bytes"
        )


@dataclass
class CodeSpace:
    """Indexed lexicographic enumeration of all valid codes for a config."""

    config: VariantConfig
    codes: np.ndarray  # (size, n) int16, lexicographic rows
    _index: dict = field(default_factory=dict, repr=False)
    _fid_table: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def enumerate(
        cls, config: VariantConfig, budget: int = DEFAULT_ENUMERATION_BUDGET
    ) -> "CodeSpace":
        size = config.space_size
        if size > budget:
            raise CapacityError(
                f"code space of size {size} exceeds enumeration budget {budget}"
            )
        if config.k > np.iinfo(np.int16).max:
            raise CapacityError(f"{config.k} colors do not fit the int16 code array")
        colors = range(1, config.k + 1)
        if config.repeats is Repeats.ALLOWED:
            it: Iterator[Code] = itertools.product(colors, repeat=config.n)
        else:
            it = itertools.permutations(colors, config.n)
        codes = np.fromiter(
            itertools.chain.from_iterable(it), dtype=np.int16, count=size * config.n
        ).reshape(size, config.n)
        space = cls(config=config, codes=codes)
        space._index = {tuple(int(x) for x in row): i for i, row in enumerate(codes)}
        return space

    @property
    def size(self) -> int:
        return self.codes.shape[0]

    def encode(self, c: Code) -> int:
        validate_code(c, self.config)
        return self._index[tuple(c)]

    def decode(self, idx: int) -> Code:
        if not 0 <= idx < self.size:
            raise DomainError(f"index {idx} out of range [0, {self.size})")
        return tuple(int(x) for x in self.codes[idx])

    def __iter__(self) -> Iterator[Code]:
        for i in range(self.size):
            yield self.decode(i)

    # -- packed feedback ids ------------------------------------------------

    @property
    def n_fids(self) -> int:
        n = self.config.n
        if self.config.feedback is FeedbackMode.BLACK_WHITE:
            return (n + 1) * (n + 1)
        return n + 1

    def fid_of(self, fb: Feedback) -> int:
        if self.config.feedback is FeedbackMode.BLACK_WHITE:
            if fb.white is None:
                raise DomainError("black+white config requires a white count")
            return fb.black * (self.config.n + 1) + fb.white
        return fb.black

    def feedback_of_fid(self, fid: int) -> Feedback:
        if self.config.feedback is FeedbackMode.BLACK_WHITE:
            return Feedback(fid // (self.config.n + 1), fid % (self.config.n + 1))
        return Feedback(int(fid))

    @functools.cached_property
    def _feedbacks(self) -> list[Feedback]:
        return [self.feedback_of_fid(fid) for fid in range(self.n_fids)]

    def _check_table(self, rows: int, n_ids: int) -> None:
        """Raise CapacityError unless n_ids ids fit int16 and a (rows, size)
        table fits in physical memory with its kernel features."""
        if n_ids > 2**15:
            raise CapacityError(f"{n_ids} feedback ids do not fit an int16 table")
        check_table_memory(self.config, rows, self.size)

    def fid_table(self) -> np.ndarray:
        """(size, size) table of packed feedback ids, row = query index.

        Raises CapacityError, before allocating, if the table and the
        kernel's features would not fit in the machine's physical memory
        (check_table_memory), or if packed ids would not
        fit int16 (only k = 1 spaces with n >= 181 black+white, or n >= 32768
        black-only, get there); that limit also keeps the kernel exact.
        """
        if self._fid_table is None:
            self._check_table(self.size, self.n_fids)
            self._fid_table = _kernels.feedback_ids(
                self.codes,
                self.codes,
                self.config.k,
                self.config.feedback is FeedbackMode.BLACK_WHITE,
            )
        return self._fid_table

    def black_rows(self, qis: Sequence[int]) -> np.ndarray:
        """Black-peg counts of the queries at indices qis against every code,
        in either feedback mode; shape (len(qis), size) int16.

        Raises CapacityError, before allocating, as fid_table does.
        """
        self._check_table(len(qis), self.config.n + 1)
        return _kernels.feedback_ids(self.codes[qis], self.codes, self.config.k, False)

    def split(self, qi: int, indices: np.ndarray) -> list[tuple[Feedback, np.ndarray]]:
        """Non-empty response buckets of query index qi over the codes at
        indices, as (response, member indices) pairs in ascending packed-id
        order; each bucket keeps the order of indices."""
        if len(indices) == 0:
            return []
        row = self.fid_table()[qi, indices]
        order = row.argsort(kind="stable")
        fids = row[order].tolist()
        members = indices[order]
        cuts = [i for i in range(1, len(fids)) if fids[i] != fids[i - 1]]
        feedbacks = self._feedbacks
        return [
            (feedbacks[fids[lo]], members[lo:hi])
            for lo, hi in zip([0, *cuts], [*cuts, len(fids)])
        ]

    def minimax_scores(self, indices: np.ndarray) -> np.ndarray:
        """Largest response bucket over the codes at indices, for every
        query (by index); shape (size,) int64."""
        return _kernels.column_max_buckets(self.fid_table(), indices, self.n_fids)
