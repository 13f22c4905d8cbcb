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
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import CapacityError, DomainError, InvalidCodeError

Code = tuple[int, ...]
# feedback rows of a solution set: a block of rows, and the positions of
# the set's codes among them, ascending and distinct
Rows = tuple[np.ndarray, np.ndarray]

DEFAULT_ENUMERATION_BUDGET = 10_000_000
BLOCK_ROWS = _kernels.BLOCK_ROWS  # most rows bucket_maxima sums in one block
LABEL_PAIRS = 8  # listed pairs, evenly spaced, that join the orbits of Symmetries
PAIR_CELLS = 1 << 14  # cells per chunk of candidate pairs in Symmetries.fixing


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
        return math.perm(self.k, self.n)

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


# share of physical memory a search's memo may hold, and the bytes one entry
# costs beside its key: the bytes header, the dict slot and spare slots
MEMO_MEMORY_SHARE = 0.25
MEMO_ENTRY_BYTES = 120


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class MemoMeter:
    """Running size of a search's memo. The budget, MEMO_MEMORY_SHARE of
    physical memory, is read once; add raises CapacityError past it."""

    def __init__(self) -> None:
        self.budget = int(MEMO_MEMORY_SHARE * _physical_memory())
        self.entries = 0
        self.bytes = 0

    def add(self, key_bytes: int) -> None:
        """Count one new entry whose key holds key_bytes bytes."""
        self.entries += 1
        self.bytes += key_bytes + MEMO_ENTRY_BYTES
        if self.bytes > self.budget:
            raise CapacityError(
                f"memo of {self.entries} failed solution sets needs {self.bytes} "
                f"bytes, over {self.budget} bytes ({MEMO_MEMORY_SHARE} of "
                f"physical memory)"
            )


def check_table_memory(
    config: VariantConfig, rows: int, cols: int, extra: int = 0
) -> None:
    """Raise CapacityError unless _kernels.feedback_ids, building a (rows,
    cols) table of one byte per id (two once the largest id passes 255),
    fits in physical memory with every transient it holds
    (_kernels.feedback_bytes; black_rows builds black-only rows in either
    mode, so for it this is an upper bound) and with `extra` bytes the
    command keeps beside the table. It needs no enumerated codes, so a
    command can check first.

    The table commands check a whole (size, size) table, though only the
    non-adaptive search builds one; a game, sweep or exact search stays
    within one table (strategies.SolutionSet says why), and the adaptive
    commands count the list of one Symmetries as `extra` (symmetry_bytes).
    """
    need = extra + _kernels.feedback_bytes(
        rows, cols, config.n, config.k, config.feedback is FeedbackMode.BLACK_WHITE
    )
    physical = _physical_memory()
    if need > physical:
        raise CapacityError(
            f"feedback table of {rows} x {cols} ids needs {need} bytes of kernel "
            f"features, buffers and output"
            + (f" ({extra} of them beside the table)" if extra else "")
            + f", over physical memory of {physical} bytes"
        )


def symmetry_bytes(config: VariantConfig) -> int:
    """Bytes of the list of one Symmetries at its cap of space_size pairs,
    n + k + 1 int16 each; needs no enumerated codes."""
    return 2 * (config.n + config.k + 1) * config.space_size


def orbit_labels(gens: np.ndarray) -> np.ndarray:
    """Lowest index of each code's orbit under the group generated by the
    index permutations gens, shape (g, size); shape (size,) int32.

    Each code starts as its own label. A round lowers, for every generator
    g and code x, the labels of x and g(x) to the lower of the two, then
    jumps pointers (labels = labels[labels]) until they stop moving; rounds
    repeat until one changes nothing. Labels only fall and always name a
    code of the same orbit. At the end the labels of x and g(x) agree for
    every x and g, so they are constant on each orbit (the cycles of the
    generators connect it) and equal its lowest code, the one label that
    never falls. Lowering both ways lets a label run down a cycle in
    either direction, and the jumps halve the chains it leaves.
    """
    labels = np.arange(gens.shape[1], dtype=np.int32)
    while True:
        before = labels.copy()
        for g in gens:
            np.minimum(labels, labels[g], out=labels)
            labels[g] = np.minimum(labels[g], labels)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def hamming_labels(space: "CodeSpace", played: Sequence[int]) -> Optional[np.ndarray]:
    """Lowest index of each code's orbit under the symmetries of the
    Hamming graph H(n, k) that fix the codes at indices played, on a space
    with repeats; shape (size,), None if every orbit is one code.

    A symmetry g(x)[i] = tau_i(x[sigma(i)]) relabels the colors of each
    position on its own, so it keeps black pegs and the space. It fixes the
    queries q_1..q_m iff sigma maps each position onto one whose column
    (q_1[i], ..., q_m[i]) has the same pattern of equal entries, and each
    tau_i then sends the colors of the column of sigma(i) onto those of
    column i, entry by entry, and is free on the rest. With x's key at i
    the first j with q_j[i] = x[i] (m if there is none), g(x) has at i the
    key of x at sigma(i). So the orbits are the codes whose keys, sorted
    within each class of positions with one pattern, are equal: sigma
    matches the keys and tau_i the colors, as colors of key m are those
    outside column i. Keys are grouped with one stable np.lexsort, which
    puts the lowest index of each orbit first and never packs keys into an
    int that could wrap.
    """
    config = space.config
    n, m = config.n, len(played)
    if space.size == 1:
        return None
    if m == 0:  # one orbit: every code is some g(0)
        return np.zeros(space.size, dtype=np.int64)
    queries = space.codes[list(played)]
    dtype = np.int16 if n * (m + 1) < 2**15 else np.int32  # fits keys and class offsets
    first = np.full((n, config.k + 1), m, dtype=dtype)  # key of each color at i
    for j in range(m - 1, -1, -1):
        first[np.arange(n), queries[j]] = j
    patterns = first[np.arange(n)[:, None], queries.T]  # (n, m)
    numbers: dict[bytes, int] = {}
    classes = np.array([numbers.setdefault(p.tobytes(), len(numbers)) for p in patterns])
    outside = config.k - (first[:, 1:] < m).sum(axis=1)  # colors of key m at i
    if len(numbers) == n and (outside <= 1).all():
        return None
    keys = first[np.arange(n), space.codes]
    if len(numbers) < n:  # sort within classes, kept apart by class offsets
        cols = np.argsort(classes, kind="stable")
        keys = keys[:, cols] + (classes[cols] * (m + 1)).astype(dtype)
        keys.sort(axis=1)
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.ones(space.size, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    labels = np.empty(space.size, dtype=np.int64)
    labels[order] = order[starts][np.cumsum(starts) - 1]
    return labels


class _Group(NamedTuple):
    """The symmetries that fix every query played, as Symmetries holds them."""

    classes: np.ndarray  # (n,) class of each position, numbered from 0
    free: np.ndarray  # (k + 1,) bool: no query played uses the color
    sigma: np.ndarray  # (pairs, n) int16
    tau: np.ndarray  # (pairs, k + 1) int16; tau[:, 0] = 0, free colors fixed

    @property
    def bare(self) -> bool:
        """Whether the group is trivial: its one pair is the identity, each
        class one position, and at most one color is free. Every group
        below a bare one is bare."""
        n = len(self.classes)
        return len(self.tau) == 1 and self.classes.max() == n - 1 and self.free.sum() <= 1


def _permutations(s: int) -> np.ndarray:
    """The permutations of range(s) in lexicographic order, as int16 rows:
    the first element f, then those of range(s - 1) past f."""
    rows = np.zeros((1, 0), dtype=np.int16)
    for m in range(1, s + 1):
        first, rest = np.divmod(np.arange(math.factorial(m)), math.factorial(m - 1))
        out = np.empty((len(first), m), dtype=rows.dtype)
        out[:, 0] = first
        out[:, 1:] = rows[rest]
        out[:, 1:] += out[:, 1:] >= out[:, :1]
        rows = out
    return rows


def _fix(group: _Group, q: np.ndarray, cap: int) -> _Group:
    """The symmetries in group that also fix the code q, with at most cap
    pairs.

    A symmetry fixing q maps the colors N that q is the first to use onto
    themselves, so the candidates are each pair's tau followed by each
    permutation of N. A pair g = (sigma, tau) sends each class to the
    class of its positions' images, so a candidate fixes q iff the columns
    (class, q[i]) of the images of the positions are q's columns, as
    multisets; sigma then sends the j-th position of each new class to the
    j-th position of its preimage. Candidates are made PAIR_CELLS cells at
    a time.
    """
    classes, free, sigma, tau = group
    n, width = len(classes), len(free)
    keys = classes * width + q
    order = np.argsort(keys, kind="stable")
    want = keys[order]
    moved = np.empty((len(sigma), n), dtype=np.intp)
    moved[np.arange(len(sigma))[:, None], classes[sigma]] = classes
    moved = moved[:, classes]  # class of the image of each position
    new = np.flatnonzero(np.bincount(q, minlength=width).astype(bool) & free)
    maps = np.tile(np.arange(width, dtype=tau.dtype), (math.factorial(len(new)), 1))
    maps[:, new] = new[_permutations(len(new))]
    kept_sigma, kept_tau, kept = [], [], 0
    step = max(1, PAIR_CELLS // (width + n))
    candidates = len(tau) * len(maps)
    for lo in range(0, candidates, step):
        pair, ext = np.divmod(np.arange(lo, min(candidates, lo + step)), len(maps))
        taus = maps[ext[:, None], tau[pair]]
        images = moved[pair] * width + taus[:, q]
        fits = (np.sort(images, axis=1) == want).all(axis=1)
        sig = np.empty((int(fits.sum()), n), dtype=sigma.dtype)
        sig[:, order] = np.argsort(images[fits], axis=1, kind="stable")
        kept_sigma.append(sig)
        kept_tau.append(taus[fits])
        kept += len(sig)
        if kept >= cap:
            break
    now_free = free.copy()
    now_free[q] = False
    return _Group(
        np.unique(keys, return_inverse=True)[1],
        now_free,
        np.concatenate(kept_sigma)[:cap],
        np.concatenate(kept_tau)[:cap],
    )


class Symmetries:
    """The symmetries of a code space that fix every query played on the
    way to a solution set S, computed on first use and shared by the sets
    split by one query, so a strategy that never scores never pays for
    them. They map S onto itself: each maps every response bucket of a
    query it fixes onto itself.

    A symmetry (sigma, tau) sends code x to the code whose position i holds
    tau(x[sigma(i)]); it keeps black and white pegs and the space (Knuth,
    "The computer as Master Mind", 1977). It fixes the queries q_1..q_m
    played iff it maps the column (q_1[i], ..., q_m[i]) of every position
    onto a position with the same column. The group is held in three parts:
    - classes: positions with equal columns, permuted freely within;
    - free colors: those no query played uses, permuted freely;
    - a list of (sigma, tau) pairs, one per color map on the used colors
      that fixes the queries (the identity first), capped at size pairs
      (symmetry_bytes).
    Together they give every symmetry fixing the queries. A list of whole
    symmetries would need n! of them for q = 1^n; this list holds one.

    Orbits are those of the group generated by the class permutations, the
    swaps of neighbouring free colors and LABEL_PAIRS pairs of the list,
    evenly spaced. The orbits of any group of symmetries of S keep
    minimax scores exact and exact_game_value's skips sound, so the choice
    of pairs moves only speed, never a result.

    Which group each config gets:
    - black pegs with repeats: every symmetry of the Hamming graph H(n, k)
      that fixes the queries, g(x)[i] = tau_i(x[sigma(i)]) with one color
      relabeling per position, k!^n * n! of them before any query. Their
      orbits have a closed form (hamming_labels), so no list is built;
    - without repeats, the whole space: one orbit, labelled with no pass
      over the codes;
    - every other case: the (sigma, tau) group above.
    """

    def __init__(self, space: "CodeSpace", parent: Optional["Symmetries"] = None, qi: int = 0):
        config = space.config
        self._space = space
        self._qi = qi
        self._played: tuple[int, ...] = () if parent is None else (*parent._played, qi)
        # the closed form reads only the queries played, so it keeps no parents
        self._hamming = config.repeats is Repeats.ALLOWED and config.feedback is FeedbackMode.BLACK_ONLY
        self._parent = None if self._hamming else parent

    def fixing(self, qi: int) -> "Symmetries":
        """The symmetries of the children of a split by query qi."""
        return Symmetries(self._space, self, qi)

    @functools.cached_property
    def _group(self) -> _Group:
        """The (sigma, tau) group, refined from the parent's; black pegs
        with repeats keep no parent and never build it below the root."""
        space = self._space
        if not self._played:
            n, k = space.config.n, space.config.k
            return _Group(
                np.zeros(n, dtype=np.intp),
                np.arange(k + 1) > 0,
                np.arange(n, dtype=np.int16)[None],
                np.arange(k + 1, dtype=np.int16)[None],
            )
        group = self._parent._group
        self._parent = None
        return group if group.bare else _fix(group, space.codes[self._qi], space.size)

    @functools.cached_property
    def labels(self) -> Optional[np.ndarray]:
        """Lowest code of each code's orbit, shape (size,); None if the
        group is trivial.

        For the (sigma, tau) group, sorting a code within each class gives
        the lowest code of its orbit under the class permutations. The
        other generators map those orbits onto each other, so orbit_labels
        joins them through their lowest codes."""
        space = self._space
        config = space.config
        if self._hamming:
            return hamming_labels(space, self._played)
        if not self._played and config.repeats is Repeats.FORBIDDEN:
            # one orbit: a color relabeling sends any code to any other
            return None if space.size == 1 else np.zeros(space.size, dtype=np.int64)
        group = self._group
        if group.bare:
            return None
        n, width = config.n, len(group.free)
        cols = np.flatnonzero(np.bincount(group.classes)[group.classes] > 1)
        cols = cols[np.argsort(group.classes[cols], kind="stable")]
        dtype = np.int32 if space.size * n * width < 2**31 else np.int64
        base = (group.classes[cols] * width).astype(dtype)

        def lowest(codes: np.ndarray) -> np.ndarray:
            if len(cols):  # one sort of (code, class, color) keys
                keys = np.arange(len(codes), dtype=dtype)[:, None] * (n * width) + base
                keys += codes[:, cols]
                codes = codes.copy()
                codes[:, cols] = (np.sort(keys, axis=None) % width).reshape(len(codes), -1)
            return space.rank(codes)

        every = np.arange(space.size)
        low = lowest(space.codes) if len(cols) else every
        reps = np.flatnonzero(low == every)
        where = np.empty(space.size, dtype=np.int32)
        where[reps] = np.arange(len(reps))
        moves = []
        free = np.flatnonzero(group.free)
        for a, b in zip(free, free[1:]):
            tau = np.arange(width, dtype=np.int16)
            tau[[a, b]] = b, a
            moves.append((np.arange(n), tau))
        pairs = len(group.tau)
        for p in range(1, pairs, max(1, (pairs - 1) // LABEL_PAIRS))[:LABEL_PAIRS]:
            moves.append((group.sigma[p], group.tau[p]))
        codes = space.codes[reps]
        gens = np.empty((len(moves), len(reps)), dtype=np.int32)
        for row, (sigma, tau) in zip(gens, moves):
            row[:] = where[lowest(tau[codes[:, sigma]])]
        labels = reps[orbit_labels(gens)][where[low]]
        return None if np.array_equal(labels, every) else labels

    @property
    def trivial(self) -> bool:
        return self.labels is None

    @functools.cached_property
    def _spread(self) -> tuple[np.ndarray, np.ndarray]:
        """Lowest code of each orbit, ascending, and for each code the
        position of its orbit among them."""
        reps = np.flatnonzero(self.labels == np.arange(len(self.labels)))
        return reps, np.searchsorted(reps, self.labels)

    @property
    def reps(self) -> np.ndarray:
        """Lowest code of each orbit, ascending; the group is not trivial."""
        return self._spread[0]

    def spread(self, rep_values: np.ndarray) -> np.ndarray:
        """One value per orbit, given for reps, as one value per code."""
        return rep_values[self._spread[1]]


class RootSummary(NamedTuple):
    """The realised feedback ids and the root scores of a space
    (CodeSpace.root_summary)."""

    ids: np.ndarray  # ids that occur between two codes, ascending, in the rows' dtype
    scores: np.ndarray  # largest bucket over the space of each orbit's lowest code, read-only


@dataclass
class CodeSpace:
    """Indexed lexicographic enumeration of all valid codes for a config."""

    config: VariantConfig
    codes: np.ndarray  # (size, n) int16, lexicographic rows
    _query_rows: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

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
        return cls(config=config, codes=codes)

    @property
    def size(self) -> int:
        return self.codes.shape[0]

    def encode(self, c: Code) -> int:
        """Index of code c: rank's arithmetic on one code, in Python ints
        (a numpy call per position would cost ten times the whole sum)."""
        validate_code(c, self.config)
        forbidden = self.config.repeats is Repeats.FORBIDDEN
        index, used = 0, 0  # used: bit x set once color x is played
        for x, w in zip(c, self._rank_weights):
            index += (x - 1 - (used & ((1 << x) - 1)).bit_count()) * w
            if forbidden:
                used |= 1 << x
        return index

    def decode(self, idx: int) -> Code:
        if not 0 <= idx < self.size:
            raise DomainError(f"index {idx} out of range [0, {self.size})")
        return tuple(int(x) for x in self.codes[idx])

    def __iter__(self) -> Iterator[Code]:
        for i in range(self.size):
            yield self.decode(i)

    @functools.cached_property
    def _rank_weights(self) -> tuple[int, ...]:
        """Codes that continue a prefix of length i + 1: k^(n-1-i) with
        repeats, (k-i-1)!/(k-n)! without."""
        n, k = self.config.n, self.config.k
        if self.config.repeats is Repeats.ALLOWED:
            return tuple(k ** (n - 1 - i) for i in range(n))
        return tuple(math.perm(k - i - 1, n - i - 1) for i in range(n))

    def rank(self, codes: np.ndarray) -> np.ndarray:
        """Index of each row of codes, all valid codes of this space; int32
        if every index fits, else int64.

        Lexicographic rank: position i adds its digit times _rank_weights[i].
        With repeats the digit is c_i - 1, a mixed-radix number; without,
        it is the number of colors below c_i unused before i. encode does
        the same for one code. Every term is non-negative, so no partial
        sum passes the index.
        """
        dtype = np.int32 if self.size < 2**31 else np.int64
        digits = np.subtract(codes, 1, dtype=dtype)
        if self.config.repeats is Repeats.FORBIDDEN:
            for i in range(self.config.n - 1, 0, -1):
                below = digits[:, :i] < digits[:, i : i + 1]
                digits[:, i] -= below.sum(axis=1, dtype=dtype)
        return digits @ np.array(self._rank_weights, dtype=dtype)

    # -- packed feedback ids ------------------------------------------------

    @property
    def n_fids(self) -> int:
        n = self.config.n
        if self.config.feedback is FeedbackMode.BLACK_WHITE:
            return (n + 1) * (n + 1)
        return n + 1

    @functools.cached_property
    def symmetries(self) -> Symmetries:
        """Every symmetry of the space, those of no query played. With
        black and white pegs and repeats the lowest code of each orbit has
        one color-count pattern: 1111, 1112, 1122, 1123 and 1234 on (4,6),
        as in Knuth's "The computer as Master Mind" (1977); every other
        space is one orbit."""
        return Symmetries(self)

    @functools.cached_property
    def root_summary(self) -> RootSummary:
        """From the feedback rows, which are not kept, of the lowest code
        of each orbit of every symmetry (Symmetries.reps; code 0 alone if
        that group is trivial).

        Every code is g(r) for a symmetry g and such a code r, and
        feedback(g(r), x) = feedback(r, g^-1(x)), so their rows hold every
        id that occurs. The ids keep the dtype of those rows, which every
        block of rows the kernel compares them with shares. SolutionSet
        spreads the scores over the orbits."""
        whole = self.symmetries
        rows = self.feedback_rows([0] if whole.trivial else whole.reps)
        counts = [np.bincount(row, minlength=self.n_fids) for row in rows]
        ids = np.flatnonzero(np.sum(counts, axis=0)).astype(rows.dtype)
        scores = np.array([c.max() for c in counts])
        scores.flags.writeable = False
        return RootSummary(ids, scores)

    @property
    def n_realised_fids(self) -> int:
        """Number of feedback ids that occur between two codes."""
        return len(self.root_summary.ids)

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

    @functools.cached_property
    def _code_side(self) -> np.ndarray:
        return _kernels.code_features(
            self.codes, self.config.k, self.config.feedback is FeedbackMode.BLACK_WHITE
        )

    def feedback_rows(
        self, indices: Sequence[int], cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Packed feedback ids of the codes at indices, as queries, against
        every code, or against the codes at cols; shape (len(indices), size
        or len(cols)) in _kernels.id_dtype: one byte per id while the
        largest id is below 256. Feedback is symmetric, so column j also holds
        code j's ids against the codes at indices.

        Raises CapacityError, before allocating, if the rows and the
        kernel's features would not fit in the machine's physical memory
        (check_table_memory), and, before allocating the rows, if the
        packed ids are too large for the kernel (_kernels.feedback_ids).
        The code side of the kernel is computed once per space.
        """
        check_table_memory(self.config, len(indices), self.size)
        config = self.config
        bw = config.feedback is FeedbackMode.BLACK_WHITE
        side = self._code_side
        queries = _kernels.query_features(side[indices], config.n, config.k, bw)
        codes = self.codes if cols is None else self.codes[cols]
        side = side if cols is None else side[cols]
        return _kernels.feedback_ids(self.codes[indices], codes, config.k, bw, (queries, side))

    def query_column(self, qi: int, indices: np.ndarray) -> np.ndarray:
        """Packed ids of query qi against the codes at indices; shape
        (len(indices),), the dtype of feedback_rows. Sets without rows split
        by these.

        qi's whole row is computed at its first ask and kept for the last
        n*k queries asked: basis plays each of its at most n(k-1) + 1
        queries at many nodes, so its rows stay kept. The kept rows, at
        most n*k ids per code, take fewer bytes than the kernel's features
        of every code (n*k or 2*n*k float32 per code), which the space
        holds from its first row on.
        """
        row = self._query_rows.get(qi)
        if row is None:
            if len(self._query_rows) >= self.config.n * self.config.k:
                del self._query_rows[next(iter(self._query_rows))]
            row = self._query_rows[qi] = self.feedback_rows([qi])[0]
        return row[indices]

    def black_rows(self, qis: Sequence[int]) -> np.ndarray:
        """Black-peg counts of the queries at indices qis against every code,
        in either feedback mode; shape (len(qis), size), one byte per count
        up to n = 255.

        Raises CapacityError, before allocating, as feedback_rows does.
        """
        check_table_memory(self.config, len(qis), self.size)
        return _kernels.feedback_ids(self.codes[qis], self.codes, self.config.k, False)

    def buckets(self, column: np.ndarray) -> list[tuple[Feedback, np.ndarray]]:
        """Groups of equal packed ids in column, as (response, positions in
        column) pairs in ascending id order; positions ascend in a group."""
        if len(column) == 0:
            return []
        order = column.argsort(kind="stable")
        fids = column[order].tolist()
        cuts = [i for i in range(1, len(fids)) if fids[i] != fids[i - 1]]
        feedbacks = self._feedbacks
        return [
            (feedbacks[fids[lo]], order[lo:hi])
            for lo, hi in zip([0, *cuts], [*cuts, len(fids)])
        ]

    def bucket_maxima(
        self,
        block: np.ndarray,
        at: Optional[np.ndarray] = None,
        cols: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Largest bucket of each column of block, over its rows at the
        positions at (every row if None), or of the columns at cols only;
        shape (block's width or len(cols),) int64. Only the ids that occur
        between two codes are counted. Positions ascend and are distinct,
        so positions that cover the block are every row in order, read as
        slices with no gathered copy."""
        at = None if at is not None and len(at) == len(block) else at
        return _kernels.column_max_buckets(block, at, self.root_summary.ids, cols)
