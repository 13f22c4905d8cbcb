"""Game runner: honest and adversarial codemakers, worst-case sweeps, and
exact game values on tiny instances.

The game ends when the remaining solution set is a singleton; the final code
does not need to be queried, so query counts measure determination.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .codespace import (
    Code,
    CodeSpace,
    DEFAULT_ENUMERATION_BUDGET,
    Feedback,
    VariantConfig,
    feedback,
    validate_code,
)
from .errors import CapacityError, DomainError, ProtocolError
from .strategies import (
    MinimaxStrategy,
    SolutionSet,
    Strategy,
    Turn,
    filter_consistent,
)

DETERMINED = "determined"
EXHAUSTED = "exhausted"
CONTRADICTION = "contradiction"

DEFAULT_EXACT_BUDGET = 360
DEFAULT_SWEEP_BUDGET = 5_000


@dataclass(frozen=True)
class GameTranscript:
    config: VariantConfig
    turns: tuple[Turn, ...]
    outcome: str  # DETERMINED / EXHAUSTED / CONTRADICTION
    solution: Optional[Code]  # set iff outcome is DETERMINED
    sizes: tuple[int, ...]  # |S_t| trace, sizes[0] = full space

    def to_json(self) -> dict:
        from .codespace import format_code

        return {
            "config": self.config.to_json(),
            "turns": [
                {
                    "query": format_code(q),
                    "black": r.black,
                    "white": r.white,
                }
                for q, r in self.turns
            ],
            "outcome": self.outcome,
            "solution": None if self.solution is None else format_code(self.solution),
            "sizes": list(self.sizes),
        }


def default_turn_budget(config: VariantConfig) -> int:
    return config.n * config.k + 1


def _play(
    strategy: Strategy,
    config: VariantConfig,
    answer: Callable[[SolutionSet, Code], tuple[Feedback, SolutionSet]],
    turn_budget: Optional[int],
    space: Optional[CodeSpace],
) -> GameTranscript:
    """Game loop shared by every codemaker; answer(s, q) returns the
    response to q and the solution set left after it."""
    if space is None:
        space = CodeSpace.enumerate(config)
    budget = default_turn_budget(config) if turn_budget is None else turn_budget
    if budget < 1:
        raise DomainError(f"turn budget must be >= 1, got {budget}")
    s = SolutionSet.full(space)
    turns: list[Turn] = []
    sizes = [len(s)]
    while len(s) > 1 and len(turns) < budget:
        q = strategy.next_query(turns, s)
        try:
            validate_code(q, config)
        except Exception as exc:
            raise ProtocolError(f"strategy emitted invalid code {q!r}") from exc
        r, s = answer(s, q)
        turns.append((q, r))
        sizes.append(len(s))
    if len(s) == 1:
        return GameTranscript(config, tuple(turns), DETERMINED, s.sole_code(), tuple(sizes))
    return GameTranscript(config, tuple(turns), EXHAUSTED, None, tuple(sizes))


def play_honest(
    strategy: Strategy,
    h: Code,
    config: VariantConfig,
    turn_budget: Optional[int] = None,
    space: Optional[CodeSpace] = None,
) -> GameTranscript:
    """Run an adaptive game against the honest codemaker holding h."""
    validate_code(h, config)

    def answer(s: SolutionSet, q: Code) -> tuple[Feedback, SolutionSet]:
        r = feedback(q, h, config)
        return r, filter_consistent(s, q, r)

    return _play(strategy, config, answer, turn_budget, space)


def adversary_feedback(
    s_prev: SolutionSet, q: Code, config: VariantConfig
) -> tuple[Feedback, SolutionSet]:
    """Greedy adversary: answer with the largest realizable response bucket.

    Ties go to the smallest black count, then the smallest white count
    (ascending packed feedback id).
    """
    if len(s_prev) < 1:
        raise DomainError("adversary needs a nonempty solution set")
    space = s_prev.space
    row = space.fid_table()[space.encode(q)][s_prev.indices]
    counts = np.bincount(row, minlength=space.n_fids)
    fid = int(np.argmax(counts))  # argmax returns the smallest maximizing fid
    keep = row == fid
    return space.feedback_of_fid(fid), SolutionSet(space, s_prev.indices[keep])


def play_adversarial(
    strategy: Strategy,
    config: VariantConfig,
    turn_budget: Optional[int] = None,
    space: Optional[CodeSpace] = None,
) -> GameTranscript:
    """Run the strategy against the greedy max-bucket adversary."""
    return _play(
        strategy,
        config,
        lambda s, q: adversary_feedback(s, q, config),
        turn_budget,
        space,
    )


@dataclass
class WorstCaseResult:
    """Two query counts are reported for every hidden code: ``queries``
    counts turns until the remaining set is a singleton (the code is
    determined, no final confirming guess needed), while ``turns to win``
    additionally counts querying the code itself when it was never guessed,
    which is the classic Mastermind turn count."""

    strategy: str
    config: VariantConfig
    max_queries: int  # determination counting
    max_turns_to_win: int  # classic counting
    argmax_codes: list[Code]
    histogram: dict[int, int]  # determination queries -> number of codes
    histogram_win: dict[int, int]  # turns-to-win -> number of codes
    per_code: np.ndarray = field(repr=False)
    per_code_win: np.ndarray = field(repr=False)
    exhausted: list[Code] = field(default_factory=list)

    def to_json(self) -> dict:
        from .codespace import format_code

        return {
            "strategy": self.strategy,
            "config": self.config.to_json(),
            "max_queries": self.max_queries,
            "max_turns_to_win": self.max_turns_to_win,
            "argmax_codes": [format_code(c) for c in self.argmax_codes],
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "histogram_win": {
                str(k): v for k, v in sorted(self.histogram_win.items())
            },
            "exhausted": [format_code(c) for c in self.exhausted],
        }


def worst_case_queries(
    strategy: Strategy,
    config: VariantConfig,
    space_budget: int = DEFAULT_SWEEP_BUDGET,
    turn_budget: Optional[int] = None,
    threads: Optional[int] = None,
    space: Optional[CodeSpace] = None,
) -> WorstCaseResult:
    """Queries needed to determine every hidden code, swept exhaustively.

    Deterministic strategies induce one decision tree over response buckets,
    so the sweep walks that tree once instead of replaying each code;
    the per-code counts are identical to honest play.
    """
    if space is None:
        space = CodeSpace.enumerate(config)
    if space.size > space_budget:
        raise CapacityError(
            f"space size {space.size} exceeds sweep budget {space_budget}"
        )
    budget = default_turn_budget(config) if turn_budget is None else turn_budget
    per_code = np.full(space.size, -1, dtype=np.int64)
    per_code_win = np.full(space.size, -1, dtype=np.int64)
    table = space.fid_table()

    def walk(indices: np.ndarray, turns: list[Turn], depth: int) -> None:
        if indices.size == 1:
            idx = int(indices[0])
            per_code[idx] = depth
            queried = turns and space.encode(turns[-1][0]) == idx
            per_code_win[idx] = depth if (queried or depth == 0) else depth + 1
            return
        if depth >= budget:
            return  # left as -1: not determined within budget
        s = SolutionSet(space, indices)
        q = strategy.next_query(turns, s)
        try:
            validate_code(q, config)
        except Exception as exc:
            raise ProtocolError(f"strategy emitted invalid code {q!r}") from exc
        row = table[space.encode(q)][indices]
        # a bucket equal to the whole set is allowed (e.g. a basis query that
        # grows the rank without splitting); the turn budget bounds recursion
        for fid in np.unique(row):
            bucket = indices[row == fid]
            walk(bucket, turns + [(q, space.feedback_of_fid(int(fid)))], depth + 1)

    all_indices = np.arange(space.size, dtype=np.int64)
    if threads and threads > 1 and space.size > 1:
        s0 = SolutionSet(space, all_indices)
        q0 = strategy.next_query([], s0)
        row0 = table[space.encode(q0)]
        jobs = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for fid in np.unique(row0):
                bucket = all_indices[row0 == fid]
                turn = [(q0, space.feedback_of_fid(int(fid)))]
                jobs.append(pool.submit(walk, bucket, turn, 1))
            for job in jobs:
                job.result()
    else:
        walk(all_indices, [], 0)

    exhausted = [space.decode(int(i)) for i in np.flatnonzero(per_code < 0)]
    determined = per_code[per_code >= 0]
    wins = per_code_win[per_code_win >= 0]
    max_q = int(determined.max()) if determined.size else 0
    max_win = int(wins.max()) if wins.size else 0
    histogram: dict[int, int] = {
        int(v): int(c) for v, c in zip(*np.unique(determined, return_counts=True))
    }
    histogram_win: dict[int, int] = {
        int(v): int(c) for v, c in zip(*np.unique(wins, return_counts=True))
    }
    argmax = [space.decode(int(i)) for i in np.flatnonzero(per_code == max_q)]
    return WorstCaseResult(
        strategy=strategy.name,
        config=config,
        max_queries=max_q,
        max_turns_to_win=max_win,
        argmax_codes=argmax,
        histogram=histogram,
        histogram_win=histogram_win,
        per_code=per_code,
        per_code_win=per_code_win,
        exhausted=exhausted,
    )


@dataclass(frozen=True)
class ExactGameValue:
    value: int
    capped: bool

    def to_json(self) -> dict:
        return {"value": self.value, "capped": self.capped}


def exact_game_value(
    config: VariantConfig,
    depth_cap: Optional[int] = None,
    space_budget: int = DEFAULT_EXACT_BUDGET,
    space: Optional[CodeSpace] = None,
) -> ExactGameValue:
    """Optimal worst-case query count f(n, k) by full game-tree search.

    value(S) = 0 when |S| = 1, else 1 + min over valid queries of the max
    over realizable responses of the bucket value. Memoized on the index
    tuple of S with best-so-far pruning and an information-theoretic
    depth floor; queries are explored in lexicographic order.
    """
    if space is None:
        space = CodeSpace.enumerate(config)
    if space.size > space_budget:
        raise CapacityError(
            f"space size {space.size} exceeds exact-solver budget {space_budget}"
        )
    cap = default_turn_budget(config) if depth_cap is None else depth_cap
    table = space.fid_table()
    n_fids = space.n_fids
    exact: dict[bytes, int] = {}
    proven_above: dict[bytes, int] = {}  # key -> largest cap known insufficient

    def floor_depth(m: int) -> int:
        # each query has at most n_fids distinct responses
        t, reach = 0, 1
        while reach < m:
            reach *= n_fids
            t += 1
        return t

    def solve(indices: np.ndarray, budget: int) -> int:
        """Exact value if <= budget, else budget + 1."""
        if indices.size == 1:
            return 0
        lo = floor_depth(int(indices.size))
        if lo > budget:
            return budget + 1
        key = indices.tobytes()
        val = exact.get(key)
        if val is not None:
            return val if val <= budget else budget + 1
        above = proven_above.get(key)
        if above is not None and above >= budget:
            return budget + 1
        best = budget + 1
        seen_partitions: set[bytes] = set()
        for qi in range(space.size):
            row = table[qi][indices]
            fids, inverse = np.unique(row, return_inverse=True)
            if fids.size == 1:
                continue  # uninformative query
            sig = inverse.astype(np.int8).tobytes()
            if sig in seen_partitions:
                continue  # identical partition already scored
            seen_partitions.add(sig)
            order = np.argsort(
                -np.bincount(inverse, minlength=fids.size)
            )  # biggest bucket first fails fastest
            worst = 0
            for bi in order:
                bucket = indices[inverse == bi]
                sub = solve(bucket, best - 2)
                if sub > best - 2:
                    worst = best  # this query cannot beat best
                    break
                worst = max(worst, sub)
            if 1 + worst < best:
                best = 1 + worst
                if best == lo:
                    break
        if best <= budget:
            exact[key] = best
        else:
            prior = proven_above.get(key, -1)
            proven_above[key] = max(prior, budget)
        return best

    all_indices = np.arange(space.size, dtype=np.int64)
    if space.size == 1:
        return ExactGameValue(0, False)
    # greedy minimax's worst-case depth is an upper bound on the value
    greedy = worst_case_queries(
        MinimaxStrategy(), config, space_budget=space.size, turn_budget=cap, space=space
    )
    seed = cap + 1 if greedy.exhausted else greedy.max_queries
    budget = min(cap, seed)
    value = solve(all_indices, budget)
    if value > cap:
        return ExactGameValue(cap, True)
    return ExactGameValue(value, False)
