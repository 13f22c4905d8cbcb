"""Game runner: honest and adversarial codemakers, worst-case sweeps, and
exact game values on tiny instances.

The game ends when the remaining solution set is a singleton; the final code
does not need to be queried, so query counts measure determination.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._intmath import ceil_log
from .codespace import (
    Code,
    CodeSpace,
    Feedback,
    MemoMeter,
    VariantConfig,
    feedback,
    format_code,
    validate_code,
)
from .errors import DomainError, ProtocolError
from .strategies import (
    SolutionSet,
    Strategy,
    Turn,
    filter_consistent,
)

DETERMINED = "determined"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class GameTranscript:
    config: VariantConfig
    turns: tuple[Turn, ...]
    outcome: str  # DETERMINED / EXHAUSTED
    solution: Optional[Code]  # set iff outcome is DETERMINED
    sizes: tuple[int, ...]  # |S_t| trace, sizes[0] = full space

    def to_json(self) -> dict:
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


def _next_query(strategy: Strategy, turns: list[Turn], s: SolutionSet) -> Code:
    """The strategy's next query; ProtocolError if it is not a valid code."""
    q = strategy.next_query(turns, s)
    try:
        validate_code(q, s.space.config)
    except Exception as exc:
        raise ProtocolError(f"strategy emitted invalid code {q!r}") from exc
    return q


def _play(
    strategy: Strategy,
    space: CodeSpace,
    answer: Callable[[SolutionSet, Code], tuple[Feedback, SolutionSet]],
    turn_budget: Optional[int],
) -> GameTranscript:
    """Game loop shared by every codemaker; answer(s, q) returns the
    response to q and the solution set left after it."""
    config = space.config
    budget = default_turn_budget(config) if turn_budget is None else turn_budget
    if budget < 0:
        raise DomainError(f"turn budget must be >= 0, got {budget}")
    s = SolutionSet.full(space)
    turns: list[Turn] = []
    sizes = [len(s)]
    while len(s) > 1 and len(turns) < budget:
        q = _next_query(strategy, turns, s)
        r, s = answer(s, q)
        turns.append((q, r))
        sizes.append(len(s))
    if len(s) == 1:
        return GameTranscript(config, tuple(turns), DETERMINED, s.sole_code(), tuple(sizes))
    return GameTranscript(config, tuple(turns), EXHAUSTED, None, tuple(sizes))


def play_honest(
    strategy: Strategy,
    h: Code,
    space: CodeSpace,
    turn_budget: Optional[int] = None,
) -> GameTranscript:
    """Run an adaptive game against the honest codemaker holding h."""
    validate_code(h, space.config)

    def answer(s: SolutionSet, q: Code) -> tuple[Feedback, SolutionSet]:
        r = feedback(q, h, space.config)
        return r, filter_consistent(s, q, r)

    return _play(strategy, space, answer, turn_budget)


def adversary_feedback(s_prev: SolutionSet, q: Code) -> tuple[Feedback, SolutionSet]:
    """Greedy adversary: answer with the largest realizable response bucket.

    Ties go to the smallest black count, then the smallest white count
    (ascending packed feedback id).
    """
    if len(s_prev) < 1:
        raise DomainError("adversary needs a nonempty solution set")
    children = s_prev.split(s_prev.space.encode(q))
    # max keeps the first largest bucket: the smallest packed feedback id
    return max(children, key=lambda pair: len(pair[1]))


def play_adversarial(
    strategy: Strategy,
    space: CodeSpace,
    turn_budget: Optional[int] = None,
) -> GameTranscript:
    """Run the strategy against the greedy max-bucket adversary."""
    return _play(strategy, space, adversary_feedback, turn_budget)


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
    space: CodeSpace,
    turn_budget: Optional[int] = None,
) -> WorstCaseResult:
    """Queries needed to determine every hidden code, swept exhaustively.

    Deterministic strategies induce one decision tree over response buckets,
    so the sweep walks that tree once instead of replaying each code;
    the per-code counts are identical to honest play.
    """
    budget = default_turn_budget(space.config) if turn_budget is None else turn_budget
    if budget < 0:
        raise DomainError(f"turn budget must be >= 0, got {budget}")
    per_code = np.full(space.size, -1, dtype=np.int64)
    per_code_win = np.full(space.size, -1, dtype=np.int64)

    def walk(s: SolutionSet, turns: list[Turn], depth: int, last: int) -> None:
        """last: index of the query of turns[-1], -1 at the root."""
        if len(s) == 1:
            idx = int(s.indices[0])
            per_code[idx] = depth
            per_code_win[idx] = depth if (last == idx or depth == 0) else depth + 1
            return
        if depth >= budget:
            return  # left as -1: not determined within budget
        q = _next_query(strategy, turns, s)
        qi = space.encode(q)
        # a bucket equal to the whole set is allowed (e.g. a basis query that
        # grows the rank without splitting); the turn budget bounds recursion.
        # Each set is split once, so the first set on a path that holds rows
        # computes them and every set below it views that block
        # (SolutionSet); popping each child before its walk frees a block
        # once the sets below it are done, so the sweep holds one.
        children = s.split(qi)
        while children:
            r, child = children.pop(0)
            walk(child, turns + [(q, r)], depth + 1, qi)

    walk(SolutionSet.full(space), [], 0, -1)

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
        config=space.config,
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


def exact_game_value(space: CodeSpace, depth_cap: Optional[int] = None) -> ExactGameValue:
    """Optimal worst-case query count f(n, k) by full game-tree search.

    Iterative deepening over one predicate, within(S, d): can some strategy
    determine every code of S in at most d queries? A singleton needs none;
    otherwise some query must split S into buckets that each pass at d - 1.
    The value is the first d from the information floor ceil_log(b, |S|)
    up to the cap at which the root passes. The base b is the number of
    feedback ids that occur (CodeSpace.n_realised_fids, at least 2), not
    n_fids: in the permutation game black = n - 1 never occurs, and
    white = n - black adds nothing.

    Queries are tried in ascending minimax score (largest bucket), ties to
    the lowest index, as in Knuth's "The computer as Master Mind" (1977).
    The loop stops at the first query whose score is |S| (it does not split
    S) or whose largest bucket needs more than d - 1 queries by the floor
    ceil_log(b, score): scores only ascend, so no later query passes.

    Symmetry pruning. A symmetry g (a position permutation with a color
    relabeling, or, for black pegs with repeats, with one color relabeling
    per position: codespace.Symmetries) preserves feedback, so it maps a
    strategy for S to one for g(S). Each set S carries a group H of the
    symmetries that fix every query played on the way to it
    (SolutionSet.symmetries); they fix every
    response bucket along the way too, so g(S) = S for each g in H. If
    query q passes at S then so does g(q): g maps q's buckets onto g(q)'s
    and each bucket onto a bucket with the same within. Hence the loop
    tries q only if it is the lowest code of its orbit under H
    (Symmetries.labels): the lowest code of a passing query's orbit passes
    too, and it comes before the stop above because g(q) and q have equal
    scores. At the root H holds every symmetry, so only one query per
    color-count pattern is tried; for black pegs with repeats, and without
    repeats, every code is in one orbit, so the root tries code 0 alone.

    One memo, failed[S] = the largest d at which S is known to fail. A
    strategy within d - 1 queries is also within d, so failure at d implies
    failure at every smaller depth, and a recorded d >= the asked depth
    answers False. A query that splits S as an earlier query did is tried
    again: the buckets ahead of the one that failed are searched again, and
    the memo answers that one. Pruning does not change within(S, d), so
    neither does the H a node was reached with. Past a share of physical
    memory (MemoMeter), the search stops with a capacity error.
    """
    cap = default_turn_budget(space.config) if depth_cap is None else depth_cap
    if cap < 0:
        raise DomainError(f"depth cap must be >= 0, got {cap}")
    base = max(2, space.n_realised_fids)
    failed: dict[bytes, int] = {}
    memo = MemoMeter()

    def within(s: SolutionSet, depth: int) -> bool:
        size = len(s)
        if size == 1:
            return True
        key = s.indices.tobytes()
        if failed.get(key, -1) >= depth:
            return False
        scores = s.minimax_scores()
        labels = s.symmetries.labels
        for qi in np.argsort(scores, kind="stable").tolist():
            score = int(scores[qi])
            if score == size or ceil_log(base, score) > depth - 1:
                break
            if labels is not None and labels[qi] != qi:
                continue  # a symmetry of S maps qi to a lower query
            buckets = [child for _, child in s.split(qi)]
            # biggest bucket first fails fastest
            if all(
                within(b, depth - 1)
                for b in sorted(buckets, key=len, reverse=True)
            ):
                return True
        if key not in failed:
            memo.add(len(key))
        failed[key] = depth
        return False

    root = SolutionSet.full(space)
    depth = ceil_log(base, space.size)
    while depth <= cap:
        if within(root, depth):
            return ExactGameValue(depth, False)
        depth += 1
    return ExactGameValue(cap, True)
