"""Output checks against references that share no code with querymind.

Every reference here is built from ``itertools`` and a few-line pure-Python
peg counter. A check raises ``CheckFailed`` naming what disagreed.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def pegs(q: tuple, h: tuple, bw: bool) -> tuple:
    """(black, white) of query q against hidden h; white is None if not bw."""
    black = sum(a == b for a, b in zip(q, h))
    if not bw:
        return (black, None)
    matched = sum(min(q.count(c), h.count(c)) for c in set(q))
    return (black, matched - black)


def space(n: int, k: int, repeats: bool) -> list:
    """Every code, lexicographic, colors 1..k."""
    colors = range(1, k + 1)
    if repeats:
        return list(itertools.product(colors, repeat=n))
    return list(itertools.permutations(colors, n))


def parse(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def load(out_dir: Path, name: str) -> dict:
    path = out_dir / name
    _require(path.is_file(), f"missing artifact {name}")
    return json.loads(path.read_text())


def _partition(codes: list, q: tuple, bw: bool) -> dict:
    buckets: dict = {}
    for c in codes:
        buckets.setdefault(pegs(q, c, bw), []).append(c)
    return buckets


def _answer(turn: dict) -> tuple:
    return (turn["black"], turn["white"])


# -- worst-case sweeps --------------------------------------------------------


def first_consistent_histograms(codes: list, bw: bool) -> tuple:
    """Determination and turns-to-win histograms of the strategy that always
    queries the lexicographically first remaining code."""
    det: dict = {}
    win: dict = {}
    stack = [(codes, 0, None)]
    while stack:
        s, depth, last = stack.pop()
        if len(s) == 1:
            det[depth] = det.get(depth, 0) + 1
            turns = depth if (depth == 0 or last == s[0]) else depth + 1
            win[turns] = win.get(turns, 0) + 1
            continue
        q = s[0]
        for bucket in _partition(s, q, bw).values():
            stack.append((bucket, depth + 1, q))
    return det, win


def check_sweep(
    out_dir: Path,
    n: int,
    k: int,
    repeats: bool,
    bw: bool,
    strategy: str,
    turns_to_win: int | None = None,
) -> None:
    result = load(out_dir, "worst_case.json")["result"]
    size = k**n if repeats else math.perm(k, n)
    hist = {int(q): c for q, c in result["histogram"].items()}
    hist_win = {int(q): c for q, c in result["histogram_win"].items()}
    _require(result["exhausted"] == [], "sweep left codes undetermined")
    _require(sum(hist.values()) == size, "histogram does not sum to the space")
    _require(sum(hist_win.values()) == size, "histogram_win does not sum to the space")
    _require(max(hist) == result["max_queries"], "max_queries is not the histogram max")
    _require(
        max(hist_win) == result["max_turns_to_win"],
        "max_turns_to_win is not the histogram_win max",
    )
    _require(
        len(result["argmax_codes"]) == hist[result["max_queries"]],
        "argmax_codes count differs from the histogram",
    )
    if turns_to_win is not None:
        _require(
            result["max_turns_to_win"] == turns_to_win,
            f"max_turns_to_win {result['max_turns_to_win']} != {turns_to_win}",
        )
    if strategy == "first-consistent":
        det, win = first_consistent_histograms(space(n, k, repeats), bw)
        _require(hist == det, "first-consistent histogram differs from reference")
        _require(hist_win == win, "first-consistent histogram_win differs from reference")


# -- games ----------------------------------------------------------------------


def check_solve(out_dir: Path, n: int, k: int, repeats: bool, bw: bool, hidden: tuple) -> None:
    transcript = load(out_dir, "solve.json")["transcript"]
    _require(transcript["outcome"] == "determined", "solve did not determine the code")
    _require(parse(transcript["solution"]) == hidden, "solve returned the wrong code")
    s = space(n, k, repeats)
    sizes = [len(s)]
    for turn in transcript["turns"]:
        q = parse(turn["query"])
        _require(_answer(turn) == pegs(q, hidden, bw), f"wrong answer to {turn['query']}")
        s = [c for c in s if pegs(q, c, bw) == _answer(turn)]
        sizes.append(len(s))
    _require(sizes == transcript["sizes"], "solve sizes differ from the replay")


def check_adversary(out_dir: Path, n: int, k: int, repeats: bool, bw: bool) -> None:
    """Replay the transcript: every answer must be a largest bucket, and the
    size trace must match, in the JSON and in the CSV."""
    transcript = load(out_dir, "adversary_trace.json")["transcript"]
    s = space(n, k, repeats)
    sizes = [len(s)]
    for turn in transcript["turns"]:
        buckets = _partition(s, parse(turn["query"]), bw)
        chosen = buckets.get(_answer(turn), [])
        _require(
            len(chosen) == max(len(b) for b in buckets.values()),
            f"answer to {turn['query']} is not a largest bucket",
        )
        s = chosen
        sizes.append(len(s))
    _require(sizes == transcript["sizes"], "adversary sizes differ from the replay")
    csv_rows = (out_dir / "adversary_trace.csv").read_text().split()[1:]
    _require(
        csv_rows == [f"{t},{m}" for t, m in enumerate(sizes)],
        "adversary CSV differs from the replay",
    )
    if transcript["outcome"] == "determined":
        _require(
            len(s) == 1 and parse(transcript["solution"]) == s[0],
            "adversary solution is not the last remaining code",
        )


# -- searches -------------------------------------------------------------------


def check_nonadaptive(out_dir: Path, n: int, k: int, repeats: bool) -> None:
    result = load(out_dir, "nonadaptive_search.json")["result"]
    _require(not result["capped"], "nonadaptive search hit its cap")
    queries = [parse(q) for q in result["queries"]]
    _require(len(queries) == result["size"], "query count differs from size")
    codes = space(n, k, repeats)
    _require(all(q in codes for q in queries), "query set holds an invalid code")
    vectors = {tuple(pegs(q, c, False)[0] for q in queries) for c in codes}
    _require(len(vectors) == len(codes), "query set is not identifiable")


def _minimax_depth(codes: list, bw: bool) -> int:
    """Worst-case determination depth of a max-bucket-minimizing strategy,
    an upper bound on the optimal game value."""
    worst = 0
    stack = [(codes, 0)]
    while stack:
        s, depth = stack.pop()
        if len(s) == 1:
            worst = max(worst, depth)
            continue
        best = None
        for q in codes:
            buckets = _partition(s, q, bw)
            score = max(len(b) for b in buckets.values())
            if len(buckets) > 1 and (best is None or score < best[0]):
                best = (score, buckets)
        stack.extend((b, depth + 1) for b in best[1].values())
    return worst


def _counting_floor(m: int, responses: int) -> int:
    depth = 0
    while responses**depth < m:
        depth += 1
    return depth


def check_exact_value(out_dir: Path, n: int, k: int, repeats: bool, bw: bool) -> None:
    """The optimal value must lie between a one-query-deep counting bound and
    the depth of an explicit strategy; both are computed here."""
    result = load(out_dir, "exact_value.json")["result"]
    _require(not result["capped"], "exact value hit the depth cap")
    codes = space(n, k, repeats)
    responses = (n + 1) ** 2 if bw else n + 1
    lower = 1 + min(
        max(_counting_floor(len(b), responses) for b in _partition(codes, q, bw).values())
        for q in codes
    )
    upper = _minimax_depth(codes, bw)
    _require(
        lower <= result["value"] <= upper,
        f"exact value {result['value']} outside [{lower}, {upper}]",
    )
