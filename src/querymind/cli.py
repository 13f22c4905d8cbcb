"""Experiment runner CLI.

Subcommands: solve, worst-case, exact-value, bounds, adversary-trace,
nonadaptive-search, entropy-audit. Results go to JSON (and CSV where
tabular) under --out; the QUERYMIND_OUT environment variable overrides
--out. Progress goes to stderr, summaries to stdout. Exit codes: 0 success,
1 validation error, 2 capacity error, 3 invariant violation during the run.

Identical argument vectors produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from pathlib import Path
from typing import Optional

from . import engine, nonadaptive
from .codespace import (
    CodeSpace,
    DEFAULT_ENUMERATION_BUDGET,
    FeedbackMode,
    Mode,
    Repeats,
    VariantConfig,
    format_code,
    parse_code,
)
from .combinatorics import bound_report
from .errors import (
    CapacityError,
    ContradictionError,
    DomainError,
    InvalidCodeError,
    ProtocolError,
    QuerymindError,
)
from .strategies import STRATEGY_NAMES, get_strategy

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAPACITY = 2
EXIT_INVARIANT = 3


def _add_config_flags(p: argparse.ArgumentParser, mode_default: str = "adaptive") -> None:
    p.add_argument("--n", type=int, required=True, help="sequence length (>= 1)")
    p.add_argument("--k", type=int, required=True, help="alphabet size (>= 1)")
    p.add_argument(
        "--feedback",
        choices=["b", "bw"],
        default="bw",
        help="b = black pegs only, bw = black and white pegs (default bw)",
    )
    p.add_argument(
        "--repeats",
        choices=["yes", "no"],
        default="yes",
        help="whether codes may repeat colors (no requires k >= n)",
    )
    p.add_argument(
        "--mode",
        choices=["adaptive", "nonadaptive"],
        default=mode_default,
        help=f"feedback timing (default {mode_default})",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--turn-budget", type=int, default=None, help="max turns (default n*k+1)")
    p.add_argument(
        "--space-budget",
        type=int,
        default=None,
        help="max code-space size for this command",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for seeded choices")
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads where a command parallelizes (default: machine)",
    )
    p.add_argument("--out", default=".", help="artifact directory (env QUERYMIND_OUT overrides)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querymind",
        description="Mastermind-variant experiments: solvers, adversaries, exact bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="play one adaptive game against a hidden code")
    _add_config_flags(p)
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="minimax")
    p.add_argument(
        "--hidden",
        default=None,
        help='hidden code as "1,2,3"; default: seeded uniform pick',
    )
    _add_common_flags(p)

    p = sub.add_parser("worst-case", help="sweep every hidden code for a strategy")
    _add_config_flags(p)
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="minimax")
    _add_common_flags(p)

    p = sub.add_parser("exact-value", help="exact optimal worst-case query count")
    _add_config_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("bounds", help="exact lower-bound report for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--log-base", choices=["e", "2"], default="e")
    p.add_argument("--out", default=".")

    p = sub.add_parser("adversary-trace", help="play against the max-bucket adversary")
    _add_config_flags(p)
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="minimax")
    _add_common_flags(p)

    p = sub.add_parser(
        "nonadaptive-search", help="minimal identifiable non-adaptive query set"
    )
    _add_config_flags(p, mode_default="nonadaptive")
    p.add_argument("--s-cap", type=int, default=8, help="largest set size to try")
    p.add_argument(
        "--queries-file",
        default=None,
        help="check this query-set file instead of searching",
    )
    _add_common_flags(p)

    p = sub.add_parser("entropy-audit", help="single-query response entropy")
    _add_config_flags(p, mode_default="nonadaptive")
    p.add_argument("--query", default=None, help="query code; default lex-first")
    _add_common_flags(p)

    return parser


def _config_from(args: argparse.Namespace) -> VariantConfig:
    return VariantConfig(
        n=args.n,
        k=args.k,
        feedback=FeedbackMode(args.feedback),
        repeats=Repeats(args.repeats),
        mode=Mode(args.mode),
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = os.environ.get("QUERYMIND_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolved_spec(args: argparse.Namespace) -> dict:
    spec = {
        key.replace("_", "-"): value
        for key, value in sorted(vars(args).items())
        if key != "out"
    }
    spec["schema-version"] = SCHEMA_VERSION
    return spec


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _space_budget(args: argparse.Namespace, default: int) -> int:
    return default if args.space_budget is None else args.space_budget


def _cmd_solve(args: argparse.Namespace, out: Path) -> int:
    config = _config_from(args)
    space = CodeSpace.enumerate(config, _space_budget(args, DEFAULT_ENUMERATION_BUDGET))
    if args.hidden is not None:
        hidden = parse_code(args.hidden)
    else:
        hidden = space.decode(random.Random(args.seed).randrange(space.size))
    strategy = get_strategy(args.strategy)
    transcript = engine.play_honest(
        strategy, hidden, config, turn_budget=args.turn_budget, space=space
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": _resolved_spec(args),
        "transcript": transcript.to_json(),
    }
    _write_json(out / "solve.json", payload)
    print(
        f"solve: {transcript.outcome} in {len(transcript.turns)} turns"
        + (
            f", solution {format_code(transcript.solution)}"
            if transcript.solution
            else ""
        )
    )
    return EXIT_OK


def _cmd_worst_case(args: argparse.Namespace, out: Path) -> int:
    config = _config_from(args)
    strategy = get_strategy(args.strategy)
    result = engine.worst_case_queries(
        strategy,
        config,
        space_budget=_space_budget(args, engine.DEFAULT_SWEEP_BUDGET),
        turn_budget=args.turn_budget,
        threads=args.threads,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": _resolved_spec(args),
        "result": result.to_json(),
    }
    _write_json(out / "worst_case.json", payload)
    _write_csv(
        out / "worst_case.csv",
        ["queries", "count"],
        [[q, c] for q, c in sorted(result.histogram.items())],
    )
    if result.exhausted:
        print(
            f"worst-case: {len(result.exhausted)} codes not determined "
            f"within the turn budget",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    print(
        f"worst-case: strategy {result.strategy} "
        f"max = {result.max_turns_to_win} turns to win "
        f"({result.max_queries} to determine)"
    )
    return EXIT_OK


def _cmd_exact_value(args: argparse.Namespace, out: Path) -> int:
    config = _config_from(args)
    result = engine.exact_game_value(
        config,
        depth_cap=args.turn_budget,
        space_budget=_space_budget(args, engine.DEFAULT_EXACT_BUDGET),
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": _resolved_spec(args),
        "result": result.to_json(),
    }
    _write_json(out / "exact_value.json", payload)
    capped = " (depth cap reached)" if result.capped else ""
    print(f"exact-value: f = {result.value}{capped}")
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace, out: Path) -> int:
    # k**n has floor(n*log10(k)) + 1 digits; the report writes it as a string
    digit_limit = sys.get_int_max_str_digits()
    if digit_limit and args.k >= 1 and args.n * math.log10(args.k) >= digit_limit:
        raise CapacityError(
            f"k**n for n={args.n}, k={args.k} has more than {digit_limit} digits"
        )
    report = bound_report(args.n, args.k, log_base=args.log_base)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": _resolved_spec(args),
        "report": report.to_json(),
    }
    _write_json(out / "bounds.json", payload)
    print(
        f"bounds: n={args.n} k={args.k} trivial_lb={report.trivial_lb} "
        f"entropy_lb={report.entropy_lb}"
    )
    return EXIT_OK


def _cmd_adversary_trace(args: argparse.Namespace, out: Path) -> int:
    config = _config_from(args)
    strategy = get_strategy(args.strategy)
    transcript = engine.play_adversarial(
        strategy, config, turn_budget=args.turn_budget
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": _resolved_spec(args),
        "transcript": transcript.to_json(),
    }
    _write_json(out / "adversary_trace.json", payload)
    _write_csv(
        out / "adversary_trace.csv",
        ["t", "solution_set_size"],
        [[t, size] for t, size in enumerate(transcript.sizes)],
    )
    print(
        f"adversary-trace: sizes {list(transcript.sizes)} "
        f"({transcript.outcome} after {len(transcript.turns)} turns)"
    )
    return EXIT_OK


def _cmd_nonadaptive_search(args: argparse.Namespace, out: Path) -> int:
    config = _config_from(args)
    if config.mode is not Mode.NON_ADAPTIVE:
        raise DomainError("nonadaptive-search requires --mode nonadaptive")
    space = CodeSpace.enumerate(config)
    if args.queries_file is not None:
        qs = nonadaptive.QuerySet.from_file(args.queries_file, config)
        report = nonadaptive.is_identifiable(qs, space=space)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "spec": _resolved_spec(args),
            "report": report.to_json(),
        }
        _write_json(out / "nonadaptive_check.json", payload)
        print(
            f"nonadaptive-search: file set of size {qs.size} "
            f"identifiable={report.identifiable}"
        )
        return EXIT_OK
    result = nonadaptive.min_nonadaptive_size(
        config,
        s_cap=args.s_cap,
        space_budget=_space_budget(args, 100_000),
        space=space,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": _resolved_spec(args),
        "result": result.to_json(),
    }
    _write_json(out / "nonadaptive_search.json", payload)
    if result.query_set is not None:
        result.query_set.to_file(
            str(out / "nonadaptive_search.queries"),
            comment=f"minimal identifiable set, n={args.n} k={args.k}",
        )
    print(
        f"nonadaptive-search: min size = {result.size}"
        + (" (cap exceeded)" if result.capped else "")
    )
    return EXIT_OK


def _cmd_entropy_audit(args: argparse.Namespace, out: Path) -> int:
    config = _config_from(args)
    if args.query:
        query = parse_code(args.query)
    elif config.repeats is Repeats.FORBIDDEN:
        query = tuple(range(1, config.n + 1))  # lex-first code
    else:
        query = (1,) * config.n
    value = nonadaptive.entropy_audit(config, query)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": _resolved_spec(args),
        "result": {
            "query": format_code(query),
            "entropy_bits": value,
            "below_constant_3": value < 3,
        },
    }
    _write_json(out / "entropy_audit.json", payload)
    print(f"entropy-audit: H = {value:.6f} bits (< 3: {value < 3})")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "worst-case": _cmd_worst_case,
    "exact-value": _cmd_exact_value,
    "bounds": _cmd_bounds,
    "adversary-trace": _cmd_adversary_trace,
    "nonadaptive-search": _cmd_nonadaptive_search,
    "entropy-audit": _cmd_entropy_audit,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        out = _out_dir(args)
        return _COMMANDS[args.command](args, out)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ContradictionError, ProtocolError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (DomainError, InvalidCodeError, QuerymindError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
