"""Experiment runner CLI.

Subcommands: solve, worst-case, exact-value, bounds, adversary-trace,
nonadaptive-search, entropy-audit. Results go to JSON (and CSV where
tabular) under --out; the QUERYMIND_OUT environment variable overrides
--out. Each command prints a one-line summary to stdout. Errors go to
stderr, one line each: "validation error: ...", "capacity error: ..." or
"invariant violation: ...", and worst-case reports there how many codes its
turn budget left undetermined. Nothing reports progress. Exit codes: 0
success, 1 validation error, 2 capacity error, 3 invariant violation during
the run.

A process loads only the layers its command runs. This module imports
codespace (and numpy with it) and errors; solve, worst-case, exact-value
and adversary-trace load engine and strategies; nonadaptive-search loads
nonadaptive; entropy-audit, and a --queries-file check of a
repeats-forbidden space, load nonadaptive and combinatorics; bounds loads
combinatorics. run builds the flags of the command it was asked for only.

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
from typing import Callable, NamedTuple, Optional

from .codespace import (
    CodeSpace,
    DEFAULT_ENUMERATION_BUDGET,
    FeedbackMode,
    Mode,
    Repeats,
    VariantConfig,
    check_table_memory,
    format_code,
    parse_code,
    symmetry_bytes,
)
from .errors import (
    CapacityError,
    ContradictionError,
    DomainError,
    InvalidCodeError,
    ProtocolError,
    QuerymindError,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAPACITY = 2
EXIT_INVARIANT = 3

# default --space-budget of each command that checks the memory of a whole
# feedback table, and the name a refusal gives that budget
_TABLE_BUDGETS = {
    "solve": (DEFAULT_ENUMERATION_BUDGET, "enumeration"),
    "worst-case": (5_000, "sweep"),
    "exact-value": (360, "exact-solver"),
    "adversary-trace": (DEFAULT_ENUMERATION_BUDGET, "enumeration"),
    "nonadaptive-search": (100_000, "search"),
}


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


def _add_budget_flags(
    p: argparse.ArgumentParser, command: str, turns: bool = True, note: str = ""
) -> None:
    """--space-budget of a _TABLE_BUDGETS command, and --turn-budget if the
    command plays turns."""
    if turns:
        p.add_argument("--turn-budget", type=int, default=None, help="max turns (default n*k+1)")
    p.add_argument(
        "--space-budget",
        type=int,
        default=None,
        help=f"max code-space size (default {_TABLE_BUDGETS[command][0]}{note})",
    )


def _add_strategy_flag(p: argparse.ArgumentParser) -> None:
    from .strategies import STRATEGY_NAMES

    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="minimax")


def _solve_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p)
    _add_strategy_flag(p)
    p.add_argument(
        "--hidden",
        default=None,
        help='hidden code as "1,2,3"; default: seeded uniform pick',
    )
    p.add_argument("--seed", type=int, default=0, help="seed of the hidden-code pick")
    _add_budget_flags(p, "solve")


def _worst_case_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p)
    _add_strategy_flag(p)
    _add_budget_flags(p, "worst-case")


def _exact_value_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p)
    _add_budget_flags(p, "exact-value")


def _bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--log-base", choices=["e", "2"], default="e")


def _adversary_trace_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p)
    _add_strategy_flag(p)
    _add_budget_flags(p, "adversary-trace")


def _nonadaptive_search_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, mode_default="nonadaptive")
    p.add_argument("--s-cap", type=int, default=8, help="largest set size to try")
    p.add_argument(
        "--queries-file",
        default=None,
        help="check this query-set file instead of searching",
    )
    _add_budget_flags(
        p,
        "nonadaptive-search",
        turns=False,
        note=f"; {DEFAULT_ENUMERATION_BUDGET} with --queries-file",
    )


def _entropy_audit_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, mode_default="nonadaptive")
    p.add_argument("--query", default=None, help="query code; default lex-first")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the flags of `command` only, or
    of every subcommand when it is None (as the top-level --help needs).

    A subcommand without its flags refuses any flag, so parse an argument
    vector only with the parser of its own command, or of None.
    """
    parser = argparse.ArgumentParser(
        prog="querymind",
        description="Mastermind-variant experiments: solvers, adversaries, exact bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _COMMANDS.items():
        p = sub.add_parser(name, help=entry.help)
        if command in (None, name):
            entry.add_flags(p)
            p.add_argument(
                "--out", default=".", help="artifact directory (env QUERYMIND_OUT overrides)"
            )
    return parser


def _config_from(args: argparse.Namespace, required: Optional[Mode] = None) -> VariantConfig:
    """The config of the flags; DomainError if the command plays only in
    the required mode and --mode names the other."""
    config = VariantConfig(
        n=args.n,
        k=args.k,
        feedback=FeedbackMode(args.feedback),
        repeats=Repeats(args.repeats),
        mode=Mode(args.mode),
    )
    if required is not None and config.mode is not required:
        raise DomainError(f"{args.command} requires --mode {required.value}")
    return config


def _out_dir(args: argparse.Namespace) -> Path:
    path = Path(os.environ.get("QUERYMIND_OUT") or args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(
            f"cannot create output directory {str(path)!r}: {exc.strerror or exc}"
        ) from None
    return path


def _resolved_spec(args: argparse.Namespace) -> dict:
    spec = {
        key.replace("_", "-"): value
        for key, value in sorted(vars(args).items())
        if key != "out"
    }
    spec["schema-version"] = SCHEMA_VERSION
    return spec


def _write_result(
    out: Path, stem: str, args: argparse.Namespace, key: str, body: dict
) -> None:
    """Write out/<stem>.json: the schema version, the resolved spec and body."""
    payload = {"schema_version": SCHEMA_VERSION, "spec": _resolved_spec(args), key: body}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path = out / f"{stem}.json"
    try:
        path.write_text(text)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _unwritable(path: Path, exc: OSError) -> DomainError:
    return DomainError(f"cannot write artifact {str(path)!r}: {exc.strerror or exc}")


def _space_budget(args: argparse.Namespace, default: int) -> int:
    """--space-budget, or default if it is not given; DomainError if it is
    negative."""
    budget = default if args.space_budget is None else args.space_budget
    if budget < 0:
        raise DomainError(f"space budget must be >= 0, got {budget}")
    return budget


def _table_space(args: argparse.Namespace, config: VariantConfig) -> CodeSpace:
    """The space of a command whose feedback rows are bounded by one whole
    size x size table (see check_table_memory); an adaptive command also
    keeps the symmetries of its sets beside it (symmetry_bytes). The
    command's space budget is checked first, then the memory, so a refused
    request costs no enumeration; symmetry_bytes is only called on a space
    within the budget."""
    default, name = _TABLE_BUDGETS[args.command]
    budget = _space_budget(args, default)
    if config.space_size > budget:
        raise CapacityError(
            f"space size {config.space_size} exceeds {name} budget {budget}"
        )
    extra = symmetry_bytes(config) if config.mode is Mode.ADAPTIVE else 0
    size = config.space_size
    check_table_memory(config, size, size, extra)
    return CodeSpace.enumerate(config, budget)


def _cmd_solve(args: argparse.Namespace, out: Path) -> int:
    from . import engine
    from .strategies import get_strategy

    space = _table_space(args, _config_from(args, Mode.ADAPTIVE))
    if args.hidden is not None:
        hidden = parse_code(args.hidden)
    else:
        hidden = space.decode(random.Random(args.seed).randrange(space.size))
    strategy = get_strategy(args.strategy)
    transcript = engine.play_honest(strategy, hidden, space, turn_budget=args.turn_budget)
    _write_result(out, "solve", args, "transcript", transcript.to_json())
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
    from . import engine
    from .strategies import get_strategy

    space = _table_space(args, _config_from(args, Mode.ADAPTIVE))
    strategy = get_strategy(args.strategy)
    result = engine.worst_case_queries(strategy, space, turn_budget=args.turn_budget)
    _write_result(out, "worst_case", args, "result", result.to_json())
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
    from . import engine

    space = _table_space(args, _config_from(args, Mode.ADAPTIVE))
    result = engine.exact_game_value(space, depth_cap=args.turn_budget)
    _write_result(out, "exact_value", args, "result", result.to_json())
    capped = " (depth cap reached)" if result.capped else ""
    print(f"exact-value: f = {result.value}{capped}")
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace, out: Path) -> int:
    from .combinatorics import bound_report

    # k**n has floor(n*log10(k)) + 1 digits; the report writes it as a string
    digit_limit = sys.get_int_max_str_digits()
    if digit_limit and args.k >= 1 and args.n * math.log10(args.k) >= digit_limit:
        raise CapacityError(
            f"k**n for n={args.n}, k={args.k} has more than {digit_limit} digits"
        )
    report = bound_report(args.n, args.k, log_base=args.log_base)
    _write_result(out, "bounds", args, "report", report.to_json())
    print(
        f"bounds: n={args.n} k={args.k} trivial_lb={report.trivial_lb} "
        f"entropy_lb={report.entropy_lb}"
    )
    return EXIT_OK


def _cmd_adversary_trace(args: argparse.Namespace, out: Path) -> int:
    from . import engine
    from .strategies import get_strategy

    space = _table_space(args, _config_from(args, Mode.ADAPTIVE))
    strategy = get_strategy(args.strategy)
    transcript = engine.play_adversarial(strategy, space, turn_budget=args.turn_budget)
    _write_result(out, "adversary_trace", args, "transcript", transcript.to_json())
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
    from . import nonadaptive

    config = _config_from(args, Mode.NON_ADAPTIVE)
    if args.queries_file is not None:
        space = CodeSpace.enumerate(config, _space_budget(args, DEFAULT_ENUMERATION_BUDGET))
        qs = nonadaptive.QuerySet.from_file(args.queries_file, config)
        report = nonadaptive.is_identifiable(qs, space)
        _write_result(out, "nonadaptive_check", args, "report", report.to_json())
        print(
            f"nonadaptive-search: file set of size {qs.size} "
            f"identifiable={report.identifiable}"
        )
        return EXIT_OK
    result = nonadaptive.min_nonadaptive_size(_table_space(args, config), args.s_cap)
    _write_result(out, "nonadaptive_search", args, "result", result.to_json())
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
    from . import nonadaptive

    config = _config_from(args)
    # the audit rejects repeats-allowed configs, so 1..n is the lex-first code
    query = parse_code(args.query) if args.query else tuple(range(1, config.n + 1))
    value = nonadaptive.entropy_audit(config, query)
    body = {"query": format_code(query), "entropy_bits": value, "below_constant_3": value < 3}
    _write_result(out, "entropy_audit", args, "result", body)
    print(f"entropy-audit: H = {value:.6f} bits (< 3: {value < 3})")
    return EXIT_OK


class _Command(NamedTuple):
    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace, Path], int]


_COMMANDS = {
    "solve": _Command(
        "play one adaptive game against a hidden code", _solve_flags, _cmd_solve
    ),
    "worst-case": _Command(
        "sweep every hidden code for a strategy", _worst_case_flags, _cmd_worst_case
    ),
    "exact-value": _Command(
        "exact optimal worst-case query count", _exact_value_flags, _cmd_exact_value
    ),
    "bounds": _Command("exact lower-bound report for (n, k)", _bounds_flags, _cmd_bounds),
    "adversary-trace": _Command(
        "play against the max-bucket adversary", _adversary_trace_flags, _cmd_adversary_trace
    ),
    "nonadaptive-search": _Command(
        "minimal identifiable non-adaptive query set",
        _nonadaptive_search_flags,
        _cmd_nonadaptive_search,
    ),
    "entropy-audit": _Command(
        "single-query response entropy", _entropy_audit_flags, _cmd_entropy_audit
    ),
}


def run(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # any vector that does not start with a command name (--help, an unknown
    # command) is parsed by the parser with every flag
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        out = _out_dir(args)
        return _COMMANDS[args.command].handler(args, out)
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
