import csv
import hashlib
import json
import math
import os
import re

import pytest

from querymind import _kernels, codespace
from querymind.cli import build_parser, run
from querymind.codespace import (
    CodeSpace,
    FeedbackMode,
    Mode,
    Repeats,
    VariantConfig,
    symmetry_bytes,
)
from querymind.errors import DomainError
from querymind.nonadaptive import entropy_audit


def read_json(path):
    return json.loads(path.read_text())


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "3", "--k", "3", "--seed", "7"],
            ["worst-case", "--n", "3", "--k", "3"],
        ],
        ids=["solve", "worst-case"],
    )
    def test_artifacts_do_not_depend_on_core_count(self, argv, tmp_path, monkeypatch):
        digests = []
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            out = tmp_path / str(cores)
            assert run([*argv, "--out", str(out)]) == 0
            digests.append(
                {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            )
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["worst-case", "--threads", "2"],
            ["exact-value", "--seed", "1"],
            ["adversary-trace", "--seed", "1"],
            ["nonadaptive-search", "--turn-budget", "3"],
            ["entropy-audit", "--space-budget", "5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flag_the_command_does_not_read_is_refused(self, argv, tmp_path):
        # the other flags are valid for every command: only the flag is refused
        command, *flag = argv
        config = ["--n", "2", "--k", "2", "--repeats", "no"]
        assert run([command, *config, *flag, "--out", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []


# an argument vector per command that uses every one of its flags
EVERY_FLAG = {
    "solve": "--n 3 --k 3 --feedback b --repeats no --mode adaptive --strategy basis "
    "--hidden 1,2,3 --seed 4 --turn-budget 5 --space-budget 6 --out o",
    "worst-case": "--n 3 --k 3 --feedback b --repeats no --mode nonadaptive "
    "--strategy first-consistent --turn-budget 5 --space-budget 6 --out o",
    "exact-value": "--n 3 --k 3 --feedback b --repeats no --mode adaptive "
    "--turn-budget 5 --space-budget 6 --out o",
    "bounds": "--n 3 --k 3 --log-base 2 --out o",
    "adversary-trace": "--n 3 --k 3 --feedback b --repeats yes --mode adaptive "
    "--strategy minimax --turn-budget 5 --space-budget 6 --out o",
    "nonadaptive-search": "--n 3 --k 3 --feedback bw --repeats no --mode adaptive "
    "--s-cap 3 --queries-file q --space-budget 6 --out o",
    "entropy-audit": "--n 3 --k 3 --feedback b --repeats no --mode adaptive "
    "--query 1,2,3 --out o",
}


def _help(parser, argv, capsys) -> str:
    with pytest.raises(SystemExit):
        parser.parse_args([*argv, "--help"])
    return capsys.readouterr().out


class TestParser:
    """build_parser(command) adds only that command's flags; what it parses
    and prints must equal the full parser's."""

    @pytest.mark.parametrize("command", list(EVERY_FLAG))
    def test_one_command_parses_as_the_full_parser(self, command, capsys):
        argv = [command, *EVERY_FLAG[command].split()]
        full, one = build_parser(), build_parser(command)
        flags = set(re.findall(r"(?<![\w-])--[a-z-]+", _help(full, [command], capsys)))
        assert flags - {"--help"} == {a for a in argv if a.startswith("--")}
        assert one.parse_args(argv) == full.parse_args(argv)
        assert one.format_help() == full.format_help()
        assert _help(one, [command], capsys) == _help(full, [command], capsys)

    def test_one_command_refuses_the_flags_of_another(self):
        with pytest.raises(SystemExit):
            build_parser("solve").parse_args(["bounds", "--n", "3", "--k", "3"])

    def test_no_command_builds_every_flag(self):
        # perfbench/envinfo.py parses with build_parser() this way
        args = build_parser().parse_args(["worst-case", "--n", "1", "--k", "1"])
        assert (args.strategy, args.space_budget, args.out) == ("minimax", None, ".")
        for command, flags in EVERY_FLAG.items():
            build_parser().parse_args([command, *flags.split()])

    @pytest.mark.parametrize(
        "argv",
        [
            ["no-such-command", "--n", "3"],
            ["solve", "--k", "3"],
            ["worst-case", "--n", "2", "--k", "2", "--strategy", "no-such-strategy"],
        ],
        ids=["unknown command", "missing --n", "bad --strategy"],
    )
    def test_refusals_exit_1_with_the_full_parsers_message(self, argv, tmp_path, capsys):
        argv = [*argv, "--out", str(tmp_path)]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        expected = capsys.readouterr().err
        assert run(argv) == 1
        assert capsys.readouterr().err == expected


class TestExitCodes:
    def test_invalid_n(self, tmp_path, capsys):
        assert run(["bounds", "--n", "0", "--k", "3", "--out", str(tmp_path)]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_repeats_forbidden_needs_k_ge_n(self, tmp_path, capsys):
        code = run(
            [
                "solve",
                "--n", "3", "--k", "2",
                "--repeats", "no",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_unknown_flag(self, tmp_path):
        assert run(["bounds", "--n", "2", "--k", "2", "--frobnicate"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_capacity(self, tmp_path, capsys):
        code = run(
            [
                "worst-case",
                "--n", "4", "--k", "6",
                "--space-budget", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "capacity error" in capsys.readouterr().err

    def test_bounds_too_many_digits_is_capacity(self, tmp_path, capsys):
        code = run(["bounds", "--n", "1500", "--k", "1500", "--out", str(tmp_path)])
        assert code == 2
        assert "capacity error" in capsys.readouterr().err
        assert not (tmp_path / "bounds.json").exists()

    def test_table_beyond_physical_memory_is_capacity(self, tmp_path, capsys):
        # perm-9 has 362880 codes: its feedback table would need 245 GiB
        code = run(
            [
                "solve",
                "--n", "9", "--k", "9",
                "--repeats", "no", "--feedback", "b",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "capacity error" in capsys.readouterr().err
        assert not (tmp_path / "solve.json").exists()

    def test_adversary_trace_honours_space_budget(self, tmp_path, capsys):
        code = run(
            [
                "adversary-trace",
                "--n", "4", "--k", "4",
                "--repeats", "no", "--feedback", "b",
                "--space-budget", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "capacity error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_queries_file_check_honours_space_budget(self, tmp_path, capsys):
        qfile = tmp_path / "probe.queries"
        qfile.write_text("1,2,3\n1,3,2\n2,1,3\n2,3,1\n")
        code = run(
            [
                "nonadaptive-search",
                "--n", "3", "--k", "3",
                "--repeats", "no", "--feedback", "b",
                "--queries-file", str(qfile),
                "--space-budget", "5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "capacity error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [qfile]

    def test_search_checks_space_budget_before_enumerating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated an over-budget space")

        monkeypatch.setattr(CodeSpace, "enumerate", refuse)
        code = run(
            [
                "nonadaptive-search",
                "--n", "5", "--k", "5",
                "--repeats", "yes", "--feedback", "b",
                "--space-budget", "100",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "space size 3125 exceeds search budget 100" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, budget, name",
        [
            ("solve", 10_000_000, "enumeration"),
            ("worst-case", 5_000, "sweep"),
            ("exact-value", 360, "exact-solver"),
            ("adversary-trace", 10_000_000, "enumeration"),
            ("nonadaptive-search", 100_000, "search"),
        ],
        ids=["solve", "worst-case", "exact-value", "adversary-trace", "nonadaptive-search"],
    )
    def test_default_space_budget_checked_before_enumerating(
        self, command, budget, name, tmp_path, capsys, monkeypatch
    ):
        # n = 1 and k = default + 1: one code more than the command's budget
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated an over-budget space")

        monkeypatch.setattr(CodeSpace, "enumerate", refuse)
        code = run([command, "--n", "1", "--k", str(budget + 1), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"space size {budget + 1} exceeds {name} budget {budget}" in err
        assert list(tmp_path.iterdir()) == []

    def test_exact_value_budget_checked_before_counting_stabilisers(
        self, tmp_path, capsys, monkeypatch
    ):
        # 100**100 codes: the space budget refuses them before the memory
        # check counts their symmetries
        def refuse(*args, **kwargs):
            raise AssertionError("counted the symmetries of an over-budget space")

        monkeypatch.setattr("querymind.cli.symmetry_bytes", refuse)
        monkeypatch.setattr(CodeSpace, "enumerate", refuse)
        code = run(["exact-value", "--n", "100", "--k", "100", "--out", str(tmp_path)])
        assert code == 2
        assert f"space size {100**100} exceeds exact-solver budget 360" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_search_table_beyond_physical_memory_is_capacity(self, tmp_path, capsys):
        # 8**6 = 262144 codes: the black-count rows of every query need 137 GB
        code = run(
            [
                "nonadaptive-search",
                "--n", "6", "--k", "8",
                "--repeats", "yes", "--feedback", "b",
                "--space-budget", "300000",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "capacity error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command", ["solve", "adversary-trace", "worst-case", "exact-value"]
    )
    def test_table_checked_before_enumerating(self, command, tmp_path, capsys, monkeypatch):
        # 10**6 codes fit the space budget (raised where its default is
        # smaller), their 2 TB table does not
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a space whose table cannot be built")

        monkeypatch.setattr(CodeSpace, "enumerate", refuse)
        budget = [] if command in ("solve", "adversary-trace") else ["--space-budget", "2000000"]
        code = run(
            [command, "--n", "6", "--k", "10", "--feedback", "b", *budget, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "capacity error: feedback table of" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "worst-case", "exact-value", "adversary-trace"])
    def test_adaptive_commands_reject_nonadaptive_mode(self, command, tmp_path, capsys):
        code = run(
            [command, "--n", "3", "--k", "3", "--mode", "nonadaptive", "--out", str(tmp_path)]
        )
        assert code == 1
        assert f"{command} requires --mode adaptive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_colors_beyond_int16_is_capacity(self, tmp_path, capsys):
        code = run(
            ["solve", "--n", "1", "--k", "40000", "--hidden", "40000", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "capacity error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
    def test_unreadable_queries_file_is_validation(self, kind, tmp_path, capsys):
        path = tmp_path / "absent.queries" if kind == "missing" else tmp_path
        if kind == "latin-1":
            path = tmp_path / "latin.queries"
            path.write_bytes("# n=2 k=2 caf\u00e9\n1,2\n".encode("latin-1"))
        argv = ["nonadaptive-search", "--n", "2", "--k", "2", "--queries-file", str(path)]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: cannot read query file")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "nonadaptive_check.json").exists()

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["bounds", "--n", "3", "--k", "3"], "bounds.json"),
            (["worst-case", "--n", "2", "--k", "2"], "worst_case.csv"),
            (["nonadaptive-search", "--n", "2", "--k", "2"], "nonadaptive_search.queries"),
        ],
        ids=["json", "csv", "queries"],
    )
    def test_unwritable_artifact_is_validation(self, argv, blocked, tmp_path, capsys):
        # a directory where the artifact goes cannot be written as a file
        (tmp_path / blocked).mkdir()
        assert run([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: cannot write")
        assert blocked in err and err.count("\n") == 1

    def test_uncreatable_out_dir_is_validation(self, tmp_path, capsys):
        # a regular file cannot hold a directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["bounds", "--n", "3", "--k", "3", "--out", str(blocker / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: cannot create output directory")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["worst-case"],
            ["exact-value"],
            ["adversary-trace"],
            ["nonadaptive-search"],
            ["nonadaptive-search", "--queries-file", "absent.queries"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_negative_space_budget_is_validation(self, argv, tmp_path, capsys):
        config = ["--n", "2", "--k", "2", "--feedback", "b"]
        for budget, code, err in [("-1", 1, "space budget must be >= 0"), ("0", 2, "capacity error")]:
            assert run([*argv, *config, "--space-budget", budget, "--out", str(tmp_path)]) == code
            assert err in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_s_cap_is_validation(self, tmp_path, capsys):
        argv = ["nonadaptive-search", "--n", "2", "--k", "3", "--feedback", "b"]
        assert run([*argv, "--s-cap", "-1", "--out", str(tmp_path)]) == 1
        assert "set size cap must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run([*argv, "--s-cap", "0", "--out", str(tmp_path)]) == 0
        assert "min size = None (cap exceeded)" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


class TestBounds:
    def test_values_and_artifact(self, tmp_path, capsys):
        assert run(["bounds", "--n", "4", "--k", "4", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trivial_lb=3" in out and "entropy_lb=2" in out
        payload = read_json(tmp_path / "bounds.json")
        assert payload["schema_version"] == 1
        assert payload["report"]["trivial_lb"] == 3
        assert payload["report"]["entropy_lb"] == 2
        assert payload["spec"]["n"] == 4

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["bounds", "--n", "4", "--k", "5", "--out", str(d)]) == 0
        assert (a / "bounds.json").read_bytes() == (b / "bounds.json").read_bytes()


class TestSolve:
    def test_trivial_space(self, tmp_path, capsys):
        assert run(["solve", "--n", "1", "--k", "1", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "solve.json")
        t = payload["transcript"]
        assert t["outcome"] == "determined"
        assert t["turns"] == [] and t["solution"] == "1"

    def test_hidden_code_and_strategy_flags(self, tmp_path):
        code = run(
            [
                "solve",
                "--n", "4", "--k", "6",
                "--feedback", "bw",
                "--strategy", "basis",
                "--hidden", "3,6,1,2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        t = read_json(tmp_path / "solve.json")["transcript"]
        assert t["outcome"] == "determined" and t["solution"] == "3,6,1,2"

    def test_seeded_pick_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["solve", "--n", "3", "--k", "3", "--seed", "7"]
        for d in (a, b):
            assert run(common + ["--out", str(d)]) == 0
        ja, jb = read_json(a / "solve.json"), read_json(b / "solve.json")
        assert ja["transcript"] == jb["transcript"]

    def test_invalid_hidden(self, tmp_path):
        code = run(
            [
                "solve",
                "--n", "2", "--k", "2",
                "--repeats", "no",
                "--hidden", "1,1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1


class TestWorstCase:
    def test_perm3_artifacts(self, tmp_path, capsys):
        code = run(
            [
                "worst-case",
                "--n", "3", "--k", "3",
                "--repeats", "no",
                "--strategy", "minimax",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "worst_case.json")
        result = payload["result"]
        assert result["max_queries"] <= result["max_turns_to_win"] <= 9 + 1
        with open(tmp_path / "worst_case.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["queries", "count"]
        assert sum(int(r[1]) for r in rows[1:]) == 6

    def test_env_out_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("QUERYMIND_OUT", str(env_dir))
        code = run(
            [
                "worst-case",
                "--n", "2", "--k", "2",
                "--repeats", "no",
                "--out", str(flag_dir),
            ]
        )
        assert code == 0
        assert (env_dir / "worst_case.json").exists()
        assert not flag_dir.exists()

    @pytest.mark.parametrize("spare, code", [(-1, 2), (0, 0)], ids=["short", "fits"])
    @pytest.mark.parametrize("n, k", [(4, 6), (1, 40)])
    def test_memory_check_counts_two_tables(
        self, n, k, spare, code, tmp_path, capsys, monkeypatch
    ):
        # a sweep holds the rows of one bucket of the whole space at a
        # time, within one table even on (1,40) where that bucket is all
        # but one code, and the list of symmetries of one group; one byte
        # short of that is refused before enumerating (the name is from when
        # a sweep copied the set it split and worst-case checked two tables)
        config = VariantConfig(n, k)
        size = config.space_size
        need = _kernels.feedback_bytes(size, size, n, k, True) + symmetry_bytes(config)
        pages = {"SC_PHYS_PAGES": need + spare, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr("querymind.codespace.os.sysconf", pages.__getitem__)
        argv = ["worst-case", "--n", str(n), "--k", str(k), "--strategy", "minimax"]
        assert run([*argv, "--out", str(tmp_path)]) == code
        assert ("capacity error" in capsys.readouterr().err) == (code == 2)
        assert (tmp_path / "worst_case.json").exists() == (code == 0)

    def test_negative_turn_budget_is_validation(self, tmp_path, capsys):
        code = run(
            ["worst-case", "--n", "3", "--k", "3", "--turn-budget", "-1", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "turn budget must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExactValue:
    def test_perm3(self, tmp_path, capsys):
        code = run(
            [
                "exact-value",
                "--n", "3", "--k", "3",
                "--repeats", "no",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "exact_value.json")
        assert payload["result"] == {"value": 3, "capped": False}

    @pytest.mark.parametrize("spare, code", [(-1, 2), (0, 1)], ids=["short", "fits"])
    def test_stabilisers_count_in_memory_check(self, spare, code, tmp_path, capsys, monkeypatch):
        # perm-7: a list of at most 5040 pairs of 7 + 7 + 1 int16 beside the
        # table; one byte short of both is refused before enumerating
        config = VariantConfig(7, 7, feedback=FeedbackMode.BLACK_ONLY, repeats=Repeats.FORBIDDEN)
        need = _kernels.feedback_bytes(5040, 5040, 7, 7, False) + symmetry_bytes(config)
        assert symmetry_bytes(config) == 2 * 15 * 5040
        pages = {"SC_PHYS_PAGES": need + spare, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr("querymind.codespace.os.sysconf", pages.__getitem__)

        def reached(*args, **kwargs):
            raise DomainError("enumerated")

        monkeypatch.setattr(CodeSpace, "enumerate", reached)
        argv = ["exact-value", "--n", "7", "--k", "7", "--repeats", "no", "--feedback", "b"]
        assert run([*argv, "--space-budget", "5040", "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert ("beside the table" in err) == (code == 2)
        assert list(tmp_path.iterdir()) == []

    def test_memo_over_budget_is_capacity(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(codespace, "MEMO_MEMORY_SHARE", 1e-12)
        argv = ["exact-value", "--n", "4", "--k", "4", "--repeats", "no", "--feedback", "b"]
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert "failed solution sets needs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_turn_budget_is_validation(self, tmp_path, capsys):
        code = run(
            ["exact-value", "--n", "3", "--k", "3", "--turn-budget", "-1", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "depth cap must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestAdversaryTrace:
    def test_perm3_csv(self, tmp_path):
        code = run(
            [
                "adversary-trace",
                "--n", "3", "--k", "3",
                "--repeats", "no",
                "--turn-budget", "6",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "adversary_trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "solution_set_size"]
        assert rows[1] == ["0", "6"]
        sizes = [int(r[1]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestNonadaptive:
    def test_search_writes_queries_file(self, tmp_path, capsys):
        code = run(
            [
                "nonadaptive-search",
                "--n", "2", "--k", "2",
                "--feedback", "b",
                "--repeats", "no",
                "--mode", "nonadaptive",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert "min size = 1" in capsys.readouterr().out
        payload = read_json(tmp_path / "nonadaptive_search.json")
        assert payload["result"]["size"] == 1
        assert (tmp_path / "nonadaptive_search.queries").exists()

    def test_requires_nonadaptive_mode(self, tmp_path):
        code = run(
            [
                "nonadaptive-search",
                "--n", "2", "--k", "2",
                "--repeats", "no",
                "--mode", "adaptive",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_check_mode(self, tmp_path):
        qfile = tmp_path / "probe.queries"
        qfile.write_text("1,2,3\n1,3,2\n2,1,3\n2,3,1\n")
        code = run(
            [
                "nonadaptive-search",
                "--n", "3", "--k", "3",
                "--feedback", "b",
                "--repeats", "no",
                "--mode", "nonadaptive",
                "--queries-file", str(qfile),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "nonadaptive_check.json")
        assert payload["report"]["identifiable"] is True


class TestEntropyAudit:
    def test_perm4(self, tmp_path, capsys):
        code = run(
            [
                "entropy-audit",
                "--n", "4", "--k", "4",
                "--feedback", "b",
                "--repeats", "no",
                "--mode", "nonadaptive",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = read_json(tmp_path / "entropy_audit.json")
        assert payload["result"]["entropy_bits"] == pytest.approx(1.75)
        assert payload["result"]["below_constant_3"] is True

    def test_closed_form_without_enumeration(self, tmp_path):
        # 12! codes exceed the enumeration budget; the audit needs none
        code = run(
            [
                "entropy-audit",
                "--n", "12", "--k", "12",
                "--repeats", "no",
                "--feedback", "b",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        config = VariantConfig(
            12, 12, feedback=FeedbackMode.BLACK_ONLY, repeats=Repeats.FORBIDDEN,
            mode=Mode.NON_ADAPTIVE,
        )
        payload = read_json(tmp_path / "entropy_audit.json")
        assert payload["result"]["query"] == "1,2,3,4,5,6,7,8,9,10,11,12"
        assert payload["result"]["entropy_bits"] == entropy_audit(
            config, tuple(range(1, 13))
        )

    def test_rejects_repeats(self, tmp_path):
        code = run(
            [
                "entropy-audit",
                "--n", "2", "--k", "2",
                "--mode", "nonadaptive",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_past_the_smallest_double(self, tmp_path, capsys):
        # P[black = 178] = 1/178! is below the smallest double
        argv = ["entropy-audit", "--n", "178", "--k", "178", "--repeats", "no"]
        assert run([*argv, "--out", str(tmp_path)]) == 0
        assert "H = 1.882489 bits" in capsys.readouterr().out


# k!/(k-n)! is a product of n factors: a million colors cost no factorial of
# a million
@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["solve", "--n", "2", "--k", "1000000", "--repeats", "no"], 2),
        (["bounds", "--n", "3", "--k", "1000000"], 0),
        (["entropy-audit", "--n", "3", "--k", "1000000", "--repeats", "no"], 0),
    ],
    ids=["solve", "bounds", "entropy-audit"],
)
def test_large_alphabets_take_no_large_factorial(argv, exit_code, tmp_path, monkeypatch):
    factorial = math.factorial

    def small(m):
        assert m <= 1000, f"computed {m}!"
        return factorial(m)

    monkeypatch.setattr(math, "factorial", small)
    assert run([*argv, "--out", str(tmp_path)]) == exit_code


# sha256 of every artifact: a speedup must leave them byte-identical. Every
# flag the command reads is explicit because the resolved spec is written
# into the artifact.
PINNED_ARTIFACTS = {
    "worst-case --n 3 --k 3 --feedback bw --repeats yes --mode adaptive --strategy minimax --turn-budget 10 --space-budget 27": {
        "worst_case.csv": "9ca9e823a18f41677f021c128a462021ec5b7f2794bb94abc876bb1aa4a971a8",
        "worst_case.json": "e7ff2fe283121671edf51426d54aad870f1411f91dd034db4b0e5601ade01996",
    },
    "worst-case --n 3 --k 3 --feedback bw --repeats yes --mode adaptive --strategy basis --turn-budget 10 --space-budget 27": {
        "worst_case.csv": "eda2b45243e05dec0fe8244a345ff1b260b824b40b491c8651bb6c14ebab1feb",
        "worst_case.json": "734aef341530818d66863d5d606b2d3360ab7aec5714ae211b559158256fbbdc",
    },
    "worst-case --n 3 --k 3 --feedback bw --repeats yes --mode adaptive --strategy first-consistent --turn-budget 10 --space-budget 27": {
        "worst_case.csv": "04aaab40201354ff6ef37ade4a1fdae0cd8cf3bedfb188f0f028c700f376563a",
        "worst_case.json": "5149ff153d17ad786c286e1201e7aa08a3f1b467be5a621930d72d3784acf43b",
    },
    "worst-case --n 4 --k 4 --feedback b --repeats no --mode adaptive --strategy minimax --turn-budget 17 --space-budget 24": {
        "worst_case.csv": "7128b584e76547b451a73b8c4bbc828a11d36cf6d0a319d7d7dfd26264929d36",
        "worst_case.json": "35fd23db948a99229d0f099954e361e06654ee7e75aca053ab5043eae6f8219e",
    },
    "worst-case --n 4 --k 4 --feedback b --repeats no --mode adaptive --strategy basis --turn-budget 17 --space-budget 24": {
        "worst_case.csv": "cdf626fd4f4bdb8d217789ea6a7017f8e220ec0055b21d300bb7586e7d94139b",
        "worst_case.json": "e2c677dc9885c9e1cbf670b763b220bee5b15c1b09b1df224a86abbfeefbc902",
    },
    "worst-case --n 4 --k 4 --feedback b --repeats no --mode adaptive --strategy first-consistent --turn-budget 17 --space-budget 24": {
        "worst_case.csv": "cb6dcfd284880bf882ea92809452af8ec7bdbea488e6f0961b2ffb99119d0ac6",
        "worst_case.json": "d7b74fde6232ea33824e95efbacd58f676937a8aa91f9bf8f45388823a103c00",
    },
    "worst-case --n 4 --k 6 --feedback bw --repeats yes --mode adaptive --strategy minimax --turn-budget 25 --space-budget 1296": {
        "worst_case.csv": "815a54ef70af2674c382bee8e222df6d8dfded36fb782d47eb9032ca24a2d380",
        "worst_case.json": "0fb5ba8471b48ceef27b6b189a5d6c20e5f948b1eade51851691a64108374c30",
    },
    "worst-case --n 12 --k 2 --feedback b --repeats yes --mode adaptive --strategy minimax --turn-budget 25 --space-budget 4096": {
        "worst_case.csv": "4fba24a04ab45252985c007cf6e22439f7370c17ede2bd58857d76fc66e02e9a",
        "worst_case.json": "a51f8741c316f4c8c817df44c36d8cc91eca442b2a0a594ce1fc452919345bed",
    },
    "worst-case --n 12 --k 2 --feedback bw --repeats yes --mode adaptive --strategy minimax --turn-budget 25 --space-budget 4096": {
        "worst_case.csv": "80f1e718f60dacfb41531aaed20e4a4277b477e8589464d6532aa0bc8d9e4673",
        "worst_case.json": "0a20df3e690e1b61b8fd14b188a806d7b0a9ae7e5baf4f1e7c5d054abed83086",
    },
    "worst-case --n 7 --k 7 --feedback b --repeats no --mode adaptive --strategy minimax --turn-budget 50 --space-budget 5040": {
        "worst_case.csv": "c0503e6b6f3948f6cc00aa038da0b097c1384db01a6b3b2cc30c4929997f204a",
        "worst_case.json": "d44d15e7df7899793f2c6c5967c0ae425594d7f2b4fb07f063a579549cbbc59f",
    },
    "adversary-trace --n 5 --k 5 --feedback b --repeats no --mode adaptive --strategy minimax --turn-budget 26 --space-budget 120": {
        "adversary_trace.csv": "2cb97c82671f0078d3c87800ecba6cbdc9d6b327d0ca8e54ab89b1ec53c9497c",
        "adversary_trace.json": "eb3b90e4b3fc239dfd64f544c51364f6b07f8a2a585d517e8d55023b237dc33d",
    },
    "solve --n 4 --k 6 --feedback bw --repeats yes --mode adaptive --strategy minimax --turn-budget 25 --space-budget 1296 --seed 1": {
        "solve.json": "076c9135329395c4f6a2a63b286110263e71aa5a2ac1bad2d08348ca4986c178",
    },
    "exact-value --n 4 --k 4 --feedback b --repeats no --mode adaptive --turn-budget 17 --space-budget 24": {
        "exact_value.json": "b5f07ab758f8a933486fbcb66fe1ac5fae7809447ab66923b09168427d9b110f",
    },
    "exact-value --n 3 --k 3 --feedback bw --repeats yes --mode adaptive --turn-budget 10 --space-budget 27": {
        "exact_value.json": "1555bd0262062c9cf8d848043e7a17132ef8d714540808e97339a3ea2889487a",
    },
    "exact-value --n 3 --k 3 --feedback bw --repeats yes --mode adaptive --turn-budget 2 --space-budget 27": {
        "exact_value.json": "9d458fc8aaecee48418a49642fc26432ae5ad1723f553c6304819607f635eac5",
    },
    "exact-value --n 3 --k 4 --feedback b --repeats yes --mode adaptive --turn-budget 13 --space-budget 64": {
        "exact_value.json": "25999ced46089be3b8c8332ff5be5f145f8a9f92ea82c6fa684c0afdde346884",
    },
    # the exact solver's blocks of rows on perm-6; no turn budget is the default
    "exact-value --n 6 --k 6 --feedback b --repeats no --mode adaptive --space-budget 720": {
        "exact_value.json": "ba0fb36c3d2d53009daf6a5f22525a1460503bd19cdf4212662196d7bd99cbbd",
    },
    # black+white ids up to 30, the largest of any benchmark command
    "worst-case --n 5 --k 5 --feedback bw --repeats yes --mode adaptive --strategy minimax --turn-budget 26 --space-budget 3125": {
        "worst_case.csv": "27608ac0e5a9198881135eed363cb1e873c6ab35664cb4cc42e93ec93e8d41e9",
        "worst_case.json": "4cb1d71e986b3370f652aa41edfd4b7588b47f9b3f808aea44d69e65440cb61b",
    },
    # the games of play-perm7: every game's first query is scored from
    # one row per orbit of the whole space
    "solve --n 7 --k 7 --feedback b --repeats no --mode adaptive --strategy minimax --hidden 3,1,4,7,5,2,6 --seed 0 --turn-budget 50 --space-budget 5040": {
        "solve.json": "792644e99b9db128e7196d6c10b6314cafdd25677b41d8645a842cca2307cedb",
    },
    "solve --n 7 --k 7 --feedback b --repeats no --mode adaptive --strategy minimax --hidden 7,6,5,4,3,2,1 --seed 0 --turn-budget 50 --space-budget 5040": {
        "solve.json": "67dc30c419926f825bbf5ce8a63031003f1c71b1f5e3f130f4ceaaa1e9328b56",
    },
    "adversary-trace --n 7 --k 7 --feedback b --repeats no --mode adaptive --strategy minimax --turn-budget 50 --space-budget 5040": {
        "adversary_trace.csv": "ad1cef70d9cd878b2488b8b59f2b7c10bff19d74d81469e18aa413be7df84e7c",
        "adversary_trace.json": "5ad16cf1523b23c2ad2ebe5b83b1836945cb8837cb7d2184029bef1639dfc1c0",
    },
    # the (4,6) sweeps of classic-bw by the two strategies that never score
    "worst-case --n 4 --k 6 --feedback bw --repeats yes --mode adaptive --strategy first-consistent --turn-budget 25 --space-budget 1296": {
        "worst_case.csv": "fd4aa9cc1efc984ded4b45d647087e036493d7bc7fb3ed805635cdef948d9ea5",
        "worst_case.json": "b2dbad5d28fd53f7ddeb4cf6e307994caa36605a12bbfaae5e635f80b2972bea",
    },
    "worst-case --n 4 --k 6 --feedback bw --repeats yes --mode adaptive --strategy basis --turn-budget 25 --space-budget 1296": {
        "worst_case.csv": "0177336ffccd1a856e38a28e99ddbfb9d7d21e5f97efdd5671a663f94e1dc0dc",
        "worst_case.json": "8f9bd835a56b6762a0507e487e4e28b4306d786ba67b05d617e4d3b5c271b5c3",
    },
    "nonadaptive-search --n 2 --k 5 --feedback b --repeats yes --mode nonadaptive --s-cap 8 --space-budget 25": {
        "nonadaptive_search.json": "87ba15ae1ed9b8a429a96a29a262edae4f4ae4283c7abce1fe5abdb5998a2a74",
        "nonadaptive_search.queries": "441a13c680150a814041493b73ded51043a334f7f03726586b419b4c8a4eb834",
    },
}


@pytest.mark.parametrize("command", list(PINNED_ARTIFACTS))
def test_artifacts_match_pinned_digests(command, tmp_path):
    assert run([*command.split(), "--out", str(tmp_path)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == PINNED_ARTIFACTS[command]
