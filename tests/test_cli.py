import csv
import json

import pytest

from querymind.cli import run
from querymind.codespace import FeedbackMode, Mode, Repeats, VariantConfig
from querymind.nonadaptive import entropy_audit


def read_json(path):
    return json.loads(path.read_text())


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
