"""Feedback ids are computed only by CodeSpace (feedback_rows, query_column,
black_rows), so changing how changes one module; only SolutionSet decides
which solution sets hold feedback rows and how a set is scored, spreading
per-orbit scores for the whole space as for any other set; and the
searches take an enumerated CodeSpace, so only the CLI decides how large a
space may be; a CLI process loads only the layers its command runs, and
the package resolves its public names on first access."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import querymind

PACKAGE = Path(querymind.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# the package's public names, by the module that defines each
EXPORTS = {
    "codespace": [
        "Code", "CodeSpace", "Feedback", "FeedbackMode", "Mode", "Repeats",
        "VariantConfig", "encode01", "feedback",
    ],
    "combinatorics": [
        "BoundReport", "bound_report", "bucket_size", "bucket_tail_sum", "derangement",
        "entropy_lower_bound", "exact_match_count", "harmonic", "lemma2_bound",
        "shannon_entropy", "theorem1_report", "trivial_lower_bound",
    ],
    "engine": [
        "ExactGameValue", "GameTranscript", "WorstCaseResult", "adversary_feedback",
        "exact_game_value", "play_adversarial", "play_honest", "worst_case_queries",
    ],
    "errors": [
        "CapacityError", "ContradictionError", "DomainError", "InvalidCodeError",
        "ProtocolError", "QuerymindError",
    ],
    "nonadaptive": [
        "IdentifiabilityReport", "QuerySet", "entropy_audit", "is_identifiable",
        "min_nonadaptive_size",
    ],
    "strategies": [
        "SolutionSet", "Strategy", "filter_consistent", "get_strategy", "minimax_next",
    ],
}


def fresh(code: str, *args: str) -> str:
    """Standard output of `code` run in a new interpreter that imports the
    package from the same source tree as this test."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("QUERYMIND_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize(
    "module", ["engine.py", "strategies.py", "cli.py", "nonadaptive.py"]
)
def test_module_does_not_reach_the_table(module):
    source = (PACKAGE / module).read_text()
    assert "feedback_ids" not in source
    assert "_kernels" not in source


def test_only_codespace_imports_the_kernels():
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "import _kernels" in path.read_text() or "from ._kernels" in path.read_text()
    }
    assert importers == {"codespace.py"}


@pytest.mark.parametrize("module", ["engine.py", "strategies.py", "nonadaptive.py"])
def test_searches_neither_enumerate_nor_budget(module):
    source = (PACKAGE / module).read_text()
    for name in ("CodeSpace.enumerate", "CapacityError", "space_budget"):
        assert name not in source


def test_only_solution_sets_decide_which_hold_rows():
    source = (PACKAGE / "engine.py").read_text()
    assert ".rows()" not in source
    assert ".view" not in source


def test_only_solution_sets_score():
    callers = {
        path.name for path in PACKAGE.glob("*.py") if ".bucket_maxima(" in path.read_text()
    }
    assert callers == {"strategies.py"}
    source = (PACKAGE / "engine.py").read_text()
    assert "bucket_maxima" not in source
    assert "column_max_buckets" not in source


def test_only_solution_sets_spread():
    callers = {path.name for path in PACKAGE.glob("*.py") if ".spread(" in path.read_text()}
    assert callers == {"strategies.py"}
    for path in PACKAGE.glob("*.py"):
        assert "full_scores" not in path.read_text()


GAME_ONLY = ("querymind.nonadaptive", "querymind.combinatorics", "fractions", "decimal")
SEARCH_ONLY = (
    "querymind.engine", "querymind.strategies", "querymind.combinatorics", "fractions", "decimal",
)
BOUNDS_ONLY = ("querymind.engine", "querymind.strategies", "querymind.nonadaptive")

RUN_AND_LIST_MODULES = """
import json, sys
from querymind.cli import run
code = run(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize(
    "command, absent",
    [
        ("worst-case", GAME_ONLY),
        ("solve", GAME_ONLY),
        ("adversary-trace", GAME_ONLY),
        ("exact-value", GAME_ONLY),
        ("nonadaptive-search", SEARCH_ONLY),
        ("bounds", BOUNDS_ONLY),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_command_loads_only_its_layers(command, absent, tmp_path):
    argv = [command, "--n", "2", "--k", "2", "--out", str(tmp_path)]
    code, loaded = json.loads(fresh(RUN_AND_LIST_MODULES, *argv).splitlines()[-1])
    assert code == 0
    assert sorted(set(absent) & set(loaded)) == []


def test_exports_are_the_public_names_of_their_modules():
    assert sorted(querymind.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"querymind.{module}")
        for name in names:
            assert getattr(querymind, name) is getattr(defining, name), name


def test_submodules_resolve_on_first_access():
    out = fresh(
        "import sys, querymind\n"
        "print(sorted(m for m in sys.modules if m.startswith('querymind')))\n"
        "for m in sys.argv[1:]:\n"
        "    print(getattr(querymind, m).__name__)\n",
        *EXPORTS,
    )
    assert out.splitlines() == ["['querymind']", *(f"querymind.{m}" for m in EXPORTS)]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        querymind.no_such_name


def test_readme_import_line_works():
    (line,) = [
        line for line in README.read_text().splitlines() if line.startswith("from querymind import")
    ]
    namespace: dict = {}
    exec(line, namespace)
    assert namespace["CodeSpace"] is querymind.codespace.CodeSpace
