"""Feedback ids are computed only by CodeSpace (feedback_rows, query_column,
black_rows), so changing how changes one module; only SolutionSet decides
which solution sets hold feedback rows and how a set is scored, spreading
per-orbit scores for the whole space as for any other set; and the
searches take an enumerated CodeSpace, so only the CLI decides how large a
space may be."""
from pathlib import Path

import pytest

import querymind

PACKAGE = Path(querymind.__file__).parent


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
