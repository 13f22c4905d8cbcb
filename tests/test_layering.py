"""The feedback table is read only through CodeSpace (split, minimax_scores),
so replacing it changes one module."""
from pathlib import Path

import pytest

import querymind

PACKAGE = Path(querymind.__file__).parent


@pytest.mark.parametrize("module", ["engine.py", "strategies.py", "cli.py"])
def test_module_does_not_reach_the_table(module):
    source = (PACKAGE / module).read_text()
    assert "fid_table" not in source
    assert "_kernels" not in source
