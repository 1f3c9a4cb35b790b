"""Every source file parses with the grammar of the oldest Python that
pyproject.toml declares, whichever interpreter runs the tests, so syntax
newer than the floor fails here and not only on a floor interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()))
SOURCES = sorted(path for folder in ("src/aisemiring", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_newer_syntax_is_rejected():
    # except* needs 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
