"""Every Python file of the package, its tests and its benchmark parses as
Python 3.10, the oldest version ``pyproject.toml`` supports, so a newer
construct (``except*``, a PEP 695 ``type`` alias or type parameter list)
fails here on any interpreter that runs the suite."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (REPO / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(REPO).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_a_newer_construct_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
