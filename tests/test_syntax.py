"""Every Python file of the package, its tests and its benchmark parses as
Python 3.10, the oldest version ``pyproject.toml`` supports, so a newer
construct (``except*``, a PEP 695 ``type`` alias or type parameter list)
fails here on any interpreter that runs the suite. And every private
module-level name of the package is read somewhere in the package, so a
helper or constant that its last caller dropped fails here."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (REPO / d).rglob("*.py"))
PACKAGE = sorted((REPO / "src" / "monoenv").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(REPO).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_a_newer_construct_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def _private_definitions(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level that are its own: those
    that start with one ``_``, and its UPPER_CASE constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return {name for name in names if not name.startswith("__")
            and (name.startswith("_") or name.isupper())}


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module loads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_every_private_module_name_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in PACKAGE}
    read = set().union(*map(_reads, trees.values()))
    unread = sorted(f"{name}: {n}" for name, tree in trees.items()
                    for n in _private_definitions(tree) - read)
    assert not unread, unread


def test_an_unread_private_name_is_found():
    # BISECT_TOL, a bisection tolerance that no code read, once lived in bounds.py
    tree = ast.parse("_USED = 1\n_UNUSED = 2\nBISECT_TOL = 1e-12\n"
                     "def _f():\n    return _USED\ndef public():\n    pass\n")
    assert _private_definitions(tree) - _reads(tree) == {"_UNUSED", "BISECT_TOL", "_f"}
