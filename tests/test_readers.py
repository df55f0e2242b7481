"""No public function that only tests read.

Each module-level public function of ``src/monoenv`` is read, as a name or an
attribute, by the package itself (a re-export in ``__init__`` is not a read)
or by ``perfbench``. The exceptions are the paper's statements in
``TEST_ONLY``, kept for ``verify`` records to read. The list only shrinks: a
function that loses its last reader goes with its tests, or comes to be read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = {"errenv_bound", "lower_bound_phi"}


def public_defs(source: str) -> set[str]:
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def read_names(source: str) -> set[str]:
    """Each name ``source`` reads as a ``Name`` or an ``Attribute``; a mention
    in a string or a docstring is not a read."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread(modules: list[str], readers: list[str]) -> set[str]:
    """The public functions defined in ``modules`` that no source in ``readers`` reads."""
    defined = set().union(*map(public_defs, modules))
    return defined - set().union(*map(read_names, readers))


def test_the_guard_sees_a_function_nobody_reads():
    lib = ("def used(x):\n"
           "    return helper(x)\n"
           "def helper(x):\n"
           "    return x\n"
           "def lonely():\n"
           "    '''unlike helper() and used()'''\n"
           "    return 'used'\n"
           "def _private():\n"
           "    return 0\n")
    assert unread([lib], [lib]) == {"used", "lonely"}
    assert unread([lib], [lib, "import lib\nlib.lonely()\n"]) == {"used"}


def test_only_the_declared_functions_lack_a_reader():
    modules = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "monoenv").glob("*.py"))
               if p.name != "__init__.py"]
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert len(modules) >= 9 and len(bench) >= 5
    assert unread(modules, modules + bench) == TEST_ONLY
