"""Every public name of `ffil` has a user outside the ordinary tests.

A name in `ffil.__all__` (modules aside) passes when any of these holds:
- a `Name` or `Attribute` node in `src/ffil`, outside `__init__.py`,
  refers to it;
- `tests/test_acceptance.py` imports it;
- the benchmark tracer (`perfbench/tracer.py`) wraps it.
A name with none of these users is dead API, kept alive only by its tests.
"""

import ast
import pathlib
import types

import ffil
from test_tracer_targets import ROOT, load_tracer

PACKAGE = pathlib.Path(ROOT, "src", "ffil")


def source_references() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def acceptance_imports() -> set:
    tree = ast.parse(pathlib.Path(ROOT, "tests", "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "ffil" for alias in node.names}


def test_every_public_name_has_a_user():
    public = [n for n in ffil.__all__ if not isinstance(getattr(ffil, n), types.ModuleType)]
    traced = {fn for funcs in load_tracer().TARGETS.values() for fn in funcs}
    users = source_references() | acceptance_imports() | traced
    assert public
    assert [n for n in public if n not in users] == []
