"""Each run policy has one owner.

Budgets are module constants, never per-call parameters: a search or sweep
reads its budget at call time in the module that owns it, so a monkeypatched
constant is seen everywhere and no caller can restate it. The exit code of a
completed run is read off its verification block in one place, `cli.main`.
"""

import ast
import pathlib

import ffil

SRC = pathlib.Path(ffil.__file__).parent
# `dim_cap`, `s_cap` and `degcap` size the question asked, not the work done
BUDGET_PARAMS = {"cap", "probe_cap", "node_cap", "retry_cap", "size_cap"}
OWNERS = {"ENUM_CAP": "mpoly", "PROBE_CAP": "bigraph", "FLAT_PAIR_CAP": "geometry"}


def modules(sources=None):
    """{module name: AST} of the ffil sources, or of the given {name: text}."""
    if sources is None:
        sources = {f.stem: f.read_text() for f in sorted(SRC.glob("*.py"))}
    return {name: ast.parse(text) for name, text in sources.items()}


def budget_parameters(trees):
    """(module, function, parameter) of every budget-named parameter."""
    found = []
    for mod, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                found += [(mod, getattr(fn, "name", "<lambda>"), a.arg)
                          for a in args if a.arg in BUDGET_PARAMS]
    return found


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def foreign_budget_uses(trees):
    """(module, constant, line) where a budget constant is compared or
    imported outside its owner module (an imported copy would not see a
    monkeypatched value)."""
    found = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                names = set(_names(node))
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            found += [(mod, c, node.lineno) for c in sorted(names & OWNERS.keys()) if OWNERS[c] != mod]
    return found


def verify_exit_readers(trees):
    """(module, top-level definition or None) of every read of VERIFY_EXIT."""
    found = []
    for mod, tree in trees.items():
        for top in tree.body:
            found += [(mod, getattr(top, "name", None)) for sub in ast.walk(top)
                      if isinstance(sub, ast.Name) and sub.id == "VERIFY_EXIT"
                      and isinstance(sub.ctx, ast.Load)]
    return found


def test_the_guards_see_what_they_forbid():
    trees = modules({
        "cli": "A, VERIFY_EXIT = 1, 2\ndef main():\n    return VERIFY_EXIT\n"
               "def cmd_x(a):\n    return 0 if a else VERIFY_EXIT\n",
        "patterns": "from .mpoly import ENUM_CAP, domain_points\n"
                    "def f(n, *, size_cap=5, dim_cap=1):\n    return n > mpoly.ENUM_CAP\n",
        "mpoly": "ENUM_CAP = 1\ndef g(n, probe_cap=2):\n    return n > ENUM_CAP\n",
    })
    assert budget_parameters(trees) == [("patterns", "f", "size_cap"), ("mpoly", "g", "probe_cap")]
    assert foreign_budget_uses(trees) == [("patterns", "ENUM_CAP", 1), ("patterns", "ENUM_CAP", 3)]
    assert verify_exit_readers(trees) == [("cli", "main"), ("cli", "cmd_x")]


def test_no_function_takes_a_budget_parameter():
    assert budget_parameters(modules()) == []


def test_budget_constants_are_compared_only_by_their_owners():
    assert foreign_budget_uses(modules()) == []


def test_only_cli_main_maps_a_verdict_to_exit_2():
    assert verify_exit_readers(modules()) == [("cli", "main")]
