"""Package layout: library code that nothing but the tests can reach."""

import ast
from pathlib import Path

import icplan

PACKAGE = Path(icplan.__file__).resolve().parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"

# kept without a caller: instance files for a checked-in model corpus
UNCALLED = {"save_instance"}


def _public_definitions(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    # re-exports in __init__ are not callers; the benchmark is
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted(BENCHMARK.glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in callers}
    referenced = set().union(*map(_references, trees.values()))
    defined = set().union(*(_public_definitions(trees[p]) for p in modules))
    assert defined - referenced - UNCALLED == set()
    assert UNCALLED <= defined
