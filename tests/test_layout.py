"""Package layout: library code that nothing but the tests can reach, and
imports the package must not make."""

import ast
import subprocess
import sys
from pathlib import Path

import icplan

from _helpers import package_env

PACKAGE = Path(icplan.__file__).resolve().parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"

# kept without a caller: instance files for a checked-in model corpus
UNCALLED = {"save_instance"}


def _definitions(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _members(tree):
    """(class, name) of every method, property and dataclass field of the
    module's top-level classes; dunder methods are called implicitly."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                yield cls.name, node.name
            elif dataclass and isinstance(node, ast.AnnAssign):
                yield cls.name, node.target.id


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _parsed():
    """The package's modules but __init__ (re-exports are not callers), and
    the parsed modules of the package and the benchmark."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted(BENCHMARK.glob("*.py"))
    return modules, {p: ast.parse(p.read_text()) for p in callers}


def _uncalled(private):
    """The package's private or public top-level definitions that neither the
    package nor the benchmark references, and all of them."""
    modules, trees = _parsed()
    referenced = set().union(*map(_references, trees.values()))
    defined = {name for p in modules for name in _definitions(trees[p])
               if name.startswith("_") == private}
    return defined - referenced, defined


def test_every_public_definition_has_a_caller_outside_the_tests():
    uncalled, defined = _uncalled(private=False)
    assert uncalled - UNCALLED == set()
    assert UNCALLED <= defined


def test_every_private_definition_has_a_caller_outside_the_tests():
    # a helper that only the tests still call is dead library code
    assert _uncalled(private=True)[0] == set()


def test_every_class_member_has_a_reader_outside_the_tests():
    # a field or method that the package and the benchmark never read as
    # obj.name is kept for the tests alone; keywords and locals do not count
    modules, trees = _parsed()
    read = set().union(*map(_attribute_reads, trees.values()))
    members = [m for p in modules for m in _members(trees[p])]
    assert members
    assert [f"{cls}.{name}" for cls, name in members if name not in read] == []


def _imports(tree):
    """(module, name) of every import; name is None for `import module`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


def test_no_module_imports_heapq():
    # shortest paths have one engine, scipy's compiled Dijkstra; the heap
    # references in the tests' _helpers stay as the check against it
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if any(module == "heapq" for module, _ in
                        _imports(ast.parse(p.read_text())))]
    assert importers == []


def test_only_io_knows_the_file_formats():
    # instance, network and plan files are read and written in io.py alone,
    # so no two modules can disagree on a format
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if any(module == "json" for module, _ in
                        _imports(ast.parse(p.read_text())))]
    assert importers == ["io.py"]


def test_only_the_highs_module_talks_to_highs():
    # one module loads HiGHS's bindings, by path, and fills its model and
    # options; no module imports scipy.optimize, whose milp and linprog
    # wrappers stay in the tests, as the check against it
    def optimize(module, name):
        dotted = f"{module}.{name}" if name else module
        return dotted == "scipy.optimize" or dotted.startswith("scipy.optimize.")
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items()
            if any(optimize(*imp) for imp in _imports(ast.parse(text)))] == []
    assert [name for name, text in sources.items() if "_highspy" in text] == \
        ["highs.py"]


def test_importing_the_package_leaves_scipy_optimize_out():
    # importing scipy.optimize costs ~0.2 s of every process's start, and
    # the package calls none of it
    code = ("import sys, icplan.cli, icplan.explore\n"
            "for name in ('scipy.optimize', 'scipy.optimize._highspy',\n"
            "             'scipy.optimize._highspy._core'):\n"
            "    print(name in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "False", "True"]


def test_exploration_solves_at_one_site():
    # both phases solve through explore._solve_cluster, so their no-plan
    # rule, records and plan execution cannot drift apart again
    def callee(node):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    tree = ast.parse((PACKAGE / "explore.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and callee(node) == "solve_problem"]
    assert len(calls) == 1
