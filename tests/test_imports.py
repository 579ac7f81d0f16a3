"""Every import in the package and its tests is used, the package's
imports sit at module top and form no cycle, and every function it
defines is used.

No linter ships with the project, so these tests do the checks that have
caught stale code and tangled modules here: a name imported and never
read (a module's ``__all__`` counts as a use, for the package's
re-exports), an import hidden in a function body, a cycle among the
package's modules, and a function or method that nothing in the package
names.
"""

import ast
import graphlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*(ROOT / "src" / "ospq").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def all_entries(node) -> list:
    """The names an ``__all__ = [...]`` assignment lists; none for any
    other node."""
    if isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    ):
        return ast.literal_eval(node.value)
    return []


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used.update(all_entries(node))
    where = path.relative_to(ROOT)
    return [f"{where}:{imported[name]} {name}" for name in sorted(set(imported) - used)]


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "laurent.py", "test_imports.py"} <= names


def test_no_unused_imports():
    assert [hit for path in SOURCES for hit in unused_imports(path)] == []


PACKAGE = sorted((ROOT / "src" / "ospq").glob("*.py"))


def function_local_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    where = path.relative_to(ROOT)
    return [
        f"{where}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def package_import_graph() -> dict:
    """The modules each package module imports, by module name.

    Imports inside functions count too, so a cycle shows here even while
    such an import defers it past load time."""
    graph = {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    return graph


def test_no_function_local_imports():
    assert [hit for path in PACKAGE for hit in function_local_imports(path)] == []


def test_package_import_graph_is_acyclic():
    graph = package_import_graph()
    assert {"hopf", "reps", "r1", "twist"} <= set(graph)
    # static_order raises CycleError on the first cycle it meets.
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert set(graph) <= set(order)


# Functions the package defines without naming them itself, with the reason
# each one stays.
UNREFERENCED_KEPT = {
    "scalar.Scalar.pole_order_at_p1": "perfbench/tracer.py wraps it by name",
    "laurent.Laurent.coefficient": "public reader of a series, used by the tests",
    "twist.TwistSeries.expression": "public reader of the solved series, used by the tests",
}


def package_names() -> set:
    """Every name the package reads: a bare name, an attribute, or an
    ``__all__`` entry."""
    names = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            names.update(all_entries(node))
    return names


def package_functions() -> dict:
    """The module-level functions and class methods of the package, by
    qualified name; dunder methods are left out, as Python calls them."""
    found = {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                prefix, defs = f"{path.stem}.{node.name}.", node.body
            else:
                prefix, defs = f"{path.stem}.", [node]
            for fn in defs:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    found[prefix + fn.name] = fn.name
    return found


def test_every_package_function_is_named_in_the_package():
    names = package_names()
    functions = package_functions()
    unreferenced = {qual for qual, name in functions.items() if name not in names}
    assert sorted(unreferenced - set(UNREFERENCED_KEPT)) == []
    # An exception the package has come to name, or has deleted, is stale.
    assert sorted(set(UNREFERENCED_KEPT) - unreferenced) == []
