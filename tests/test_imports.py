"""Every import in the package and its tests is used, and the package's
imports sit at module top and form no cycle.

No linter ships with the project, so these tests do the checks that have
caught stale code and tangled modules here: a name imported and never
read (a module's ``__all__`` counts as a use, for the package's
re-exports), an import hidden in a function body, and a cycle among the
package's modules.
"""

import ast
import graphlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*(ROOT / "src" / "ospq").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


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
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
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
