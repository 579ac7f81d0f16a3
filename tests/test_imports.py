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


def package_trees() -> dict:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE
    }


def package_names(trees: dict) -> set:
    """Every name the package reads: a bare name, an attribute, or an
    ``__all__`` entry."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            names.update(all_entries(node))
    return names


def module_function_uses(trees: dict) -> set:
    """The (module, name) pairs a module-level function counts as used by:
    its own module reads the name or lists it in ``__all__``, or another
    module imports it from there or reads it as an attribute of that
    module imported whole."""
    used = set()
    for stem, tree in trees.items():
        whole = {}  # local name -> module, for ``from . import module``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    used.update((node.module, alias.name) for alias in node.names)
                else:
                    whole.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.Name):
                used.add((stem, node.id))
            used.update((stem, name) for name in all_entries(node))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in whole
            ):
                used.add((whole[node.value.id], node.attr))
    return used


def package_functions(trees: dict) -> dict:
    """The module-level functions and class methods of the package, by
    qualified name, each with its module and its class (None for a
    module-level function); dunder methods are left out, as Python calls
    them."""
    found = {}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                owner, defs = node.name, node.body
            else:
                owner, defs = None, [node]
            for fn in defs:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    qual = ".".join(part for part in (stem, owner, fn.name) if part)
                    found[qual] = (stem, owner, fn.name)
    return found


def unreferenced_functions(trees: dict) -> set:
    """Module-level functions that no module uses by the module rule, and
    methods whose name nothing in the package reads."""
    names = package_names(trees)
    uses = module_function_uses(trees)
    return {
        qual
        for qual, (stem, owner, name) in package_functions(trees).items()
        if (name not in names if owner else (stem, name) not in uses)
    }


def test_every_package_function_is_named_in_the_package():
    unreferenced = unreferenced_functions(package_trees())
    assert sorted(unreferenced - set(UNREFERENCED_KEPT)) == []
    # An exception the package has come to name, or has deleted, is stale.
    assert sorted(set(UNREFERENCED_KEPT) - unreferenced) == []


def test_a_function_is_used_only_through_its_own_module():
    trees = {
        stem: ast.parse(text)
        for stem, text in {
            "a": "def shared(): pass\ndef imported(): pass\ndef whole(): pass\n"
            "def local(): pass\nlocal()\n",
            "b": "from .a import imported\nfrom . import a as mod\n"
            "def shared(): pass\nshared()\nimported()\nmod.whole()\n"
            "class C:\n    def method(self): pass\n",
            "c": "x.method()\n",
        }.items()
    }
    # a.shared shares its name with b.shared, which b calls: a's is unused
    assert unreferenced_functions(trees) == {"a.shared"}
