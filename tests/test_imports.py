"""Every import in the package and its tests is used.

No linter ships with the project, so this test does the one check of a
linter's that has caught stale code here: a name imported and never read.
A module's ``__all__`` counts as a use, for the package's re-exports.
"""

import ast
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
