"""Every name that a module of the package, a test or a demo imports is
used: a stdlib stand-in for a linter's unused-import check (pyflakes'
F401)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamrom"


def unused_imports(source):
    """The names that `source` imports but neither uses, lists in
    `__all__`, nor imports on a `# noqa: F401` line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        element.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for element in node.value.elts
    }
    return sorted(set(imported) - used - exported)


def test_the_check_finds_an_unused_import():
    source = (
        "import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\n"
        "__all__ = ['tau']\nprint(os.sep)\n"
    )
    assert unused_imports(source) == ["pi"]


# the package's modules by name (its __init__ only re-exports), the
# tests and the demos by their path in the repository
SOURCES = {path.name: path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
SOURCES.update((path.relative_to(ROOT).as_posix(), path)
               for folder in ("tests", "demos") for path in sorted((ROOT / folder).glob("*.py")))


@pytest.mark.parametrize("name", SOURCES)
def test_every_import_is_used(name):
    assert unused_imports(SOURCES[name].read_text()) == []
