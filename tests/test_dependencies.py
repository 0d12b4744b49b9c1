"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "simplexfix"


def imported_roots(path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {
        (path.name, name)
        for path in modules
        for name in imported_roots(path)
        if name not in sys.stdlib_module_names and name != "simplexfix"
    }
    assert foreign == set()


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
