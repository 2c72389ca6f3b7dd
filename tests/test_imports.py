"""The package imports only the standard library and its one declared dependency."""

import ast
import sys
from pathlib import Path

import backdoorlab

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "backdoorlab"}


def absolute_imports(source: str) -> set[str]:
    """The top-level module names of a module's absolute imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_modules_import_only_stdlib_and_numpy():
    modules = sorted(Path(backdoorlab.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        stray = absolute_imports(path.read_text(encoding="utf-8")) - ALLOWED
        assert not stray, f"{path.name} imports {sorted(stray)}"


def test_scan_sees_nested_and_relative_imports():
    source = "import os.path\nfrom scipy import sparse\nfrom . import milp\ndef f():\n    import numba\n"
    assert absolute_imports(source) == {"os", "scipy", "numba"}
