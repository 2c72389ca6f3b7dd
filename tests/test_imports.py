"""The package imports only the standard library and its one declared
dependency, and the quality harness imports only the package's public names."""

import ast
import sys
from pathlib import Path

import backdoorlab

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "backdoorlab"}
ROOT = Path(__file__).resolve().parents[1]


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


def private_imports(source: str) -> set[str]:
    """The ``_``-prefixed names a module imports from ``backdoorlab``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "backdoorlab":
            names.update(alias.name for alias in node.names if alias.name.startswith("_"))
    return names


def test_quality_harness_imports_no_private_name():
    private = private_imports((ROOT / "quality" / "run.py").read_text(encoding="utf-8"))
    assert not private, f"quality/run.py imports private {sorted(private)}"


def test_private_scan_sees_only_backdoorlab_names():
    source = "from backdoorlab.pipeline import _evaluate_one, evaluate\nfrom os import _exit\nimport backdoorlab\n"
    assert private_imports(source) == {"_evaluate_one"}
