"""The package imports only the standard library and its one declared
dependency and never its empty ``gnn.autodiff``, the quality harness imports
only the package's public names, and only ``backdoorlab.inputs`` parses JSON
or opens text with surrogate escapes."""

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


def autodiff_imports(source: str) -> set[str]:
    """The module's imports, absolute or relative, that name a module ``autodiff``."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (f"{node.module}." if node.module else "")
            paths.update(base + alias.name for alias in node.names)
    return {path for path in paths if "autodiff" in path.split(".")}


def test_no_module_imports_the_autodiff_stub():
    package = Path(backdoorlab.__file__).parent
    stub = package / "gnn" / "autodiff.py"
    for path in sorted(package.rglob("*.py")):
        if path != stub:
            found = autodiff_imports(path.read_text(encoding="utf-8"))
            assert not found, f"{path.name} imports {sorted(found)}"


def test_autodiff_scan_sees_every_spelling():
    source = (
        "from . import autodiff\nfrom .autodiff import grad\nfrom ..gnn import autodiff as ad\n"
        "import backdoorlab.gnn.autodiff\nfrom backdoorlab.gnn.autodiff import grad\n"
        "def f():\n    from backdoorlab.gnn import autodiff\n"
        "from .model import score_union\nimport numpy\nautodiff = None\n"
    )
    assert autodiff_imports(source) == {
        ".autodiff", ".autodiff.grad", "..gnn.autodiff", "backdoorlab.gnn.autodiff", "backdoorlab.gnn.autodiff.grad",
    }


def test_the_autodiff_stub_binds_grad_alone():
    """``gnn/autodiff.py`` is a docstring and ``grad = None``, kept for
    perfbench's wrap of ``grad``: it imports nothing and defines nothing, so
    no differentiation engine grows back in it."""
    body = ast.parse((Path(backdoorlab.__file__).parent / "gnn" / "autodiff.py").read_text(encoding="utf-8")).body
    docstring, *rest = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(node) for node in rest] == ["grad = None"]


def backdoorlab_imports(source: str) -> set[str]:
    """The names a module imports from ``backdoorlab`` and its submodules."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "backdoorlab":
            names.update(alias.name for alias in node.names)
    return names


def private_imports(source: str) -> set[str]:
    """The ``_``-prefixed names a module imports from ``backdoorlab``."""
    return {name for name in backdoorlab_imports(source) if name.startswith("_")}


def test_quality_harness_imports_no_private_name():
    private = private_imports((ROOT / "quality" / "run.py").read_text(encoding="utf-8"))
    assert not private, f"quality/run.py imports private {sorted(private)}"


def test_quality_harness_has_no_evaluation_loop_of_its_own():
    """The harness evaluates through ``evaluate_choosers``, the one pooled loop
    over instances, so it needs neither the per-instance unit nor the reader."""
    names = backdoorlab_imports((ROOT / "quality" / "run.py").read_text(encoding="utf-8"))
    assert "evaluate_choosers" in names
    assert not names & {"evaluate_instance", "read_instance"}, f"quality/run.py imports {sorted(names)}"


def test_private_scan_sees_only_backdoorlab_names():
    source = "from backdoorlab.pipeline import _evaluate_one, evaluate\nfrom os import _exit\nimport backdoorlab\n"
    assert private_imports(source) == {"_evaluate_one"}


def outside_reads(source: str) -> set[str]:
    """What a module uses of ``json.load``, ``json.loads`` and the ``"surrogateescape"``
    error handler (a docstring that names it is not a use)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
            found.update({node.attr} & {"load", "loads"})
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.update({alias.name for alias in node.names} & {"load", "loads"})
        elif isinstance(node, ast.Constant) and node.value == "surrogateescape":
            found.add("surrogateescape")
    return found


def test_only_the_inputs_module_parses_json_or_escapes_bytes():
    package = Path(backdoorlab.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path != package / "inputs.py":
            used = outside_reads(path.read_text(encoding="utf-8"))
            assert not used, f"{path.name} uses {sorted(used)}; read outside input through backdoorlab.inputs"
    assert outside_reads((package / "inputs.py").read_text(encoding="utf-8")) == {"loads", "surrogateescape"}


def test_outside_read_scan_sees_calls_imports_and_positional_handlers():
    source = (
        '"""Opened with errors="surrogateescape"."""\n'
        "import json\nfrom json import load\njson.dumps({})\nrec = json.loads(line)\n"
        'raw.decode("ascii", "surrogateescape")\n'
    )
    assert outside_reads(source) == {"load", "loads", "surrogateescape"}
    assert outside_reads('open(p, errors="surrogateescape")\n') == {"surrogateescape"}


def test_milp_keeps_none_of_the_reading_rules():
    from backdoorlab import inputs, milp

    moved = ("check_integer", "check_number", "read_number", "check_ascii", "_leaves", "_interval", "_NUMBER")
    assert [name for name in moved if not hasattr(inputs, name) or hasattr(milp, name)] == []
