"""The benchmark harness under ``perfbench/`` still fits the package.

``perfbench`` imports names from ``backdoorlab`` and wraps its functions by
name, so a rename in ``src/`` breaks the benchmark without failing any other
test.  The check runs in a fresh interpreter with ``-B``, so it writes no
bytecode into ``perfbench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_harness_imports_and_installs_its_tracer(tmp_path):
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]; "
        "import layertrace, workloads; layertrace.install(layertrace.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
