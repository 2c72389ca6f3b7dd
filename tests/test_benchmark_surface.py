"""The benchmark harness under ``perfbench/`` still fits the package.

``perfbench`` imports names from ``backdoorlab`` and wraps its functions by
name, so a rename in ``src/`` breaks the benchmark without failing any other
test.  The check runs in a fresh interpreter with ``-B``, so it writes no
bytecode into ``perfbench/``, and it runs every workload's set-up at the
smallest size into a temporary directory.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_harness_imports_and_installs_its_tracer(tmp_path):
    """Each workload's ``setup`` also runs, at ``seconds=1`` (two GISP-25
    instances per set): train-gisp25's builds LP workspaces and feature
    graphs through ``LpWorkspace``, ``lp_relaxation`` and ``featurize``."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "from pathlib import Path\n"
        "import layertrace, workloads\n"
        "layertrace.install(layertrace.Tracer())\n"
        "for name, cls in workloads.WORKLOADS.items():\n"
        "    cls(1, 1).setup(Path(name), {})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for part in ("train", "test"):
        assert len(list((tmp_path / "pipeline-gisp25" / part).glob("*.bdmilp"))) == 2
