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


def test_traced_evaluate_on_a_pool_returns_the_untraced_records(tmp_path):
    """``layertrace.install`` rebinds ``pipeline``'s names to wrappers; on 2
    CPUs ``evaluate`` still sends its worker and the model's chooser to the
    pool by reference, and two GISP-12 instances give the untraced records."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import os\n"
        "from pathlib import Path\n"
        "import layertrace\n"
        "from backdoorlab import gen_gisp, write_instance\n"
        "from backdoorlab.gnn import GatParameters\n"
        "from backdoorlab.pipeline import evaluate\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "for seed in (100, 101):\n"
        "    write_instance(gen_gisp(nodes=12, seed=seed), Path(f'gisp{seed}.bdmilp'))\n"
        "params = GatParameters.init(seed=0, L=8, H=2, hidden=6)\n"
        "untraced = evaluate(params, '.', K=4, node_cap=5000)\n"
        "layertrace.install(layertrace.Tracer())\n"
        "traced = evaluate(params, '.', K=4, node_cap=5000)\n"
        "assert len(traced[0]) == 2 and traced == untraced, (traced, untraced)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
