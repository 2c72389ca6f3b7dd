"""The quality table behind the attention model's default size.

One cell collects a GISP training set once, trains one model per (number of
attention heads H, training seed), evaluates every model on fixed test sets,
and returns one row per (H, test set): the win/tie/loss counts and the
summed method and baseline nodes over the training seeds, each model's
training CPU seconds, and an exact two-sided sign test against the
reference size on the per-(training seed, instance) method nodes.

The default cell (``CELL``) is criterion 9's configuration, the package
defaults, over 100 fresh GISP-25 training instances: H in {1, 2, 8} at the
default L and hidden, training seeds 0-2, and three test sets: GISP-25,
GISP-35 and GISP-40.  From the repository root:

    python3 quality/run.py                    # writes quality/run.json
    python3 quality/run.py --out table.json

It takes 70-85 s on a 2-CPU host; evaluation runs on every usable CPU.  A
size passes the gate when, on every test set, its summed method nodes are at
most ``NODE_RATIO`` times the reference's and the sign test does not show it
worse at p < ``ALPHA``; the default model size is the smallest passing size
among ``CANDIDATES``.

Every seed below was fixed before the first run.  Do not change a seed, a
size or a test set after seeing a result: add a new cell instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from backdoorlab import gen_gisp, write_instance  # noqa: E402
from backdoorlab.gnn import TrainConfig, train  # noqa: E402
from backdoorlab.pipeline import (  # noqa: E402
    LOSS, NODE_CAP, TIE, WIN, CollectConfig, collect_dataset, evaluate_choosers, load_dataset, predict_backdoor,
)

# The gate: a size passes when, on every test set, it needs at most this
# many times the reference's summed method nodes ...
NODE_RATIO = 1.02
# ... and the sign test does not show it worse at this level.
ALPHA = 0.05
# The sizes that may become the default, smallest first.
CANDIDATES = (1, 2)


@dataclass(frozen=True)
class Cell:
    """What one cell runs.  ``test_sets`` maps a test set's name to its GISP
    node count and instance seeds; ``reference`` is the size in ``sizes``
    every sign test compares with.  Each model trains with ``train`` but for
    its H, from ``sizes``, and its seed, from ``model_seeds``; evaluation
    runs at the package's default K and node cap."""

    train_nodes: int
    train_seeds: range
    collect: CollectConfig
    test_sets: dict[str, tuple[int, range]]
    sizes: tuple[int, ...]
    reference: int
    model_seeds: tuple[int, ...]
    train: TrainConfig = TrainConfig()
    workers: int = 2


CELL = Cell(
    train_nodes=25,
    train_seeds=range(7000, 7100),
    collect=CollectConfig(seed=31),
    test_sets={
        "gisp25": (25, range(7100, 7150)),
        "gisp35": (35, range(7200, 7230)),
        "gisp40": (40, range(7300, 7330)),
    },
    sizes=(1, 2, 8),
    reference=8,
    model_seeds=(0, 1, 2),
)


def sign_test_p(better: int, worse: int) -> float:
    """Exact two-sided sign test: the probability, under a fair coin over the
    ``better + worse`` untied pairs, of a split at least as uneven as this."""
    n = better + worse
    tail = sum(math.comb(n, k) for k in range(min(better, worse) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def _write_gisp(directory: Path, nodes: int, seeds) -> None:
    directory.mkdir(parents=True)
    for s in seeds:
        inst = gen_gisp(nodes=nodes, seed=s)
        write_instance(inst, directory / f"{inst.name}.bdmilp")


def run_cell(cell: Cell, workdir) -> dict:
    """Run ``cell`` in the empty directory ``workdir``.

    Returns ``{"collection", "rows"}``: the collection's kept, skipped and
    failed counts with its wall seconds, and one row per (H, test set) in
    ``sizes`` order.  Every model is trained first; ``evaluate_choosers`` then
    solves each test instance's baseline once for all of them (a failure raises).
    """
    if cell.reference not in cell.sizes:
        raise ValueError(f"reference size {cell.reference} is not among {cell.sizes}")
    workdir = Path(workdir)
    _write_gisp(workdir / "train", cell.train_nodes, cell.train_seeds)
    for name, (nodes, seeds) in cell.test_sets.items():
        _write_gisp(workdir / name, nodes, seeds)
    t0 = time.perf_counter()
    manifest = collect_dataset(workdir / "train", workdir / "dataset.jsonl", cell.collect, workers=cell.workers)
    collection = {
        "kept": manifest["kept"],
        "skipped": manifest["skipped"],
        "failed": manifest["failed"],
        "seconds": round(time.perf_counter() - t0, 1),
    }
    samples = load_dataset(workdir / "dataset.jsonl")

    cpu: dict[int, list[float]] = {}
    models = {}  # (H, model seed) -> trained parameters
    for H in cell.sizes:
        for seed in cell.model_seeds:
            t0 = time.process_time()
            models[H, seed], _ = train(samples, replace(cell.train, H=H, seed=seed))
            cpu.setdefault(H, []).append(round(time.process_time() - t0, 2))
    choosers = [functools.partial(predict_backdoor, params) for params in models.values()]
    runs: dict[tuple[int, str], list[list]] = {}  # (H, test set) -> one record list per model seed
    for name in cell.test_sets:
        per_model, errors = evaluate_choosers(workdir / name, choosers)
        if errors:
            raise ValueError(f"test set {name}: {errors[0]['instance']} failed with {errors[0]['error']}")
        for (H, _), records in zip(models, per_model):
            runs.setdefault((H, name), []).append(records)

    rows = []
    for H in cell.sizes:
        for name, (nodes, seeds) in cell.test_sets.items():
            mine, ref = runs[H, name], runs[cell.reference, name]
            pairs = [(a, b) for own, other in zip(mine, ref) for a, b in zip(own, other)]
            better = sum(a.method_effort < b.method_effort for a, b in pairs)
            worse = sum(a.method_effort > b.method_effort for a, b in pairs)
            method = sum(a.method_effort for a, _ in pairs)
            ref_method = sum(b.method_effort for _, b in pairs)
            p = sign_test_p(better, worse)
            rows.append({
                "H": H,
                "test_set": name,
                "nodes": nodes,
                "instances": len(seeds),
                "model_seeds": list(cell.model_seeds),
                "wins": sum(a.outcome == WIN for a, _ in pairs),
                "ties": sum(a.outcome == TIE for a, _ in pairs),
                "losses": sum(a.outcome == LOSS for a, _ in pairs),
                "method_nodes": method,
                "baseline_nodes": sum(a.baseline_effort for a, _ in pairs),
                "censored": sum(a.baseline_censored or a.method_censored for a, _ in pairs),
                "train_cpu_s": cpu[H],
                "sign_test": {
                    "reference_H": cell.reference, "better": better, "worse": worse,
                    "ties": len(pairs) - better - worse, "p": p,
                },
                "passes": method <= NODE_RATIO * ref_method and not (worse > better and p < ALPHA),
            })
    return {"collection": collection, "rows": rows}


def gate(rows: list[dict]) -> dict:
    """Which sizes pass on every test set, and the default that follows:
    the smallest passing candidate, else the reference."""
    reference = rows[0]["sign_test"]["reference_H"]
    passing = sorted({r["H"] for r in rows} - {r["H"] for r in rows if not r["passes"]})
    chosen = min((H for H in CANDIDATES if H in passing), default=reference)
    return {
        "rule": (
            f"on every test set, summed method nodes at most {NODE_RATIO} x H={reference}'s, "
            f"and the sign test against H={reference} not showing it worse at p < {ALPHA}"
        ),
        "candidates": list(CANDIDATES),
        "passing": passing,
        "default_H": chosen,
    }


def _blas_threads() -> int | None:
    """OpenBLAS's thread count in this process, where numpy ships scipy-openblas."""
    import ctypes

    lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"), None)
    try:
        return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()) if lib else None
    except (OSError, AttributeError):
        return None


def _machine() -> dict:
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_thread_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "quality" / "run.json")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="quality-") as workdir:
        result = run_cell(CELL, workdir)
    cell = asdict(CELL)
    cell["train_seeds"] = [CELL.train_seeds.start, CELL.train_seeds.stop - 1]
    cell["test_sets"] = {k: {"nodes": n, "seeds": [s.start, s.stop - 1]} for k, (n, s) in CELL.test_sets.items()}
    for name in ("H", "seed"):  # each model's own, from sizes and model_seeds
        del cell["train"][name]
    cell["evaluate"] = {"K": CollectConfig.K, "node_cap": NODE_CAP}
    doc = {
        "command": "python3 quality/run.py",
        "cell": cell,
        "machine": _machine(),
        "seconds": round(time.perf_counter() - t0, 1),
        **result,
        "gate": gate(result["rows"]),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for r in result["rows"]:
        s = r["sign_test"]
        print(
            f"H={r['H']} {r['test_set']}: W/T/L {r['wins']}/{r['ties']}/{r['losses']}, "
            f"nodes {r['method_nodes']} (baseline {r['baseline_nodes']}), "
            f"vs H={s['reference_H']} {s['better']} better / {s['worse']} worse, p={s['p']:.3g}, "
            f"train CPU {r['train_cpu_s']} s, {'passes' if r['passes'] else 'FAILS'}"
        )
    print(f"default H: {doc['gate']['default_H']} (passing: {doc['gate']['passing']}); wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
