"""The quality tables behind the attention model's default size.

A cell collects a GISP training set once, trains one model per (model size,
training seed), evaluates every model on fixed test sets, and returns one
row per (size, test set): the win/tie/loss counts and the summed method and
baseline nodes over the training seeds, each model's training CPU seconds,
and an exact two-sided sign test against the reference size on the
per-(training seed, instance) method nodes.  A size is the ``TrainConfig``
fields it sets, such as ``{"H": 1}`` or ``{"L": 32, "hidden": 32}``; each
row carries the fields of its size.

Two cells, each over 100 fresh GISP-25 training instances collected at the
package's default ``CollectConfig`` but for its seed, with training seeds
0-2 and three test sets (GISP-25, GISP-35 and GISP-40):

- ``CELL``, the head count: H in {1, 2, 8} at L 64 and hidden 64, against
  H 8.  It chose H 1; ``quality/run.json`` is the record of its first run.
- ``WIDTH_CELL``, the width: L = hidden in {16, 32, 64} at H 1, against
  64.  ``quality/width.json`` is the record of its first run.

From the repository root:

    python3 quality/run.py                       # H cell, writes quality/run.json
    python3 quality/run.py --cell width          # writes quality/width.json
    python3 quality/run.py --out table.json

A cell takes 1.5-5 minutes on a 2-CPU host; evaluation runs on every usable
CPU.  A size passes the gate when, on every test set, its summed method
nodes are at most ``NODE_RATIO`` times the reference's and the sign test
does not show it worse at p < ``ALPHA``; the default model size is the
first passing size among the cell's ``candidates``, smallest first, else
the reference.

Every seed and size below was fixed before the cell's first run.  Do not
change a seed, a size or a test set after seeing a result: add a new cell
instead.
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


@dataclass(frozen=True)
class Cell:
    """What one cell runs.  ``test_sets`` maps a test set's name to its GISP
    node count and instance seeds.  A size is the ``TrainConfig`` fields it
    sets; ``reference``, one of ``sizes``, is the size every sign test
    compares with, and ``candidates`` are the sizes that may become the
    default, smallest first.  Each model trains with ``train`` but for its
    size's fields and its seed, from ``model_seeds``; evaluation runs at the
    package's default K and node cap."""

    train_nodes: int
    train_seeds: range
    collect: CollectConfig
    test_sets: dict[str, tuple[int, range]]
    sizes: tuple[dict[str, int], ...]
    reference: dict[str, int]
    candidates: tuple[dict[str, int], ...]
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
    sizes=({"H": 1}, {"H": 2}, {"H": 8}),
    reference={"H": 8},
    candidates=({"H": 1}, {"H": 2}),
    model_seeds=(0, 1, 2),
    train=TrainConfig(L=64, hidden=64),
)

WIDTH_CELL = Cell(
    train_nodes=25,
    train_seeds=range(7600, 7700),
    collect=CollectConfig(seed=32),
    test_sets={
        "gisp25": (25, range(7700, 7750)),
        "gisp35": (35, range(7750, 7780)),
        "gisp40": (40, range(7800, 7830)),
    },
    sizes=({"L": 16, "hidden": 16}, {"L": 32, "hidden": 32}, {"L": 64, "hidden": 64}),
    reference={"L": 64, "hidden": 64},
    candidates=({"L": 16, "hidden": 16}, {"L": 32, "hidden": 32}),
    model_seeds=(0, 1, 2),
    train=TrainConfig(H=1),
)

# Each cell by its ``--cell`` name, with the record its first run wrote.
CELLS = {"H": (CELL, "run.json"), "width": (WIDTH_CELL, "width.json")}


def sign_test_p(better: int, worse: int) -> float:
    """Exact two-sided sign test: the probability, under a fair coin over the
    ``better + worse`` untied pairs, of a split at least as uneven as this."""
    n = better + worse
    tail = sum(math.comb(n, k) for k in range(min(better, worse) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def _label(size: dict[str, int]) -> str:
    return ", ".join(f"{k}={v}" for k, v in size.items())


def _write_gisp(directory: Path, nodes: int, seeds) -> None:
    directory.mkdir(parents=True)
    for s in seeds:
        inst = gen_gisp(nodes=nodes, seed=s)
        write_instance(inst, directory / f"{inst.name}.bdmilp")


def run_cell(cell: Cell, workdir) -> dict:
    """Run ``cell`` in the empty directory ``workdir``.

    Returns ``{"collection", "rows"}``: the collection's kept, skipped and
    failed counts with its wall seconds, and one row per (size, test set) in
    ``sizes`` order.  Every model is trained first; ``evaluate_choosers`` then
    solves each test instance's baseline once for all of them (a failure raises).
    """
    for size in (cell.reference, *cell.candidates):
        if size not in cell.sizes:
            raise ValueError(f"size {size} is not among {cell.sizes}")
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

    cpu: dict[int, list[float]] = {}  # size index -> training CPU per model seed
    models = {}  # (size index, model seed) -> trained parameters
    for i, size in enumerate(cell.sizes):
        for seed in cell.model_seeds:
            t0 = time.process_time()
            models[i, seed], _ = train(samples, replace(cell.train, **size, seed=seed))
            cpu.setdefault(i, []).append(round(time.process_time() - t0, 2))
    choosers = [functools.partial(predict_backdoor, params) for params in models.values()]
    runs: dict[tuple[int, str], list[list]] = {}  # (size index, test set) -> one record list per model seed
    for name in cell.test_sets:
        per_model, errors = evaluate_choosers(workdir / name, choosers)
        if errors:
            raise ValueError(f"test set {name}: {errors[0]['instance']} failed with {errors[0]['error']}")
        for (i, _), records in zip(models, per_model):
            runs.setdefault((i, name), []).append(records)

    reference = cell.sizes.index(cell.reference)
    rows = []
    for i, size in enumerate(cell.sizes):
        for name, (nodes, seeds) in cell.test_sets.items():
            mine, ref = runs[i, name], runs[reference, name]
            pairs = [(a, b) for own, other in zip(mine, ref) for a, b in zip(own, other)]
            better = sum(a.method_effort < b.method_effort for a, b in pairs)
            worse = sum(a.method_effort > b.method_effort for a, b in pairs)
            method = sum(a.method_effort for a, _ in pairs)
            ref_method = sum(b.method_effort for _, b in pairs)
            p = sign_test_p(better, worse)
            rows.append({
                **size,
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
                "train_cpu_s": cpu[i],
                "sign_test": {
                    **{f"reference_{k}": v for k, v in cell.reference.items()},
                    "better": better, "worse": worse, "ties": len(pairs) - better - worse, "p": p,
                },
                "passes": method <= NODE_RATIO * ref_method and not (worse > better and p < ALPHA),
            })
    return {"collection": collection, "rows": rows}


def gate(cell: Cell, rows: list[dict]) -> dict:
    """Which sizes pass on every test set, and the size that follows: the
    first passing candidate, else the reference.  ``candidates`` and
    ``passing`` write a size that sets one field as that field's value, as
    the H cell's record does; ``chosen`` is the size, and ``default_<field>``
    each of its fields."""

    def key(size):
        return next(iter(size.values())) if len(size) == 1 else size

    passing = [size for size in cell.sizes if all(r["passes"] for r in rows if size.items() <= r.items())]
    chosen = next((size for size in cell.candidates if size in passing), cell.reference)
    reference = _label(cell.reference)
    return {
        "rule": (
            f"on every test set, summed method nodes at most {NODE_RATIO} x {reference}'s, "
            f"and the sign test against {reference} not showing it worse at p < {ALPHA}"
        ),
        "candidates": [key(size) for size in cell.candidates],
        "passing": [key(size) for size in passing],
        "chosen": chosen,
        **{f"default_{k}": v for k, v in chosen.items()},
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
    parser.add_argument("--cell", choices=sorted(CELLS), default="H")
    parser.add_argument("--out", type=Path, help="default: the cell's record under quality/")
    args = parser.parse_args(argv)
    cell, record = CELLS[args.cell]
    out = args.out or ROOT / "quality" / record
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="quality-") as workdir:
        result = run_cell(cell, workdir)
    spec = asdict(cell)
    spec["train_seeds"] = [cell.train_seeds.start, cell.train_seeds.stop - 1]
    spec["test_sets"] = {k: {"nodes": n, "seeds": [s.start, s.stop - 1]} for k, (n, s) in cell.test_sets.items()}
    for name in {"seed"}.union(*cell.sizes):  # each model's own, from sizes and model_seeds
        del spec["train"][name]
    spec["evaluate"] = {"K": CollectConfig.K, "node_cap": NODE_CAP}
    doc = {
        "command": "python3 quality/run.py" + ("" if args.cell == "H" else f" --cell {args.cell}"),
        "cell": spec,
        "machine": _machine(),
        "seconds": round(time.perf_counter() - t0, 1),
        **result,
        "gate": gate(cell, result["rows"]),
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for r in result["rows"]:
        s = r["sign_test"]
        print(
            f"{_label({k: r[k] for k in cell.reference})} {r['test_set']}: "
            f"W/T/L {r['wins']}/{r['ties']}/{r['losses']}, "
            f"nodes {r['method_nodes']} (baseline {r['baseline_nodes']}), "
            f"vs {_label(cell.reference)} {s['better']} better / {s['worse']} worse, p={s['p']:.3g}, "
            f"train CPU {r['train_cpu_s']} s, {'passes' if r['passes'] else 'FAILS'}"
        )
    verdict = doc["gate"]
    print(f"default: {_label(verdict['chosen'])} (passing: {verdict['passing']}); wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
