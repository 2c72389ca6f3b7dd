"""The quality table script (``quality/run.py``) runs one tiny cell end to end."""

import functools
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from backdoorlab.gnn import GatParameters, TrainConfig
from backdoorlab.milp import read_instance
from backdoorlab.pipeline import evaluate, evaluate_instance, instance_paths, predict_backdoor

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def quality():
    spec = importlib.util.spec_from_file_location("quality_run", ROOT / "quality" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("better, worse, p", [
    (0, 0, 1.0),
    (3, 3, 1.0),
    (0, 5, 2 / 32),
    (5, 0, 2 / 32),
    (1, 9, 2 * (1 + 10) / 1024),
    (2, 10, 2 * (1 + 12 + 66) / 4096),
])
def test_sign_test_is_the_exact_two_sided_binomial(quality, better, worse, p):
    assert quality.sign_test_p(better, worse) == pytest.approx(p, rel=1e-15)


@pytest.mark.parametrize("sizes", [
    ({"H": 1}, {"H": 2}),
    ({"L": 8, "hidden": 8}, {"L": 16, "hidden": 16}),
], ids=["H", "width"])
def test_a_tiny_cell_writes_one_row_per_size_and_test_set(quality, tmp_path, sizes):
    cell = replace(
        quality.CELL, train_nodes=12, train_seeds=range(4), test_sets={"gisp12": (12, range(100, 102))},
        sizes=sizes, reference=sizes[1], candidates=sizes[:1], train=TrainConfig(epochs=2), workers=1,
    )
    result = quality.run_cell(cell, tmp_path)
    assert result["collection"]["kept"] + result["collection"]["skipped"] == 4
    rows = result["rows"]
    assert [({k: r[k] for k in sizes[0]}, r["test_set"]) for r in rows] == [(s, "gisp12") for s in sizes]
    for r in rows:
        assert r.keys() & {"L", "H", "hidden"} == sizes[0].keys()
        assert r["instances"] == 2 and r["model_seeds"] == [0, 1, 2]
        assert r["wins"] + r["ties"] + r["losses"] == 2 * 3
        assert r["method_nodes"] > 0 and r["baseline_nodes"] > 0
        assert len(r["train_cpu_s"]) == 3 and all(s >= 0.0 for s in r["train_cpu_s"])
        s = r["sign_test"]
        assert {k: s[f"reference_{k}"] for k in sizes[1]} == sizes[1]
        assert s["better"] + s["worse"] + s["ties"] == 2 * 3
        assert s["p"] == quality.sign_test_p(s["better"], s["worse"])
    reference = rows[1]
    assert reference["sign_test"]["ties"] == 6 and reference["passes"]
    verdict = quality.gate(cell, rows)
    assert len(verdict["passing"]) == sum(r["passes"] for r in rows)
    assert verdict["chosen"] == (sizes[0] if rows[0]["passes"] else sizes[1])
    assert {k: verdict[f"default_{k}"] for k in sizes[0]} == verdict["chosen"]


def test_the_gate_keeps_the_head_cell_record(quality):
    """The gate over ``quality/run.json``'s rows gives that record's verdict,
    and the H cell it runs names the widths its models trained at."""
    record = json.loads((ROOT / "quality" / "run.json").read_text())
    verdict = quality.gate(quality.CELL, record["rows"])
    assert {k: verdict[k] for k in record["gate"]} == record["gate"]
    assert (quality.CELL.train.L, quality.CELL.train.hidden) == (64, 64) == (
        record["cell"]["train"]["L"], record["cell"]["train"]["hidden"])


def test_the_default_model_size_is_the_gates_choice():
    """``GatParameters``' defaults are the sizes the quality records chose:
    H from ``quality/run.json``, L and hidden from ``quality/width.json``."""
    heads = json.loads((ROOT / "quality" / "run.json").read_text())["gate"]
    width = json.loads((ROOT / "quality" / "width.json").read_text())["gate"]
    params = GatParameters()
    assert params.H == heads["default_H"]
    assert (params.L, params.hidden) == (width["default_L"], width["default_hidden"])


def test_models_on_shared_instances_get_the_records_evaluate_gives(quality, tmp_path):
    """The tiny cell's test set, read once and evaluated with two models'
    choosers at the default K and node cap, gives each model the records of
    its own ``evaluate`` call."""
    nodes, seeds = 12, range(100, 102)
    quality._write_gisp(tmp_path / "gisp12", nodes, seeds)
    models = [GatParameters.init(seed=seed, L=8, H=H, hidden=8) for seed, H in ((0, 1), (1, 2))]
    shared = [read_instance(p) for p in instance_paths(tmp_path / "gisp12")]
    choosers = [functools.partial(predict_backdoor, params) for params in models]
    got = [list(records) for records in zip(*(evaluate_instance(inst, choosers) for inst in shared))]
    want = [evaluate(params, tmp_path / "gisp12")[0] for params in models]
    assert got == want and len(got[0]) == len(seeds)
    assert sum(inst.lp.counters()["memo_hits"] for inst in shared) > 0
