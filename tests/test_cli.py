import csv
import inspect
import json
import math
import multiprocessing
import os
import struct

import pytest

from backdoorlab import generators
from backdoorlab.cli import build_parser, main
from backdoorlab.features import featurize
from backdoorlab.gnn import GatParameters, TrainConfig, save_model
from backdoorlab.gnn.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _layout
from backdoorlab.milp import read_instance, write_instance
from backdoorlab.pipeline import _RESULT_COLUMNS, CollectConfig, _graph_payload, evaluate, load_dataset
from backdoorlab.simplex import LpWorkspace, SimplexIterationError, SimplexNumericalError

from test_pipeline import patch_to_die, write_gisp_dir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_writes_files_and_manifest(tmp_path, capsys):
    code, out = run(
        capsys, "generate", "--family", "mis", "--nodes", "12", "--avg-degree", "3",
        "--seed", "5", "--count", "3", "--out", str(tmp_path / "inst"),
    )
    assert code == 0
    files = sorted((tmp_path / "inst").glob("*.bdmilp"))
    assert len(files) == 3
    manifest = json.loads((tmp_path / "inst" / "manifest.json").read_text())
    assert len(manifest["instances"]) == 3
    entry = manifest["instances"][0]
    inst = read_instance(tmp_path / "inst" / entry["file"])
    assert inst.num_vars == entry["n"] == 12
    assert inst.num_cons == entry["m"]


@pytest.mark.parametrize("options, nodes", [((), 150), (("--nodes", "12"), 12)])
def test_generate_manifest_records_every_size(tmp_path, capsys, options, nodes):
    code, _ = run(
        capsys, "generate", "--family", "gisp", "--seed", "3", *options,
        "--out", str(tmp_path / "inst"),
    )
    assert code == 0
    (entry,) = json.loads((tmp_path / "inst" / "manifest.json").read_text())["instances"]
    assert entry["params"] == {
        "nodes": nodes,
        "edge_prob": generators.GISP_EDGE_PROB,
        "removable_frac": generators.GISP_REMOVABLE_FRAC,
        "node_reward": generators.GISP_NODE_REWARD,
        "edge_cost": generators.GISP_EDGE_COST,
    }
    assert read_instance(tmp_path / "inst" / entry["file"]).num_vars >= nodes


def test_solve_prints_json(tmp_path, capsys):
    run(
        capsys, "generate", "--family", "gisp", "--nodes", "12", "--seed", "3",
        "--count", "1", "--out", str(tmp_path),
    )
    inst_file = next(tmp_path.glob("*.bdmilp"))
    code, out = run(capsys, "solve", "--instance", str(inst_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "OPTIMAL"
    assert set(payload) == {"fathomed", "instance", "lp", "nodes", "objective", "status", "tree_weight"}
    assert set(payload["fathomed"]) == {"infeasible", "bound", "integral", "restricted"}
    lp = payload["lp"]
    assert set(lp) == {
        "memo_hits", "cold_retries", "kernel_runs", "pivots", "inversions",
        "refactorizations", "inverse_hits",
    }
    assert lp["refactorizations"] <= lp["inversions"]
    # One kernel run per processed node (the root cold, the rest warm).
    assert lp["kernel_runs"] == payload["nodes"] and lp["cold_retries"] == 0


def test_solve_with_priorities_file(tmp_path, capsys):
    run(
        capsys, "generate", "--family", "gisp", "--nodes", "12", "--seed", "3",
        "--count", "1", "--out", str(tmp_path),
    )
    inst_file = next(tmp_path.glob("*.bdmilp"))
    prio = tmp_path / "prio.json"
    prio.write_text(json.dumps({"0": 1, "3": 1}))
    code, out = run(capsys, "solve", "--instance", str(inst_file), "--priorities", str(prio))
    base = json.loads(run(capsys, "solve", "--instance", str(inst_file))[1])
    assert json.loads(out)["objective"] == pytest.approx(base["objective"], abs=1e-6)


@pytest.mark.parametrize("text", [
    "[1, 2]", '{"1": [2]}', '{"x": 1}', '{"1_0": 1}', '{"1.0": 1}', '{"true": 1}', '{"1": true}',
])
def test_malformed_priorities_file_is_an_error_naming_it(capsys, one_instance, text):
    (inst_file,) = one_instance.glob("*.bdmilp")
    prio = one_instance / "prio.json"
    prio.write_text(text)
    code = main(["solve", "--instance", str(inst_file), "--priorities", str(prio)])
    assert code == 2
    assert f"{prio}: expected a JSON object mapping integer variable indices" in capsys.readouterr().err


def test_a_non_ascii_byte_in_a_priorities_file_names_its_line(capsys, one_instance):
    (inst_file,) = one_instance.glob("*.bdmilp")
    prio = one_instance / "prio.json"
    prio.write_bytes(b'{\n"0": 1,\n"\xd9": 1}\n')
    assert main(["solve", "--instance", str(inst_file), "--priorities", str(prio)]) == 2
    assert capsys.readouterr().err == f"error: {prio}: line 3: non-ASCII byte 0xd9\n"


def test_full_workflow(tmp_path, capsys):
    train_dir = tmp_path / "train"
    test_dir = tmp_path / "test"
    run(capsys, "generate", "--family", "gisp", "--nodes", "22", "--seed", "0",
        "--count", "4", "--out", str(train_dir))
    run(capsys, "generate", "--family", "gisp", "--nodes", "22", "--seed", "100",
        "--count", "2", "--out", str(test_dir))

    ds = tmp_path / "ds.jsonl"
    code, out = run(
        capsys, "collect", "--instances", str(train_dir), "--out", str(ds),
        "--K", "3", "--k", "6", "--budget", "15", "--probe-limit", "10",
        "--label-limit", "2000", "--seed", "0",
    )
    assert code == 0 and ds.exists()

    model = tmp_path / "model.ckpt"
    code, out = run(
        capsys, "train", "--dataset", str(ds), "--out", str(model),
        "--epochs", "3", "--L", "8", "--H", "2", "--hidden", "6", "--seed", "0",
    )
    assert code == 0
    info = json.loads(out)
    assert info["epochs"] == 3 and model.exists()
    side = json.loads((tmp_path / "model.ckpt.manifest.json").read_text())
    assert side["config"]["epochs"] == 3 and len(side["loss_curve"]) == 3
    assert len(side["epoch_seconds"]) == 3 and len(side["grad_norm"]) == 3

    inst_file = next(test_dir.glob("*.bdmilp"))
    code, out = run(capsys, "predict", "--model", str(model), "--instance", str(inst_file), "--K", "3")
    assert code == 0
    assert len(json.loads(out)["backdoor"]) == 3

    evaldir = tmp_path / "eval"
    code, out = run(
        capsys, "evaluate", "--model", str(model), "--instances", str(test_dir),
        "--K", "3", "--node-cap", "2000", "--out", str(evaldir),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["instances"] == 2 and summary["failed"] == 0
    assert (evaldir / "results.csv").exists()
    assert (evaldir / "summary.txt").exists()
    assert (evaldir / "scatter.csv").exists()
    assert (evaldir / "finishrate.csv").exists()
    run_manifest = json.loads((evaldir / "manifest.json").read_text())
    assert run_manifest["K"] == 3 and run_manifest["summary"]["instances"] == 2
    with open(evaldir / "results.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == _RESULT_COLUMNS
    timing = [json.loads(line) for line in (evaldir / "timing.jsonl").read_text().splitlines()]
    assert [t["instance"] for t in timing] == [row[0] for row in rows]
    for t in timing:
        assert set(t) == {"instance", "overhead_seconds"}
        assert math.isfinite(t["overhead_seconds"]) and t["overhead_seconds"] >= 0

    report_dir = tmp_path / "rebuilt"
    code, out = run(
        capsys, "report", "--results", str(evaldir / "results.csv"), "--out", str(report_dir),
    )
    assert code == 0
    assert json.loads(out)["instances"] == 2
    assert (report_dir / "results.csv").read_bytes() == (evaldir / "results.csv").read_bytes()


def test_unknown_family_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--family", "bogus", "--out", "/tmp/x"])


@pytest.mark.parametrize("family, option", [
    ("gisp", "--density"),
    ("setcover", "--nodes"),
])
def test_size_option_of_another_family_rejected(tmp_path, capsys, family, option):
    out = tmp_path / "inst"
    code = main(["generate", "--family", family, option, "3", "--out", str(out)])
    assert code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_missing_instance_file_is_an_error_not_a_traceback(tmp_path, capsys):
    code = main(["solve", "--instance", str(tmp_path / "nope.bdmilp")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_reports_line(tmp_path, capsys):
    # Two variables, one row, one binary; each case edits one line of the good file.
    good = ["bdmilp 1", "p", "2 1 1", "-1 -1", "row 2 0 1 1 1", "LE", "1", "0 0", "1 1", "0"]
    for line, text, message in [
        (1, "not a header", "line 1: missing header"),
        (5, "row 2 0 1_0 1 1", "line 5: non-numeric coefficient '1_0'"),
        (10, "0_9", "line 10: bad binary index"),
        (3, "2 +1 1", "line 3: malformed size line"),
        (4, "nan -1", "line 4: non-numeric objective coefficient 'nan'"),
    ]:
        bad = tmp_path / "bad.bdmilp"
        bad.write_text("\n".join(good[: line - 1] + [text] + good[line:]) + "\n")
        code = main(["solve", "--instance", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_names_the_line_of_a_non_ascii_byte(tmp_path, capsys):
    bad = tmp_path / "bad.bdmilp"
    bad.write_bytes(b"bdmilp 1\np\n1 0 1\n-1 \xd9\n\n\n0\n1\n0\n")
    assert main(["solve", "--instance", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 4: non-ASCII byte 0xd9\n"


@pytest.mark.parametrize("flag", ["--H", "--L", "--hidden"])
def test_train_with_a_zero_model_size_is_an_error_not_a_traceback(tmp_path, capsys, flag):
    code = main([
        "train", "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(tmp_path / "m.npz"),
        flag, "0",
    ])
    assert code == 2
    assert "must be positive" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--tau", "0", "temperature must be positive and finite, got 0.0"),
    ("--lr", "-1", "learning rate must be positive and finite, got -1.0"),
    ("--lr", "0", "learning rate must be positive and finite, got 0.0"),
    ("--weight-decay", "-0.01", "weight decay must be finite and not negative, got -0.01"),
])
def test_train_with_an_unusable_rate_is_an_error_not_a_run(tmp_path, capsys, flag, value, message):
    code = main([
        "train", "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(tmp_path / "m.npz"),
        flag, value,
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


GENERATE_GISP = ["generate", "--family", "gisp"]
TRAIN = ["train", "--dataset", "{d}/ds.jsonl"]


@pytest.mark.parametrize("argv, option, kind, token", [
    (GENERATE_GISP, "--seed", "integer", "1_0"),
    (GENERATE_GISP, "--edge-cost", "number", "1_0"),
    (GENERATE_GISP, "--node-reward", "number", "nan"),
    (GENERATE_GISP, "--nodes", "integer", "+8"),
    (GENERATE_GISP, "--edge-prob", "number", ".5"),
    (GENERATE_GISP, "--count", "integer", "007"),
    (GENERATE_GISP, "--count", "integer", "1e1"),
    (GENERATE_GISP, "--edge-cost", "number", "1e309"),
    (TRAIN, "--lr", "number", "1_0"),
    (TRAIN, "--lr", "number", "nan"),
    (TRAIN, "--tau", "number", "nan"),
    (TRAIN, "--tau", "number", "inf"),
    (TRAIN, "--weight-decay", "number", "inf"),
    (TRAIN, "--epochs", "integer", "true"),
], ids=[
    "seed-1_0", "edge-cost-1_0", "node-reward-nan", "nodes-plus-sign", "edge-prob-bare-point", "count-leading-zero",
    "count-exponent", "edge-cost-overflow", "lr-1_0", "lr-nan", "tau-nan", "tau-inf", "weight-decay-inf",
    "epochs-true",
])
def test_an_option_the_number_rule_refuses_is_an_error_naming_it(tmp_path, capsys, argv, option, kind, token):
    with pytest.raises(SystemExit) as exit_:
        main([arg.format(d=tmp_path) for arg in argv] + [option, token, "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"error: argument {option}: invalid {kind} value: {token!r}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_options_read_the_numbers_they_spell():
    parser = build_parser()
    args = parser.parse_args([*GENERATE_GISP, "--seed", "-0", "--node-reward", "-0", "--out", "o"])
    assert (args.seed, math.copysign(1.0, args.node_reward)) == (0, -1.0)
    args = parser.parse_args(["train", "--dataset", "d", "--out", "o", "--lr", "1e-3", "--tau", "0.5", "--L", "16"])
    assert (args.learning_rate, args.tau, args.L) == (1e-3, 0.5, 16)


def test_train_accepts_a_zero_weight_decay():
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


def dataset_record(positives, negatives, corrupt=None):
    """A collection record on a 9-variable, 15-constraint, 30-edge graph with
    the given backdoors; ``corrupt`` maps the record to another."""
    inst = generators.gen_mis(nodes=9, avg_degree=3.0, seed=5)
    samples = [
        {"backdoor": list(b), "effort": 1, "label": label, "tree_weight": None}
        for label, group in (("POSITIVE", positives), ("NEGATIVE", negatives))
        for b in group
    ]
    graph = _graph_payload(featurize(inst, inst.lp.solve()))
    record = {"baseline_effort": 2, "graph": graph, "instance": inst.name, "samples": samples}
    return json.dumps(record if corrupt is None else corrupt(record))


def with_graph(**changes):
    """A corruption that replaces each named graph array ``a`` by ``change(a)``."""
    return lambda rec: {
        **rec, "graph": {**rec["graph"], **{name: change(rec["graph"][name]) for name, change in changes.items()}},
    }


def relabel(index, label):
    """A corruption that gives the record's sample ``index`` the label ``label``."""
    return lambda rec: {
        **rec, "samples": [{**s, "label": label} if i == index else s for i, s in enumerate(rec["samples"])],
    }


@pytest.mark.parametrize("positives, negatives, corrupt, message", [
    ([(0, 1)], [(2, 999)], None, "ValueError: variable index 999 outside [0, 9)"),
    ([(0, -1)], [(2, 3)], None, "ValueError: variable index -1 outside [0, 9)"),
    ([(0, 1)], [], None, "ValueError: it needs a positive and a negative sample"),
    ([], [(2, 3)], None, "ValueError: it needs a positive and a negative sample"),
    (
        [(0, 1)], [(2, 3)], with_graph(edges=lambda e: [[999, e[0][1]]] + e[1:]),
        "ValueError: graph edges: constraint index 999 outside [0, 15)",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(edges=lambda e: [[e[0][0], 999]] + e[1:]),
        "ValueError: graph edges: variable index 999 outside [0, 9)",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(edges=lambda e: e[:-1] + [[e[-1][0], -1]]),
        "ValueError: graph edges: variable index -1 outside [0, 9)",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(edges=lambda e: [row + [0] for row in e]),
        "ValueError: graph edges has shape (30, 3), expected (30, 2)",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(edge_feats=lambda f: f[:-1]),
        "ValueError: graph edge_feats has shape (29, 1), expected (30, 1)",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(var_feats=lambda v: [[math.nan] + v[0][1:]] + v[1:]),
        "ValueError: graph var_feats holds a value that is not finite",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(var_feats=lambda v: [row[:14] for row in v]),
        "ValueError: graph var_feats has shape (9, 14), expected (9, 15)",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(binary_mask=lambda b: b[:-1]),
        "ValueError: graph binary_mask has shape (8,), expected (9,)",
    ),
    ([(0, 1.5)], [(2, 3)], None, "ValueError: variable index 1.5 is not an integer"),
    (
        [(0, 1)], [(2, 3)], with_graph(edges=lambda e: [[e[0][0], e[0][1] + 0.5]] + e[1:]),
        "ValueError: graph edges holds a value that is not an integer",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(binary_mask=lambda b: [7] + b[1:]),
        "ValueError: graph binary_mask holds a value that is not 0 or 1",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(edges=lambda e: [[str(i) for i in e[0]]] + e[1:]),
        "ValueError: graph edges holds a value that is not an integer",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(binary_mask=lambda b: [str(b[0])] + b[1:]),
        "ValueError: graph binary_mask holds a value that is not 0 or 1",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(edges=lambda e: [[False, False]] + e[1:]),
        "ValueError: graph edges holds a value that is not an integer",
    ),
    ([(0, True)], [(2, 3)], None, "ValueError: variable index True is not an integer"),
    (
        [(0, 1)], [(2, 3)], with_graph(var_feats=lambda v: [[str(v[0][0])] + v[0][1:]] + v[1:]),
        "ValueError: graph var_feats holds a value that is not a number",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(var_feats=lambda v: [[True] + v[0][1:]] + v[1:]),
        "ValueError: graph var_feats holds a value that is not a number",
    ),
    (
        [(0, 1)], [(2, 3)], with_graph(cons_feats=lambda c: [[10**400] + c[0][1:]] + c[1:]),
        "ValueError: graph cons_feats holds a value that is not finite",
    ),
    (
        [(0, 1), (4, 5)], [(2, 3)], relabel(1, "POSTIVE"),
        "ValueError: sample label 'POSTIVE' is neither POSITIVE nor NEGATIVE",
    ),
    ([(0, 1), ()], [(2, 3)], None, "ValueError: sample backdoor is empty"),
], ids=[
    "index-past-the-graph", "negative-index", "no-negative", "no-positive",
    "edge-to-constraint-999", "edge-to-variable-999", "negative-edge-index", "three-edge-columns",
    "missing-edge-feature", "nan-feature", "fourteen-variable-features", "short-binary-mask",
    "fractional-index", "fractional-edge-index", "binary-mask-entry-7",
    "string-edge", "string-mask-entry", "boolean-edge", "boolean-index", "string-feature",
    "boolean-feature", "feature-past-the-float-range", "misspelled-label", "empty-backdoor",
])
def test_train_on_a_record_it_cannot_use_is_an_error_naming_the_line(
    tmp_path, capsys, positives, negatives, corrupt, message
):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(
        dataset_record([(0, 1)], [(2, 3)]) + "\n" + dataset_record(positives, negatives, corrupt) + "\n"
    )
    code = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "m.npz")])
    assert code == 2
    assert f"{dataset}: line 2: not a collection record ({message})" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_load_dataset_accepts_indices_up_to_the_last_variable(tmp_path):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(dataset_record([(0, 8)], [(2, 3)]) + "\n")
    (sample,) = load_dataset(dataset)
    assert (sample.positives, sample.negatives) == (((0, 8),), ((2, 3),))
    assert sample.graph.num_vars == 9


def test_train_on_a_non_ascii_byte_is_an_error_naming_the_line(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    dataset.write_bytes(dataset_record([(0, 1)], [(2, 3)]).encode() + b"\n\xd9" + b"\n")
    code = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "m.npz")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {dataset}: line 2: non-ASCII byte 0xd9\n"
    assert not (tmp_path / "m.npz").exists()


def test_load_dataset_skips_blank_lines(tmp_path):
    dataset = tmp_path / "d.jsonl"
    lines = ["", dataset_record([(0, 8)], [(2, 3)]), "  ", dataset_record([(1,)], [(4,)]), ""]
    dataset.write_text("\n".join(lines))
    assert [s.positives for s in load_dataset(dataset)] == [((0, 8),), ((1,),)]


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "{d}"],
    ["train", "--dataset", "{d}", "--out", "{d}/m.ckpt"],
    ["report", "--results", "{d}", "--out", "{d}/r"],
    ["predict", "--model", "{d}", "--instance", "{d}"],
], ids=["solve", "train", "report", "predict"])
def test_a_directory_where_a_file_belongs_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    assert main([arg.format(d=tmp_path) for arg in argv]) == 2
    assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_rejects_a_probability_outside_the_unit_interval(tmp_path, capsys):
    code = main([
        "generate", "--family", "gisp", "--nodes", "5", "--edge-prob", "2", "--out", str(tmp_path / "inst"),
    ])
    assert code == 2
    assert "gisp edge_prob must lie in [0, 1], got 2.0" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


def test_train_on_a_malformed_dataset_is_an_error_naming_the_line(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("{}\n")
    code = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "m.npz")])
    assert code == 2
    assert f"{dataset}: line 1: not a collection record (KeyError: 'samples')" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


RESULTS_HEADER = "instance,baseline,method,improvement_pct,outcome,baseline_censored,method_censored\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "instance,baseline,improvement_pct,outcome,baseline_censored,method_censored\n"
            "g1,10,0.0,TIE,0,0\n",
            "line 1: missing column(s) method",
        ),
        (RESULTS_HEADER + "g1,10,5,50.0,WIN,0,0\ng2,10,5\n", "line 3: 3 fields, expected 7"),
        (RESULTS_HEADER + "g1,10,5,50.0,BOGUS,0,0\n", "line 2: unknown outcome 'BOGUS'"),
        (RESULTS_HEADER + "g1,10,5,50.0,WIN,2,-1\n", "line 2: censored flag '2', expected 0 or 1"),
        (RESULTS_HEADER + "g1,10,5,-70.0,LOSS,0,0\n", "line 2: outcome LOSS and improvement_pct -70.0 contradict"),
        (RESULTS_HEADER + "g1,10,5,99.0,WIN,0,0\n", "line 2: outcome WIN and improvement_pct 99.0 contradict"),
        (RESULTS_HEADER + "g1,-5,3,160.0,LOSS,0,0\n", "line 2: negative effort -5/3"),
        (RESULTS_HEADER + "g1,1_0,5,50.0,WIN,0,0\n", "line 2: non-integer baseline '1_0'"),
        (RESULTS_HEADER + "g1,10,5.0,50.0,WIN,0,0\n", "line 2: non-integer method '5.0'"),
        (RESULTS_HEADER + "g1,10,5,+50.0,WIN,0,0\n", "line 2: non-numeric improvement_pct '+50.0'"),
        (RESULTS_HEADER + "g1,10,5,nan,WIN,0,0\n", "line 2: non-numeric improvement_pct 'nan'"),
    ],
    ids=[
        "missing-column", "short-row", "unknown-outcome", "censored-flag", "contradicting-outcome",
        "contradicting-improvement", "negative-effort", "effort-1_0", "fractional-effort",
        "signed-improvement", "nan-improvement",
    ],
)
def test_malformed_results_csv_is_an_error_naming_the_line(tmp_path, capsys, text, message):
    results = tmp_path / "results.csv"
    results.write_text(text)
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_non_ascii_byte_in_a_results_csv_names_its_line(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_bytes(RESULTS_HEADER.encode() + b"g1,10,5,50.0,WIN,0,0\ng\xd9,10,5,50.0,WIN,0,0\n")
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {results}: line 3: non-ASCII byte 0xd9\n"
    assert not (tmp_path / "out").exists()


def test_report_rewrites_a_results_csv_with_an_overhead_column_in_the_one_layout(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER[:-1] + ",overhead_seconds\ng1,10,5,50.0,WIN,0,1,0.25\n")
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "results.csv").read_text() == RESULTS_HEADER + "g1,10,5,50.0,WIN,0,1\n"


def test_K_defaults_to_the_collect_default():
    parser = build_parser()
    for argv in (
        ["predict", "--model", "m", "--instance", "i"],
        ["evaluate", "--model", "m", "--instances", "d", "--out", "o"],
    ):
        assert parser.parse_args(argv).K == CollectConfig.K
    assert inspect.signature(evaluate).parameters["K"].default == CollectConfig.K


@pytest.fixture
def one_instance(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_dir.mkdir()
    inst = generators.gen_gisp(nodes=12, seed=0)
    write_instance(inst, inst_dir / f"{inst.name}.bdmilp")
    return inst_dir


@pytest.mark.parametrize("flag, message", [
    ("--K", "K must be at least 1"),
    ("--k", "top_k must be at least 1"),
    ("--p", "p must be at least 1"),
    ("--q", "q must be at least 1"),
    ("--budget", "mcts_budget must be at least 1"),
    ("--probe-limit", "node_limit must be None or at least 1"),
    ("--label-limit", "node_limit must be None or at least 1"),
    ("--workers", "workers must be at least 1, got 0"),
])
def test_collect_rejects_a_value_below_one_before_it_starts(tmp_path, capsys, one_instance, flag, message):
    out = tmp_path / "ds.jsonl"
    code = main(["collect", "--instances", str(one_instance), "--out", str(out), "--workers", "2", flag, "0"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [one_instance]


@pytest.fixture
def small_model(tmp_path):
    model = tmp_path / "model.ckpt"
    save_model(GatParameters.init(seed=0, L=8, H=2, hidden=6), model)
    return model


def test_evaluate_rejects_a_node_cap_below_one(tmp_path, capsys, one_instance, small_model):
    out = tmp_path / "eval"
    for flag, message in (
        ("--node-cap", "node_limit must be None or at least 1, got 0"),
        ("--K", "K must be at least 1, got 0"),
    ):
        code = main([
            "evaluate", "--model", str(small_model), "--instances", str(one_instance), "--K", "3",
            "--node-cap", "500", flag, "0", "--out", str(out),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_evaluate_with_every_instance_failing_names_the_first_error(tmp_path, capsys, one_instance, small_model):
    second = generators.gen_gisp(nodes=12, seed=1)
    write_instance(second, one_instance / f"{second.name}.bdmilp")
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--model", str(small_model), "--instances", str(one_instance), "--K", "99",
        "--out", str(out),
    ])
    assert code == 2
    first = sorted(one_instance.glob("*.bdmilp"))[0].name
    assert f"the first, {first}, failed with ValueError: K=99 exceeds the" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_a_count_below_one(tmp_path, capsys):
    out = tmp_path / "inst"
    code = main(["generate", "--family", "gisp", "--count", "0", "--out", str(out)])
    assert code == 2
    assert "count must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_a_node_limit_below_one(capsys, one_instance):
    (inst_file,) = one_instance.glob("*.bdmilp")
    code = main(["solve", "--instance", str(inst_file), "--node-limit", "0"])
    assert code == 2
    assert "node_limit must be None or at least 1, got 0" in capsys.readouterr().err


def test_solve_rejects_a_binary_index_outside_the_variables(tmp_path, capsys):
    path = tmp_path / "p.bdmilp"
    # Two variables, one binary: the last line names column 7.
    path.write_text("\n".join(["bdmilp 1", "p", "2 1 1", "1 1", "row 2 0 1 1 1", "LE", "1", "0 0", "1 1", "7"]) + "\n")
    code = main(["solve", "--instance", str(path)])
    assert code == 2
    assert "line 10: binary index 7 outside [0, 2)" in capsys.readouterr().err


def test_solve_rejects_a_binary_bounded_outside_the_unit_interval(tmp_path, capsys):
    path = tmp_path / "bad.bdmilp"
    # Binary x0 has bounds [0, 5]: branching could never settle it.
    path.write_text("\n".join(["bdmilp 1", "bad", "2 1 1", "-1 -1", "row 2 0 1 1 1", "LE", "3.5", "0 0", "5 1", "0"]) + "\n")
    code = main(["solve", "--instance", str(path)])
    assert code == 2
    assert "binary bound: column 0 has bounds [0.0, 5.0]" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_generate_rejects_a_seed_that_keys_no_generator(tmp_path, capsys, seed):
    out = tmp_path / "inst"
    code = main(["generate", "--family", "gisp", "--nodes", "8", "--seed", seed, "--out", str(out)])
    assert code == 2
    assert f"seed {seed} outside [0, {2**64})" in capsys.readouterr().err
    assert not out.exists()


def test_generate_checks_its_last_seed_before_it_writes(tmp_path, capsys):
    out = tmp_path / "inst"
    code = main([
        "generate", "--family", "gisp", "--nodes", "8", "--seed", str(2**64 - 1), "--count", "2",
        "--out", str(out),
    ])
    assert code == 2
    assert f"seed {2**64} outside" in capsys.readouterr().err
    assert not out.exists()


def test_collect_and_train_reject_a_negative_seed(tmp_path, capsys, one_instance):
    for argv in (
        ["collect", "--instances", str(one_instance), "--out", str(tmp_path / "ds.jsonl")],
        ["train", "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(tmp_path / "m.ckpt")],
    ):
        assert main([*argv, "--seed", "-1"]) == 2
        assert "seed -1 outside [0, inf)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [one_instance]


# Past the interpreter's recursion limit, so json.loads raises RecursionError.
NESTED = "[" * 100_000 + "]" * 100_000


def test_train_on_a_dataset_line_nested_too_deep_names_its_line(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(dataset_record([(0, 1)], [(2, 3)]) + "\n" + NESTED + "\n")
    assert main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {dataset}: line 2: not JSON (maximum recursion depth")
    assert not (tmp_path / "m.ckpt").exists()


def test_predict_on_a_checkpoint_header_nested_too_deep_names_its_file(tmp_path, capsys, one_instance):
    (inst_file,) = one_instance.glob("*.bdmilp")
    model = tmp_path / "m.ckpt"
    blob = NESTED.encode()
    model.write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + struct.pack("<I", len(blob)) + blob)
    assert main(["predict", "--model", str(model), "--instance", str(inst_file)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {model}: corrupted checkpoint header: not JSON (maximum recursion depth"
    )


def test_predict_on_a_checkpoint_too_short_for_its_sizes_names_the_file(tmp_path, capsys, one_instance):
    """The header is the one ``save_model`` writes for L = 10,000,000, whose
    arrays would take petabytes; the file holds none of them."""
    (inst_file,) = one_instance.glob("*.bdmilp")
    model = tmp_path / "m.ckpt"
    shapes = _layout(10_000_000, 1, 64)
    header = {"H": 1, "L": 10_000_000, "arrays": [[k, list(shapes[k])] for k in sorted(shapes)], "hidden": 64}
    blob = json.dumps(header, separators=(",", ":")).encode()
    model.write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + struct.pack("<I", len(blob)) + blob)
    assert main(["predict", "--model", str(model), "--instance", str(inst_file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {model}: checkpoint truncated: 0 bytes of arrays, expected ")


@pytest.mark.parametrize("error", [SimplexIterationError, SimplexNumericalError])
@pytest.mark.parametrize("command", ["solve", "predict"])
def test_a_simplex_failure_is_an_error_not_a_traceback(
    capsys, monkeypatch, one_instance, small_model, command, error
):
    def fail(self, bounds, vstat, basis):
        raise error("the simplex gave up")

    monkeypatch.setattr(LpWorkspace, "_dual", fail)
    (inst_file,) = one_instance.glob("*.bdmilp")
    model = ["--model", str(small_model)] if command == "predict" else []
    assert main([command, *model, "--instance", str(inst_file)]) == 2
    assert capsys.readouterr().err == "error: the simplex gave up\n"


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched stage reaches pool workers only when they fork",
)
@pytest.mark.parametrize("command, stage", [("collect", "collect_one"), ("evaluate", "evaluate_instance")])
def test_a_killed_pool_worker_fails_only_its_instance(tmp_path, capsys, monkeypatch, small_model, command, stage):
    """A pool worker that ends its process fails its own instance, seed 2,
    and the command finishes with exit 0 and reports one failure."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    write_gisp_dir(tmp_path / "inst", range(4), nodes=6)
    patch_to_die(monkeypatch, stage, tmp_path / "pids")
    options = {
        "collect": ["--out", str(tmp_path / "out" / "ds.jsonl"), "--workers", "2", "--K", "2", "--k", "4",
                    "--p", "1", "--q", "1", "--budget", "6", "--probe-limit", "4"],
        "evaluate": ["--model", str(small_model), "--out", str(tmp_path / "out"), "--K", "2"],
    }[command]
    code, out = run(capsys, command, "--instances", str(tmp_path / "inst"), *options)
    assert code == 0
    if command == "collect":
        assert "failed 1," in out
        errors = [e for e in json.loads((tmp_path / "out" / "ds.jsonl.manifest.json").read_text())["instances"]
                  if "error" in e]
        assert errors == [{"file": "gisp_n6_s2.bdmilp", "error": "BrokenProcessPool: its worker process ended"}]
    else:
        summary = json.loads(out)
        assert summary["failed"] == 1 and summary["instances"] == 3
        assert summary["errors"] == [
            {"instance": "gisp_n6_s2.bdmilp", "error": "BrokenProcessPool: its worker process ended"}
        ]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("text, reason", [
    (NESTED, "maximum recursion depth"), ('{"1": 2', "Expecting ',' delimiter"),
], ids=["nested-too-deep", "truncated"])
def test_a_priorities_file_that_is_not_json_names_its_file(capsys, one_instance, text, reason):
    (inst_file,) = one_instance.glob("*.bdmilp")
    prio = one_instance / "prio.json"
    prio.write_text(text)
    assert main(["solve", "--instance", str(inst_file), "--priorities", str(prio)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {prio}: not JSON ({reason}")


def test_a_results_csv_field_past_the_csv_limit_names_its_line(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + "g1,10,5,50.0,WIN,0,0\n" + "g" * 200_000 + ",10,5,50.0,WIN,0,0\n")
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {results}: line 3: field larger than field limit")
    assert not (tmp_path / "out").exists()
