import csv
import inspect
import json
import math

import pytest

from backdoorlab import generators
from backdoorlab.cli import build_parser, main
from backdoorlab.features import featurize
from backdoorlab.gnn import GatParameters, TrainConfig, save_model
from backdoorlab.milp import read_instance, write_instance
from backdoorlab.pipeline import _RESULT_COLUMNS, CollectConfig, _graph_payload, evaluate, load_dataset


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


@pytest.mark.parametrize("text", ["[1, 2]", '{"1": [2]}', '{"x": 1}'])
def test_malformed_priorities_file_is_an_error_naming_it(capsys, one_instance, text):
    (inst_file,) = one_instance.glob("*.bdmilp")
    prio = one_instance / "prio.json"
    prio.write_text(text)
    code = main(["solve", "--instance", str(inst_file), "--priorities", str(prio)])
    assert code == 2
    assert f"{prio}: expected a JSON object mapping integer variable indices" in capsys.readouterr().err


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
    bad = tmp_path / "bad.bdmilp"
    bad.write_text("not a header\n")
    code = main(["solve", "--instance", str(bad)])
    assert code == 2
    assert "header" in capsys.readouterr().err


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
    ("--tau", "nan", "temperature must be positive and finite, got nan"),
    ("--tau", "inf", "temperature must be positive and finite, got inf"),
    ("--tau", "0", "temperature must be positive and finite, got 0.0"),
    ("--lr", "-1", "learning rate must be positive and finite, got -1.0"),
    ("--lr", "0", "learning rate must be positive and finite, got 0.0"),
    ("--lr", "nan", "learning rate must be positive and finite, got nan"),
    ("--weight-decay", "-0.01", "weight decay must be finite and not negative, got -0.01"),
    ("--weight-decay", "inf", "weight decay must be finite and not negative, got inf"),
])
def test_train_with_an_unusable_rate_is_an_error_not_a_run(tmp_path, capsys, flag, value, message):
    code = main([
        "train", "--dataset", str(tmp_path / "ds.jsonl"), "--out", str(tmp_path / "m.npz"),
        flag, value,
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_accepts_a_zero_weight_decay():
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


def dataset_record(positives, negatives):
    """A collection record on a 9-variable graph with the given backdoors."""
    inst = generators.gen_mis(nodes=9, avg_degree=3.0, seed=5)
    samples = [
        {"backdoor": list(b), "effort": 1, "label": label, "tree_weight": None}
        for label, group in (("POSITIVE", positives), ("NEGATIVE", negatives))
        for b in group
    ]
    graph = _graph_payload(featurize(inst, inst.lp.solve()))
    return json.dumps({"baseline_effort": 2, "graph": graph, "instance": inst.name, "samples": samples})


@pytest.mark.parametrize("positives, negatives, message", [
    ([(0, 1)], [(2, 999)], "ValueError: variable index 999 outside [0, 9)"),
    ([(0, -1)], [(2, 3)], "ValueError: variable index -1 outside [0, 9)"),
    ([(0, 1)], [], "ValueError: it needs a positive and a negative sample"),
    ([], [(2, 3)], "ValueError: it needs a positive and a negative sample"),
], ids=["index-past-the-graph", "negative-index", "no-negative", "no-positive"])
def test_train_on_a_record_it_cannot_use_is_an_error_naming_the_line(
    tmp_path, capsys, positives, negatives, message
):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(dataset_record([(0, 1)], [(2, 3)]) + "\n" + dataset_record(positives, negatives) + "\n")
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
    ],
    ids=[
        "missing-column", "short-row", "unknown-outcome", "censored-flag", "contradicting-outcome",
        "contradicting-improvement", "negative-effort",
    ],
)
def test_malformed_results_csv_is_an_error_naming_the_line(tmp_path, capsys, text, message):
    results = tmp_path / "results.csv"
    results.write_text(text)
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
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
