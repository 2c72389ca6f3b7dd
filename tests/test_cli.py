import json

import pytest

from backdoorlab.cli import main
from backdoorlab.milp import read_instance


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
    ],
    ids=["missing-column", "short-row", "unknown-outcome"],
)
def test_malformed_results_csv_is_an_error_naming_the_line(tmp_path, capsys, text, message):
    results = tmp_path / "results.csv"
    results.write_text(text)
    code = main(["report", "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
