import hashlib
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from backdoorlab import pipeline
from backdoorlab.generators import gen_gisp
from backdoorlab.gnn import GatParameters, TrainConfig
from backdoorlab.milp import make_instance, write_instance
from backdoorlab.pipeline import (
    CollectConfig,
    EvalRecord,
    collect_dataset,
    collect_one,
    evaluate,
    graph_from_payload,
    load_dataset,
    predict_backdoor,
    read_results_csv,
    report,
    summarize,
    train_from_file,
)


def write_gisp_dir(path, seeds, nodes=22):
    path.mkdir(parents=True, exist_ok=True)
    for s in seeds:
        inst = gen_gisp(nodes=nodes, seed=s)
        write_instance(inst, path / f"{inst.name}.bdmilp")


def write_infeasible(path):
    """Four binaries cannot sum to 5: the root LP is infeasible."""
    inst = make_instance(
        "infeasible", [1.0] * 4, [[(j, 1.0) for j in range(4)]], [5.0], ["GE"],
        [0.0] * 4, [1.0] * 4, range(4),
    )
    write_instance(inst, path / "infeasible.bdmilp")


def timing_lines(dataset_path):
    """The parsed lines of a dataset's ``.timing.jsonl`` sidecar."""
    with open(str(dataset_path) + ".timing.jsonl", encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


SMALL_COLLECT = dict(
    K=3, top_k=8, p=3, q=3, mcts_budget=20, probe_node_limit=10,
    label_node_limit=2000, seed=0,
)


# The pipeline-gisp25 benchmark's collection settings.
BENCH_COLLECT = dict(
    K=4, top_k=12, p=5, q=5, mcts_budget=30, probe_node_limit=12,
    label_node_limit=3000, seed=0,
)


class TestCollect:
    @pytest.mark.parametrize("seed, kept, digest", [
        pytest.param(
            2, True, "62e56f30b32192f44b4fc48d2e364e5503667b67f7464f85ab19b2bf7890648d", id="2-True"
        ),
        pytest.param(
            3, True, "c9168e5c2411e30187ac0566353380cd6e92c1668a8538c139bc3ecbb4edbb1a", id="3-True"
        ),
    ])
    def test_collect_one_output_is_pinned(self, tmp_path, seed, kept, digest):
        """Record and manifest entry as collected when cold LP solves moved to
        the dual kernel."""
        write_gisp_dir(tmp_path, [seed], nodes=25)
        record, entry = collect_one(
            tmp_path / f"gisp_n25_s{seed}.bdmilp", seed, CollectConfig(**BENCH_COLLECT)
        )
        assert (record is not None) == kept
        blob = json.dumps([record, entry], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        write_gisp_dir(tmp_path / "inst", range(4))
        d1 = tmp_path / "w1.jsonl"
        d4 = tmp_path / "w4.jsonl"
        collect_dataset(tmp_path / "inst", d1, CollectConfig(**SMALL_COLLECT), workers=1)
        collect_dataset(tmp_path / "inst", d4, CollectConfig(**SMALL_COLLECT), workers=4)
        assert d1.read_bytes() == d4.read_bytes()
        assert (tmp_path / "w1.jsonl.manifest.json").read_bytes() == (
            tmp_path / "w4.jsonl.manifest.json"
        ).read_bytes()
        # The wall-clock sidecar: one line per instance, in instance order,
        # with LP counters and search and labeling costs that are exact and
        # so equal for any worker count.
        sidecars = [timing_lines(tmp_path / f"{name}.jsonl") for name in ("w1", "w4")]
        exact = (
            "counters", "probes", "distinct_subsets", "probe_nodes", "selections", "max_depth",
            "label_solves", "label_nodes",
        )
        for lines in sidecars:
            assert [t["file"] for t in lines] == [f"gisp_n22_s{i}.bdmilp" for i in range(4)]
            assert all(set(t) == {"file", "seconds", *exact} and t["seconds"] > 0.0 for t in lines)
            assert all(t["counters"]["kernel_runs"] > 0 for t in lines)
            assert all(t["probes"] == SMALL_COLLECT["mcts_budget"] for t in lines)
            assert all(0 < t["distinct_subsets"] <= min(t["probes"], t["probe_nodes"]) for t in lines)
            assert all(t["label_solves"] >= 2 and t["label_nodes"] >= t["label_solves"] for t in lines)
        assert [[t[k] for k in exact] for t in sidecars[0]] == [[t[k] for k in exact] for t in sidecars[1]]

    def test_worker_returns_the_encoded_record(self, tmp_path):
        """A kept instance comes back as its dataset line, a skipped one as None."""
        write_gisp_dir(tmp_path, [0])
        write_gisp_dir(tmp_path, [1], nodes=6)  # closes at the root: skipped
        cfg = CollectConfig(**SMALL_COLLECT)
        kept = []
        for i, path in enumerate(sorted(tmp_path.glob("*.bdmilp"))):
            record, entry = collect_one(path, 7, cfg)
            line, worker_entry, timing = pipeline._collect_worker((i, str(path), 7, cfg))
            assert line == (None if record is None else json.dumps(record, sort_keys=True))
            assert worker_entry == entry
            assert json.loads(timing)["file"] == path.name
            kept.append(record is not None)
        assert kept == [True, False]  # gisp_n22_s0, then gisp_n6_s1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched collect_one reaches pool workers only when they fork",
    )
    def test_dead_worker_leaves_no_output(self, tmp_path, monkeypatch):
        """A pool worker that ends its process (standing in for an OOM kill)
        fails the batch, and the batch leaves no file behind."""
        write_gisp_dir(tmp_path / "inst", range(4), nodes=6)
        pids = tmp_path / "pids"
        original = pipeline.collect_one

        def dying_collect_one(path, *args):
            with open(pids, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            if path.endswith("_s2.bdmilp"):
                os._exit(1)
            return original(path, *args)

        monkeypatch.setattr(pipeline, "collect_one", dying_collect_one)
        cfg = CollectConfig(K=2, top_k=4, p=1, q=1, mcts_budget=6, probe_node_limit=4, seed=0)
        with pytest.raises(BrokenProcessPool):
            collect_dataset(tmp_path / "inst", tmp_path / "ds.jsonl", cfg, workers=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst", "pids"]
        started = set(pids.read_text().split())
        assert 1 <= len(started) <= 2 and str(os.getpid()) not in started
        assert not multiprocessing.active_children()

    def test_failed_instance_is_recorded_not_fatal(self, tmp_path):
        write_gisp_dir(tmp_path / "inst", [0])
        write_infeasible(tmp_path / "inst")
        manifests = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.jsonl"
            manifests.append(
                collect_dataset(tmp_path / "inst", out, CollectConfig(**SMALL_COLLECT), workers=workers)
            )
        assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w2.jsonl").read_bytes()
        assert (tmp_path / "w1.jsonl.manifest.json").read_bytes() == (
            tmp_path / "w2.jsonl.manifest.json"
        ).read_bytes()
        manifest = manifests[0]
        assert manifest["failed"] == 1
        assert manifest["kept"] + manifest["skipped"] == 1
        failed = [e for e in manifest["instances"] if "error" in e]
        assert failed == [
            {"file": "infeasible.bdmilp", "error": "ValueError: MCTS needs an OPTIMAL root LP"}
        ]
        lines = timing_lines(tmp_path / "w1.jsonl")
        assert [t["file"] for t in lines] == ["gisp_n22_s0.bdmilp", "infeasible.bdmilp"]
        assert lines[1]["error"] == failed[0]["error"] and "counters" not in lines[1]

    def test_all_skipped_yields_empty_dataset_with_reasons(self, tmp_path):
        # 6-node instances close at the root: no candidate can strictly win.
        write_gisp_dir(tmp_path / "inst", range(2), nodes=6)
        out = tmp_path / "ds.jsonl"
        manifest = collect_dataset(
            tmp_path / "inst", out,
            CollectConfig(K=2, top_k=4, p=1, q=1, mcts_budget=6, probe_node_limit=4, seed=0),
        )
        assert out.read_text() == ""
        assert manifest["kept"] == 0
        assert all(e["skip_reason"] for e in manifest["instances"])

    def test_records_match_directory(self, tmp_path):
        write_gisp_dir(tmp_path / "inst", range(3))
        out = tmp_path / "ds.jsonl"
        manifest = collect_dataset(tmp_path / "inst", out, CollectConfig(**SMALL_COLLECT))
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == manifest["kept"]
        assert manifest["kept"] + manifest["skipped"] == 3
        assert manifest["failed"] == 0
        for rec in lines:
            graph = graph_from_payload(rec["graph"])
            assert graph.var_feats.shape[1] == 15
            labels = {s["label"] for s in rec["samples"]}
            assert labels == {"POSITIVE", "NEGATIVE"}
            for s in rec["samples"]:
                assert s["tree_weight"] is not None  # mcts path carries rewards

    def test_dataset_roundtrip_to_training_samples(self, tmp_path):
        write_gisp_dir(tmp_path / "inst", range(3))
        out = tmp_path / "ds.jsonl"
        collect_dataset(tmp_path / "inst", out, CollectConfig(**SMALL_COLLECT))
        ds = load_dataset(out)
        for sample in ds:
            assert sample.positives and sample.negatives
            n = sample.graph.num_vars
            for bd in sample.positives + sample.negatives:
                assert all(0 <= j < n for j in bd)


class TestEvaluate:
    def test_efforts_are_pinned(self, tmp_path):
        """Baseline and method node counts of an untrained seed-0 model on two
        GISP-25 test instances, as evaluated before the LP hot path was reworked."""
        write_gisp_dir(tmp_path, [5000, 5005], nodes=25)
        records, summary = evaluate(GatParameters.init(seed=0), tmp_path, K=4, node_cap=5000)
        assert [(r.instance, r.baseline_effort, r.method_effort) for r in records] == [
            ("gisp_n25_s5000", 53, 57),
            ("gisp_n25_s5005", 81, 83),
        ]
        assert summary["failed"] == 0

    def test_improvement_percentage_convention(self):
        rec = EvalRecord(
            instance="x", baseline_effort=633, method_effort=533,
            improvement_pct=100.0 * (633 - 533) / 633, outcome="WIN",
        )
        assert rec.improvement_pct == pytest.approx(15.8, abs=0.01)

    def test_summary_statistics_convention(self):
        records = [
            EvalRecord(f"i{k}", baseline_effort=e, method_effort=e, improvement_pct=0.0, outcome="TIE")
            for k, e in enumerate([1, 2, 3, 4])
        ]
        s = summarize(records)
        assert s["baseline"]["mean"] == pytest.approx(2.5)
        assert s["baseline"]["median"] == pytest.approx(2.5)
        assert s["baseline"]["p25"] == pytest.approx(1.75)
        assert s["ties"] == 4 and s["wins"] == 0 and s["losses"] == 0

    def test_all_better_is_all_wins(self):
        records = [
            EvalRecord(f"i{k}", baseline_effort=10, method_effort=5, improvement_pct=50.0, outcome="WIN")
            for k in range(3)
        ]
        s = summarize(records)
        assert (s["wins"], s["ties"], s["losses"]) == (3, 0, 0)

    def test_end_to_end_with_untrained_model(self, tmp_path):
        write_gisp_dir(tmp_path / "inst", range(3), nodes=14)
        params = GatParameters.init(seed=0, L=8, H=2, hidden=6)
        records, summary = evaluate(params, tmp_path / "inst", K=3, node_cap=500)
        assert len(records) == 3
        assert summary["instances"] == 3
        for r in records:
            assert r.outcome in ("WIN", "TIE", "LOSS")
            assert r.baseline_effort >= 1 and r.method_effort >= 1
            assert r.overhead_seconds >= 0
        # The CSV holds no overhead, and records compare on their efforts alone.
        report(records, tmp_path / "out")
        assert read_results_csv(tmp_path / "out" / "results.csv") == records


    def test_failed_instance_is_recorded_not_fatal(self, tmp_path):
        write_gisp_dir(tmp_path / "inst", [0], nodes=12)
        write_gisp_dir(tmp_path / "good", [0], nodes=12)
        write_infeasible(tmp_path / "inst")
        params = GatParameters.init(seed=0, L=8, H=2, hidden=6)
        records, summary = evaluate(params, tmp_path / "inst", K=3, node_cap=500)
        assert len(records) == 1 and summary["instances"] == 1
        assert summary["failed"] == 1
        assert summary["errors"] == [{
            "instance": "infeasible.bdmilp",
            "error": "ValueError: featurize needs an OPTIMAL root-LP solution",
        }]
        # The good instance's report is what it is without the bad one.
        alone, alone_summary = evaluate(params, tmp_path / "good", K=3, node_cap=500)
        assert alone_summary["failed"] == 0 and alone_summary["errors"] == []
        report(records, tmp_path / "mixed")
        report(alone, tmp_path / "alone")
        for name in ("results.csv", "summary.txt"):
            assert (tmp_path / "mixed" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    def test_all_instances_failing_raises(self, tmp_path):
        (tmp_path / "inst").mkdir()
        write_infeasible(tmp_path / "inst")
        with pytest.raises(ValueError):
            evaluate(GatParameters.init(seed=0, L=8, H=2, hidden=6), tmp_path / "inst", K=3)


class TestReport:
    def _records(self):
        return [
            EvalRecord("a", 50, 34, 32.0, "WIN"),
            EvalRecord("b", 25, 25, 0.0, "TIE"),
            EvalRecord("c", 20, 30, -50.0, "LOSS"),
        ]

    def test_csv_row_count_and_recompute(self, tmp_path):
        report(self._records(), tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 4  # header + one row each
        assert "baseline_censored" in lines[0]
        for line in lines[1:]:
            _, base, meth, imp, _, _, _ = line.split(",")
            assert float(imp) == pytest.approx(
                100.0 * (int(base) - int(meth)) / int(base)
            )

    def test_single_record_csv(self, tmp_path):
        report(self._records()[:1], tmp_path)
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 2

    def test_summary_matches_recomputation_from_csv(self, tmp_path):
        # The second input's instance name holds a comma and a quote.
        for records in (self._records(), self._records() + [EvalRecord('d,"1"', 40, 30, 25.0, "WIN")]):
            report(records, tmp_path)
            back = read_results_csv(tmp_path / "results.csv")
            assert back == records
            assert summarize(back) == summarize(records)

    def test_finish_rate_is_monotone_cdf(self, tmp_path):
        report(self._records(), tmp_path)
        rows = (tmp_path / "finishrate.csv").read_text().splitlines()[1:]
        by_solver = {}
        for row in rows:
            solver, effort, rate = row.split(",")
            by_solver.setdefault(solver, []).append((int(effort), float(rate)))
        for solver, pts in by_solver.items():
            efforts = [e for e, _ in pts]
            rates = [r for _, r in pts]
            assert efforts == sorted(efforts)
            assert rates == sorted(rates)
            assert rates[-1] == pytest.approx(1.0)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report([], tmp_path)


def test_train_from_collected_file_and_predict(tmp_path):
    write_gisp_dir(tmp_path / "inst", range(4))
    ds = tmp_path / "ds.jsonl"
    collect_dataset(tmp_path / "inst", ds, CollectConfig(**SMALL_COLLECT))
    params, curve = train_from_file(
        ds, TrainConfig(epochs=3, seed=0, L=8, H=2, hidden=6, batch_size=8)
    )
    assert len(curve) == 3
    bd = predict_backdoor(params, gen_gisp(nodes=22, seed=77), K=3)
    assert bd.size == 3
