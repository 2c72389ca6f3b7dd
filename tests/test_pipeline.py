import collections
import concurrent.futures
import functools
import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from backdoorlab import pipeline
from backdoorlab.bnb import BnbConfig
from backdoorlab.features import BipartiteGraph
from backdoorlab.generators import gen_gisp
from backdoorlab.gnn import GatParameters, TrainConfig
from backdoorlab.milp import make_instance, read_instance, write_instance
from backdoorlab.pipeline import (
    MCTS,
    SAMPLING,
    CollectConfig,
    EvalRecord,
    collect_dataset,
    collect_one,
    evaluate,
    evaluate_choosers,
    evaluate_instance,
    instance_paths,
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


def patch_to_die(monkeypatch, name, pids):
    """Patch ``pipeline.<name>``, whose first argument is an instance or its
    path, to append its pid to ``pids`` and to end its process (standing in
    for an OOM kill) on the seed-2 GISP instance."""
    original = getattr(pipeline, name)

    def dying(first, *args):
        with open(pids, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        if Path(getattr(first, "name", first)).stem.endswith("_s2"):
            os._exit(1)
        return original(first, *args)

    monkeypatch.setattr(pipeline, name, dying)


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs this process may run on, as the pipeline's pools count them."""
    return lambda count: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


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

    @pytest.mark.parametrize("method", [MCTS, SAMPLING])
    def test_worker_count_does_not_change_bytes(self, tmp_path, cpus, method):
        cpus(4)
        write_gisp_dir(tmp_path / "inst", range(4))
        d1 = tmp_path / "w1.jsonl"
        d4 = tmp_path / "w4.jsonl"
        cfg = CollectConfig(**SMALL_COLLECT, method=method)
        collect_dataset(tmp_path / "inst", d1, cfg, workers=1)
        collect_dataset(tmp_path / "inst", d4, cfg, workers=4)
        assert d1.read_text()  # some instance is kept
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
            if method == MCTS:
                assert all(t["probes"] == SMALL_COLLECT["mcts_budget"] for t in lines)
                assert all(0 < t["distinct_subsets"] <= min(t["probes"], t["probe_nodes"]) for t in lines)
            else:  # sampling runs no search
                assert all(t[k] == 0 for t in lines for k in exact[1:6])
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
            assert timing["file"] == path.name and "seconds" not in timing
            kept.append(record is not None)
        assert kept == [True, False]  # gisp_n22_s0, then gisp_n6_s1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched collect_one reaches pool workers only when they fork",
    )
    def test_dead_worker_fails_only_its_instance(self, tmp_path, monkeypatch, cpus):
        """A pool worker that ends its process (standing in for an OOM kill)
        fails its own instance, in collect and in evaluate, with equal bytes on
        2 and on 4 CPUs.  Every other record and manifest entry is the
        undisturbed run's, nothing runs in this process, and no worker is left
        behind."""
        write_gisp_dir(tmp_path / "inst", range(4), nodes=12)
        cfg = CollectConfig(K=2, top_k=4, p=1, q=1, mcts_budget=6, probe_node_limit=4, seed=0)
        params = GatParameters.init(seed=0, L=8, H=2, hidden=6)

        def run(out):
            collect_dataset(tmp_path / "inst", out / "ds.jsonl", cfg, workers=4)
            records, summary = evaluate(params, tmp_path / "inst", K=2)
            report(records, out)
            return records, summary["errors"]

        cpus(2)
        clean_records, clean_errors = run(tmp_path / "clean")
        assert clean_errors == []
        clean = json.loads((tmp_path / "clean" / "ds.jsonl.manifest.json").read_text())
        assert clean["kept"] == 2  # gisp_n12_s0 and gisp_n12_s3
        dead = pipeline._DEAD
        for count in (2, 4):
            cpus(count)
            pids = tmp_path / f"pids{count}"
            for name in ("collect_one", "evaluate_instance"):
                patch_to_die(monkeypatch, name, pids)
            out = tmp_path / f"cpus{count}"
            records, errors = run(out)
            manifest = json.loads((out / "ds.jsonl.manifest.json").read_text())
            assert manifest["failed"] == 1
            assert manifest["instances"] == [
                {"file": "gisp_n12_s2.bdmilp", "error": dead} if e["file"] == "gisp_n12_s2.bdmilp" else e
                for e in clean["instances"]
            ]
            assert (out / "ds.jsonl").read_bytes() == (tmp_path / "clean" / "ds.jsonl").read_bytes()
            assert timing_lines(out / "ds.jsonl")[2] == {"file": "gisp_n12_s2.bdmilp", "error": dead}
            assert errors == [{"instance": "gisp_n12_s2.bdmilp", "error": dead}]
            assert records == [r for r in clean_records if r.instance != "gisp_n12_s2"]
            assert str(os.getpid()) not in set(pids.read_text().split())
            assert not multiprocessing.active_children()
            monkeypatch.undo()
        for name in ("ds.jsonl", "ds.jsonl.manifest.json", "results.csv", "summary.txt"):
            assert (tmp_path / "cpus2" / name).read_bytes() == (tmp_path / "cpus4" / name).read_bytes(), name

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched collect_one reaches pool workers only when they fork",
    )
    def test_worker_that_dies_once_changes_no_byte(self, tmp_path, monkeypatch, cpus):
        """An instance whose first worker dies and whose rerun succeeds leaves
        the outputs of an undisturbed run."""
        cpus(2)
        write_gisp_dir(tmp_path / "inst", range(4), nodes=12)
        cfg = CollectConfig(K=2, top_k=4, p=1, q=1, mcts_budget=6, probe_node_limit=4, seed=0)
        collect_dataset(tmp_path / "inst", tmp_path / "clean.jsonl", cfg, workers=2)
        flag, original = tmp_path / "died", pipeline.collect_one

        def dying_once(path, *args):
            if Path(path).stem.endswith("_s2") and not flag.exists():
                flag.touch()
                os._exit(1)
            return original(path, *args)

        monkeypatch.setattr(pipeline, "collect_one", dying_once)
        collect_dataset(tmp_path / "inst", tmp_path / "once.jsonl", cfg, workers=2)
        assert flag.exists()
        for suffix in ("", ".manifest.json"):
            assert (tmp_path / f"once.jsonl{suffix}").read_bytes() == (tmp_path / f"clean.jsonl{suffix}").read_bytes()
        once, clean = (timing_lines(tmp_path / f"{name}.jsonl") for name in ("once", "clean"))
        assert all(t.pop("seconds") > 0.0 for t in once + clean)
        assert once == clean

    @pytest.mark.parametrize("workers", [1.5, 2.5, True])
    def test_workers_must_be_an_integer(self, tmp_path, workers):
        """Checked by the integer rule before any output is opened."""
        write_gisp_dir(tmp_path / "inst", [0], nodes=6)
        with pytest.raises(ValueError, match=f"^workers {workers!r} is not an integer$"):
            collect_dataset(tmp_path / "inst", tmp_path / "out" / "ds.jsonl", CollectConfig(**SMALL_COLLECT), workers)
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a pool starts all its workers at the first job only when they fork",
    )
    def test_pool_is_no_larger_than_the_batch(self, tmp_path, monkeypatch, cpus):
        """With 4 workers on 4 CPUs, one instance runs in this process and two
        start two workers; evaluate's pool is sized alike."""
        cpus(4)
        for stage in (collect_dataset, evaluate):
            assert self._pool_sizes(tmp_path / stage.__name__, monkeypatch, ([0], [0, 1]), stage) == [2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a pool starts all its workers at the first job only when they fork",
    )
    def test_pool_is_no_larger_than_the_cpus(self, tmp_path, monkeypatch, cpus):
        """With 4 workers and 3 instances, 2 CPUs start two workers and 1 CPU
        none; evaluate's pool is sized alike."""
        for stage in (collect_dataset, evaluate):
            cpus(2)
            assert self._pool_sizes(tmp_path / "two" / stage.__name__, monkeypatch, ([0, 1, 2],), stage) == [2]
            cpus(1)
            assert self._pool_sizes(tmp_path / "one" / stage.__name__, monkeypatch, ([0, 1, 2],), stage) == []

    @staticmethod
    def _pool_sizes(tmp_path, monkeypatch, batches, stage) -> list[int]:
        """The size of each process pool that collecting each batch of GISP
        seeds with 4 workers, or evaluating it, shuts down."""
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                sizes.append(len(self._processes))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = CollectConfig(**SMALL_COLLECT)
        for seeds in batches:
            directory = tmp_path / f"inst{len(seeds)}"
            write_gisp_dir(directory, seeds, nodes=6)  # closes at the root: skipped
            if stage is evaluate:
                records, _ = evaluate(GatParameters.init(seed=0, L=8, H=2, hidden=6), directory, K=2)
                assert len(records) == len(seeds)
            else:
                manifest = collect_dataset(directory, tmp_path / f"ds{len(seeds)}.jsonl", cfg, workers=4)
                assert manifest["skipped"] == len(seeds)
        return sizes

    def test_failed_instance_is_recorded_not_fatal(self, tmp_path, cpus):
        cpus(2)
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
            graph = BipartiteGraph(**rec["graph"])
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


def toy_job(job):
    """A runner job ``(index, seconds, die)``: sleeps, then ends its process
    if ``die``, raises on index 5, or returns the index squared."""
    index, seconds, die = job
    time.sleep(seconds)
    if die:
        os._exit(1)
    if index == 5:
        raise ValueError("five")
    return index * index


def logged_job(job):
    """A runner job ``(index, log)``: appends its index to ``log``, then
    sleeps unless it is the first."""
    index, log = job
    with open(log, "a", encoding="ascii") as fh:
        fh.write(f"{index}\n")
    time.sleep(0.0 if index == 0 else 0.2)
    return index


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a pool worker runs this module's toy jobs only when it forks",
)
class TestRunner:
    @pytest.mark.parametrize("deaths", [{3, 4}, {0}, {8}, {1, 2, 3}])
    def test_records_exactly_the_jobs_that_kill_their_worker(self, cpus, deaths):
        """Nine jobs on 2 CPUs: every other job keeps its result, or its
        message if it raised."""
        cpus(2)
        jobs = [(i, 0.02 * (i % 3), i in deaths) for i in range(9)]
        outcomes = list(pipeline._in_order(toy_job, jobs, 2))
        for i, (result, error, seconds) in enumerate(outcomes):
            if i in deaths:
                assert (result, error, seconds) == (None, pipeline._DEAD, None)
            elif i == 5:
                assert (result, error) == (None, "ValueError: five") and seconds >= 0.0
            else:
                assert (result, error) == (i * i, None) and seconds >= 0.0
        assert not multiprocessing.active_children()

    def test_second_job_in_flight_dying_fails_only_itself(self, cpus):
        """Job 0 is still running when job 1 kills the pool; job 0 is rerun
        and keeps its result."""
        cpus(2)
        jobs = [(0, 0.3, False), (1, 0.0, True), (2, 0.0, False), (3, 0.0, False)]
        outcomes = list(pipeline._in_order(toy_job, jobs, 2))
        assert [outcome[:2] for outcome in outcomes] == [(0, None), (None, pipeline._DEAD), (4, None), (9, None)]

    def test_closing_runs_at_most_one_job_per_worker_more(self, tmp_path, cpus):
        cpus(2)
        log = tmp_path / "started"
        runner = pipeline._in_order(logged_job, [(i, str(log)) for i in range(20)], 2)
        assert next(runner)[:2] == (0, None)
        runner.close()
        started = log.read_text().split()
        assert "0" in started and len(started) - 1 <= 2
        assert not multiprocessing.active_children()


class TestEvaluate:
    def test_efforts_are_pinned(self, tmp_path):
        """Baseline and method node counts of an untrained seed-0 model with 8
        heads on two GISP-25 test instances, as evaluated before the LP hot
        path was reworked."""
        write_gisp_dir(tmp_path, [5000, 5005], nodes=25)
        records, summary = evaluate(GatParameters.init(seed=0, H=8), tmp_path, K=4, node_cap=5000)
        assert [(r.instance, r.baseline_effort, r.method_effort) for r in records] == [
            ("gisp_n25_s5000", 53, 57),
            ("gisp_n25_s5005", 81, 83),
        ]
        assert summary["failed"] == 0

    def test_each_instance_solves_its_baseline_once_for_every_chooser(self, tmp_path, monkeypatch, cpus):
        """Three choosers on two GISP-12 instances: one baseline and three
        method solves per instance, and each chooser's records are those of
        its own ``evaluate`` call, from ``evaluate_choosers`` on 1 CPU and on
        a pool of 2 as from ``evaluate_instance``."""
        write_gisp_dir(tmp_path, [100, 101], nodes=12)
        models = [GatParameters.init(seed=seed, L=8, H=H, hidden=8) for seed, H in ((0, 1), (1, 1), (2, 8))]
        want = [evaluate(params, tmp_path, K=4, node_cap=5000)[0] for params in models]
        choosers = [functools.partial(predict_backdoor, params) for params in models]
        for count in (1, 2):
            cpus(count)
            assert evaluate_choosers(tmp_path, choosers, 4, 5000) == (want, [])
        solves, solve_bnb = collections.Counter(), pipeline.solve_bnb

        def counted(inst, cfg=None):
            solves[inst.name] += 1
            return solve_bnb(inst, cfg)

        monkeypatch.setattr(pipeline, "solve_bnb", counted)
        per_instance = [evaluate_instance(read_instance(p), choosers, 4, 5000) for p in instance_paths(tmp_path)]
        assert solves == {"gisp_n12_s100": 1 + 3, "gisp_n12_s101": 1 + 3}
        assert [list(records) for records in zip(*per_instance)] == want

    def test_improvement_percentage_convention(self):
        rec = EvalRecord(instance="x", baseline_effort=633, method_effort=533)
        assert rec.improvement_pct == pytest.approx(15.8, abs=0.01)

    def test_summary_statistics_convention(self):
        records = [
            EvalRecord(f"i{k}", baseline_effort=e, method_effort=e)
            for k, e in enumerate([1, 2, 3, 4])
        ]
        s = summarize(records)
        assert s["baseline"]["mean"] == pytest.approx(2.5)
        assert s["baseline"]["median"] == pytest.approx(2.5)
        assert s["baseline"]["p25"] == pytest.approx(1.75)
        assert s["ties"] == 4 and s["wins"] == 0 and s["losses"] == 0

    def test_zero_baseline_mean_improves_by_zero(self):
        s = summarize([EvalRecord("i0", baseline_effort=0, method_effort=0)] * 2)
        assert s["mean_improvement_pct"] == s["median_improvement_pct"] == 0.0
        json.dumps(s, allow_nan=False)

    def test_all_better_is_all_wins(self):
        records = [
            EvalRecord(f"i{k}", baseline_effort=10, method_effort=5)
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


    def test_failed_instance_is_recorded_not_fatal(self, tmp_path, cpus):
        """On 1 CPU in this process and on 2 in a pool, with equal records,
        summaries and report bytes."""
        write_gisp_dir(tmp_path / "inst", [0], nodes=12)
        write_gisp_dir(tmp_path / "good", [0], nodes=12)
        write_infeasible(tmp_path / "inst")
        params = GatParameters.init(seed=0, L=8, H=2, hidden=6)
        runs = []
        for count in (1, 2):
            cpus(count)
            runs.append(evaluate(params, tmp_path / "inst", K=3, node_cap=500))
            report(runs[-1][0], tmp_path / f"cpus{count}")
        assert runs[0] == runs[1]
        for name in ("results.csv", "summary.txt"):
            assert (tmp_path / "cpus1" / name).read_bytes() == (tmp_path / "cpus2" / name).read_bytes()
        records, summary = runs[1]
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

    def test_unreadable_instance_is_left_out_of_every_chooser(self, tmp_path, cpus):
        """A corrupt file is one error and in no chooser's records."""
        cpus(2)
        write_gisp_dir(tmp_path, [0, 1], nodes=12)
        (tmp_path / "corrupt.bdmilp").write_text("not an instance\n", encoding="ascii")
        choosers = [functools.partial(predict_backdoor, GatParameters.init(seed=s, L=8, H=2, hidden=6)) for s in (0, 1)]
        runs, errors = evaluate_choosers(tmp_path, choosers, 3, 500)
        assert [[r.instance for r in records] for records in runs] == [["gisp_n12_s0", "gisp_n12_s1"]] * 2
        assert [e["instance"] for e in errors] == ["corrupt.bdmilp"]

    @pytest.mark.parametrize("K, node_cap, message", [
        (0, 500, "K must be at least 1, got 0"),
        (3, 0, "node_limit must be None or at least 1, got 0"),
    ])
    def test_bad_k_or_cap_raises_before_any_instance_runs(self, tmp_path, K, node_cap, message):
        """The directory does not exist: reaching the instances would raise
        ``FileNotFoundError`` instead."""
        chooser = functools.partial(predict_backdoor, GatParameters.init(seed=0, L=8, H=2, hidden=6))
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_choosers(tmp_path / "missing", [chooser], K, node_cap)

    def test_all_instances_failing_raises(self, tmp_path):
        (tmp_path / "inst").mkdir()
        write_infeasible(tmp_path / "inst")
        with pytest.raises(ValueError):
            evaluate(GatParameters.init(seed=0, L=8, H=2, hidden=6), tmp_path / "inst", K=3)


class TestReport:
    def _records(self):
        return [
            EvalRecord("a", 50, 34),
            EvalRecord("b", 25, 25),
            EvalRecord("c", 20, 30),
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
        for records in (self._records(), self._records() + [EvalRecord('d,"1"', 40, 30)]):
            report(records, tmp_path)
            back = read_results_csv(tmp_path / "results.csv")
            assert back == records
            assert summarize(back) == summarize(records)

    def test_results_csv_reads_back_bit_for_bit(self, tmp_path):
        # Improvements of -200% and -33.33...%, the second a repr float of 17 digits.
        records = [EvalRecord("a", 3, 9), EvalRecord("b", 3, 4, method_censored=True), EvalRecord("c", 0, 0)]
        report(records, tmp_path)
        text = (tmp_path / "results.csv").read_text()
        assert ",-200.0,LOSS," in text and ",-33.333333333333336,LOSS," in text
        back = read_results_csv(tmp_path / "results.csv")
        assert back == records
        assert [r.improvement_pct.hex() for r in back] == [r.improvement_pct.hex() for r in records]
        report(back, tmp_path / "again")
        assert (tmp_path / "again" / "results.csv").read_text() == text

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


CONFIG_INTEGERS = [
    *((TrainConfig, name) for name in ("batch_size", "epochs", "L", "H", "hidden")),
    *((CollectConfig, name) for name in ("K", "top_k", "p", "q", "mcts_budget", "probe_node_limit", "label_node_limit")),
    (BnbConfig, "node_limit"),
]


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("config, name", CONFIG_INTEGERS, ids=[f"{c.__name__}.{n}" for c, n in CONFIG_INTEGERS])
def test_config_integers_refuse_a_float_or_a_bool(config, name, value):
    """Each count is an integer by ``inputs.check_integer``'s rule when the
    config is built, not a ``TypeError`` later or a float limit rounded up."""
    with pytest.raises(ValueError, match=f" {value} is not an integer$"):
        config(**{name: value})
