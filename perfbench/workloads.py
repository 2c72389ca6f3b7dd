"""The benchmark's workloads: inputs made from a seed, a timed run, output checks.

Each workload does a fixed amount of work for a given ``(seed, seconds)``:
``seconds`` sets the input sizes through a nominal cost per item measured on
a 2-CPU host with the pure-python simplex kernel, so a run takes about that
long there, and its node counts, dataset bytes and quality figures repeat
exactly from run to run, traced or not.

Instance seeds come from ``seed * SEED_STRIDE`` onwards; training and test
instances use disjoint offsets inside that block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import layertrace

from backdoorlab import LpWorkspace, featurize, gen_gisp, lp_relaxation, write_instance
from backdoorlab.gnn import TrainConfig, TrainSample, train
from backdoorlab.pipeline import (
    LOSS,
    TIE,
    WIN,
    CollectConfig,
    collect_dataset,
    evaluate,
    train_from_file,
)

SEED_STRIDE = 10_000
TEST_OFFSET = 5_000
K = 4


def instance_seeds(seed: int, offset: int, count: int) -> list[int]:
    base = seed * SEED_STRIDE + offset
    return list(range(base, base + count))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Run:
    """What one timed run did: stage times, failures, checks, counts."""

    def __init__(self, tracer: layertrace.Tracer | None, workdir: Path):
        self.tracer = tracer
        self.workdir = workdir
        self.stage_s: dict[str, float] = {}
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.workers = 0  # size of the process pool the run used, if any
        self.report: dict[str, float] = {}  # unbounded end-to-end figures
        self.counts: dict[str, object] = {}  # deterministic; traced == untraced
        self.digest = hashlib.sha256()

    def stage(self, name, fn, *args, attrs=None, **kwargs):
        """Time one stage call; on an exception record it and return ``None``."""
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                out = self.tracer.call(name, fn, args, kwargs, attrs)
        except Exception as exc:  # a failed stage is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            out = None
        self.stage_s[name] = perf_counter() - t0
        return out

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def write_gisp(directory: Path, nodes: int, seeds: list[int], gen_ms: list[float]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for s in seeds:
        t0 = perf_counter()
        inst = gen_gisp(nodes=nodes, seed=s)
        gen_ms.append(1e3 * (perf_counter() - t0))
        write_instance(inst, directory / f"{inst.name}.bdmilp")


def check_evaluation(run: Run, records, summary, count: int, node_cap: int) -> None:
    """Outcomes and improvements follow from the efforts; no effort tops the cap."""
    run.check(len(records) == count, f"evaluated {len(records)} of {count} instances")
    for r in records:
        b, m = r.baseline_effort, r.method_effort
        outcome = WIN if m < b else (TIE if m == b else LOSS)
        run.check(r.outcome == outcome, f"{r.instance}: outcome {r.outcome} for efforts {b}/{m}")
        improvement = 100.0 * (b - m) / b if b else 0.0
        run.check(r.improvement_pct == improvement, f"{r.instance}: improvement {r.improvement_pct} != {improvement}")
        run.check(max(b, m) <= node_cap, f"{r.instance}: effort {max(b, m)} above cap {node_cap}")
    for key, outcome in (("wins", WIN), ("ties", TIE), ("losses", LOSS)):
        recount = sum(r.outcome == outcome for r in records)
        run.check(summary[key] == recount, f"summary {key} {summary[key]} != recount {recount}")
    if records:
        median = statistics.median(r.improvement_pct for r in records)
        run.check(
            abs(summary["median_improvement_pct"] - median) <= 1e-9,
            f"summary median {summary['median_improvement_pct']} != {median}",
        )
    for r in records:
        run.digest.update(repr((r.instance, r.baseline_effort, r.method_effort, r.outcome)).encode())
    run.counts.update(
        eval_baseline_nodes=sum(r.baseline_effort for r in records),
        eval_method_nodes=sum(r.method_effort for r in records),
        wins=summary["wins"],
        ties=summary["ties"],
        losses=summary["losses"],
        median_improvement_pct=summary["median_improvement_pct"],
        censored=summary["censored"],
    )


def check_curve(run: Run, curve, epochs: int) -> None:
    run.check(len(curve) == epochs, f"loss curve has {len(curve)} entries for {epochs} epochs")
    run.check(all(math.isfinite(x) for x in curve), "loss curve is not finite")
    run.digest.update(repr(list(curve)).encode())
    run.counts["final_loss"] = curve[-1] if curve else None


class PipelineGisp25:
    """Criterion 9 scaled down: collect, train, evaluate on fresh GISP-25 sets."""

    name = "pipeline-gisp25"
    why = (
        "the user's operating point (collect with nproc workers, train, evaluate) "
        "and the only workload with a quality signal"
    )
    NODES = 25
    TRAIN_PER_S = 0.45  # nominal collect: 2.7 s per instance on one core
    TEST_PER_S = 0.8  # nominal evaluate: 0.19 s per instance
    EPOCHS = 20
    NODE_CAP = 5000
    COLLECT = dict(K=K, top_k=12, p=5, q=5, mcts_budget=30, probe_node_limit=12, label_node_limit=3000)

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.n_train = max(2, round(seconds * self.TRAIN_PER_S))
        self.n_test = max(2, round(seconds * self.TEST_PER_S))

    def setup(self, workdir: Path, timings: dict) -> None:
        gen = timings.setdefault("generate_ms", [])
        write_gisp(workdir / "train", self.NODES, instance_seeds(self.seed, 0, self.n_train), gen)
        write_gisp(workdir / "test", self.NODES, instance_seeds(self.seed, TEST_OFFSET, self.n_test), gen)

    def run(self, run: Run) -> None:
        workers = run.workers = nproc()
        run.attempted = self.n_train + 1 + self.n_test  # collects, one training run, evaluations
        dataset = run.workdir / "dataset.jsonl"
        cfg = CollectConfig(seed=self.seed, **self.COLLECT)
        spans_dir = run.workdir / "worker-spans"
        if run.tracer is not None:
            spans_dir.mkdir(exist_ok=True)
            os.environ[layertrace.SPANS_DIR_ENV] = str(spans_dir)
            os.environ[layertrace.MAIN_PID_ENV] = str(os.getpid())
        manifest = run.stage(
            "pipeline.collect_dataset", collect_dataset, run.workdir / "train", dataset, cfg,
            workers=workers, attrs=lambda *_: {"pool": workers} if workers > 1 else None,
        )
        if run.tracer is not None:
            run.tracer.gather_workers(spans_dir)
        if manifest is None:
            run.failed = run.attempted
            return
        self._check_dataset(run, dataset, manifest)
        kept = manifest["kept"]
        collect_s = run.stage_s["pipeline.collect_dataset"]
        run.report["collect_instances_per_s"] = self.n_train / collect_s
        run.report["kept_share"] = kept / self.n_train

        trained = run.stage(
            "pipeline.train_from_file", train_from_file, dataset,
            TrainConfig(epochs=self.EPOCHS, seed=self.seed),
        )
        if trained is None:
            run.failed = 1 + self.n_test
            return
        params, curve = trained
        check_curve(run, curve, self.EPOCHS)
        run.report["train_graphs_per_s"] = kept * self.EPOCHS / run.stage_s["pipeline.train_from_file"]

        evaluated = run.stage(
            "pipeline.evaluate", evaluate, params, run.workdir / "test", K=K, node_cap=self.NODE_CAP,
        )
        if evaluated is None:
            run.failed = self.n_test
            return
        records, summary = evaluated
        check_evaluation(run, records, summary, self.n_test, self.NODE_CAP)
        run.report["evaluate_instances_per_s"] = self.n_test / run.stage_s["pipeline.evaluate"]
        for key in ("wins", "ties", "losses", "median_improvement_pct"):
            run.report[key] = summary[key]

    def _check_dataset(self, run: Run, dataset: Path, manifest: dict) -> None:
        """Every positive beats its baseline effort, which beats every negative."""
        lines = dataset.read_bytes().splitlines()
        run.check(len(lines) == manifest["kept"], f"{len(lines)} records for {manifest['kept']} kept")
        for line in lines:
            rec = json.loads(line)
            base = rec["baseline_effort"]
            pos = [s["effort"] for s in rec["samples"] if s["label"] == "POSITIVE"]
            neg = [s["effort"] for s in rec["samples"] if s["label"] == "NEGATIVE"]
            run.check(
                bool(pos) and bool(neg) and max(pos) < base < min(neg),
                f"{rec['instance']}: efforts {pos} / {base} / {neg} out of order",
            )
        run.digest.update(dataset.read_bytes())
        run.counts.update(
            kept=manifest["kept"],
            label_baseline_nodes=sum(e["baseline_effort"] for e in manifest["instances"]),
            candidates=sum(e["candidates"] for e in manifest["instances"]),
        )


class TrainGisp25:
    """``gnn.train`` alone on GISP-25 graphs featurized in setup."""

    name = "train-gisp25"
    why = "isolates gnn (autodiff, attention model, InfoNCE, AdamW); runs no solver outside setup"
    NODES = 25
    EPOCHS = 20
    GRAPHS_PER_S = 1.5  # nominal: 26 ms per graph and epoch
    SETS, SET_SIZE = 5, 4  # positives and negatives per graph, as collected in criterion 9

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.n_graphs = max(2, round(seconds * self.GRAPHS_PER_S))
        self.samples: list[TrainSample] = []

    def setup(self, workdir: Path, timings: dict) -> None:
        gen = timings.setdefault("generate_ms", [])
        feat = timings.setdefault("featurize_ms", [])
        samples = []
        for i, s in enumerate(instance_seeds(self.seed, 0, self.n_graphs)):
            t0 = perf_counter()
            inst = gen_gisp(nodes=self.NODES, seed=s)
            gen.append(1e3 * (perf_counter() - t0))
            root = LpWorkspace(lp_relaxation(inst)).solve()
            t0 = perf_counter()
            graph = featurize(inst, root)
            feat.append(1e3 * (perf_counter() - t0))
            binaries = np.flatnonzero(graph.binary_mask)
            rng = np.random.default_rng([self.seed, i])
            sets = [
                tuple(sorted(int(j) for j in rng.choice(binaries, self.SET_SIZE, replace=False)))
                for _ in range(2 * self.SETS)
            ]
            samples.append(TrainSample(graph, tuple(sets[: self.SETS]), tuple(sets[self.SETS :])))
        self.samples = samples

    def run(self, run: Run) -> None:
        run.attempted = self.n_graphs
        trained = run.stage("gnn.train", train, self.samples, TrainConfig(epochs=self.EPOCHS, seed=self.seed))
        if trained is None:
            run.failed = self.n_graphs
            return
        params, curve = trained
        check_curve(run, curve, self.EPOCHS)
        run.check(all(np.all(np.isfinite(a)) for a in params.arrays.values()), "parameters are not finite")
        for key in sorted(params.arrays):
            run.digest.update(params.arrays[key].tobytes())
        run.report["train_graphs_per_s"] = self.n_graphs * self.EPOCHS / run.stage_s["gnn.train"]


WORKLOADS = {w.name: w for w in (PipelineGisp25, TrainGisp25)}
