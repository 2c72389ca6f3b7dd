"""End-to-end orchestration: dataset collection, evaluation, and reports.

Collection walks an instance directory, finds candidate backdoors (UCT
search by default, LP-biased sampling for the ablation), labels them by
measured solving effort, and writes one JSON line per kept instance with the
feature graph embedded.  Instances where labeling finds no strictly-better
or no strictly-worse candidate are skipped and explained in the manifest.

Everything is deterministic: per-instance seeds derive from the base seed
and the instance's position in the sorted directory listing, collection and
evaluation merge their pool workers' results in that order, and JSON/CSV
floats use the shortest exact representation, so a run with 4 workers is
byte-identical to a run with 1.  Only the wall seconds that workers measure
(the collection sidecar, ``overhead_seconds``) differ.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import csv
import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bnb import NODE_LIMIT, BnbConfig, backdoor_priorities, solve_bnb
from .features import BipartiteGraph, featurize
from .gnn import GatParameters, TrainConfig, TrainSample, gat_forward, greedy_select, train
from .inputs import check_integer, parse_json, read_lines, read_number
from .milp import FILE_EXTENSION, MilpInstance, read_instance
from .search import NEGATIVE, POSITIVE, Backdoor, biased_sample, label_samples, mcts_search

WIN = "WIN"
TIE = "TIE"
LOSS = "LOSS"

MCTS = "mcts"
SAMPLING = "sampling"

# The columns of results.csv.
_RESULT_COLUMNS = (
    "instance", "baseline", "method", "improvement_pct", "outcome",
    "baseline_censored", "method_censored",
)


@dataclass(frozen=True)
class CollectConfig:
    """Knobs for one collection run over an instance directory."""

    K: int = 8
    method: str = MCTS
    top_k: int = 50
    p: int = 5
    q: int = 5
    mcts_budget: int = 200
    probe_node_limit: int = 500
    label_node_limit: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in (MCTS, SAMPLING):
            raise ValueError(f"unknown collection method {self.method!r}")
        check_integer(self.seed, "seed", 0)
        for name in ("K", "top_k", "p", "q", "mcts_budget"):
            if check_integer(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # Both node limits obey BnbConfig's rule, checked before any worker starts.
        BnbConfig(node_limit=self.probe_node_limit)
        BnbConfig(node_limit=self.label_node_limit)


@dataclass
class EvalRecord:
    """One instance's measured efforts; the outcome and improvement follow from them."""

    instance: str
    baseline_effort: int
    method_effort: int
    baseline_censored: bool = False
    method_censored: bool = False
    # Wall seconds of the chooser that picked the backdoor; None when read from a CSV.
    overhead_seconds: float | None = field(default=None, compare=False)

    @property
    def improvement_pct(self) -> float:
        return _improvement_pct(self.baseline_effort, self.method_effort)

    @property
    def outcome(self) -> str:
        b, m = self.baseline_effort, self.method_effort
        return WIN if m < b else (TIE if m == b else LOSS)


def _improvement_pct(baseline, method) -> float:
    """``100 * (baseline - method) / baseline``, 0 when the baseline is 0."""
    return 100.0 * (baseline - method) / baseline if baseline else 0.0


def instance_paths(instance_dir) -> list[Path]:
    paths = sorted(Path(instance_dir).glob(f"*{FILE_EXTENSION}"))
    if not paths:
        raise FileNotFoundError(f"no {FILE_EXTENSION} files under {instance_dir}")
    return paths


def _instance_seed(base_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _graph_payload(graph: BipartiteGraph) -> dict:
    payload = {f.name: getattr(graph, f.name).tolist() for f in fields(graph)}
    payload["binary_mask"] = graph.binary_mask.astype(int).tolist()  # 0/1, not false/true
    return payload


def collect_one(
    path, seed: int, cfg: CollectConfig, cost: dict | None = None
) -> tuple[dict | None, dict]:
    """Process one instance; returns (record or None, manifest entry).

    A given ``cost`` dict receives the instance's exact collection cost once
    the instance is done: ``counters``, the LP counters of ``inst.lp``
    (``LpWorkspace.counters``); ``probes``, ``distinct_subsets``,
    ``probe_nodes``, ``selections`` and ``max_depth`` of the MCTS search (0
    when sampling); and ``label_solves`` and ``label_nodes``, the labeling's
    branch-and-bound solves (the baseline included) and their nodes.
    """
    inst = read_instance(path)
    root = inst.lp.solve()
    weights: dict[tuple[int, ...], float] = {}
    search_cost = dict.fromkeys(("probes", "distinct_subsets", "probe_nodes", "selections", "max_depth"), 0)
    if cfg.method == MCTS:
        ranked = mcts_search(
            inst,
            K=cfg.K,
            iteration_budget=cfg.mcts_budget,
            probe_node_limit=cfg.probe_node_limit,
            seed=seed,
            top_k=cfg.top_k,
            stats=search_cost,
        )
        candidates = [bd for bd, _ in ranked]
        weights = {bd.vars: w for bd, w in ranked}
    else:
        candidates = biased_sample(inst, K=cfg.K, count=cfg.top_k, seed=seed)
    labels = label_samples(inst, candidates, p=cfg.p, q=cfg.q, node_limit=cfg.label_node_limit)
    entry = {
        "instance": inst.name,
        "file": Path(path).name,
        "baseline_effort": labels.baseline_effort,
        "candidates": len(labels.efforts),
        "skip_reason": labels.skip_reason,
    }
    if cost is not None:  # the instance's LP work is done
        cost.update(
            search_cost,
            counters=inst.lp.counters(),
            label_solves=1 + len(labels.efforts),
            label_nodes=labels.baseline_effort + sum(labels.efforts),
        )
    if labels.skipped:
        return None, entry
    samples = [
        {
            "backdoor": list(s.backdoor.vars),
            "effort": s.effort,
            "label": s.label,
            "tree_weight": weights.get(s.backdoor.vars),
        }
        for s in labels.positives + labels.negatives
    ]
    record = {
        "baseline_effort": labels.baseline_effort,
        "graph": _graph_payload(featurize(inst, root)),
        "instance": inst.name,
        "samples": samples,
    }
    return record, entry


def _collect_worker(args):
    """One instance's dataset line, manifest entry and sidecar fields.

    ``args`` is ``(index, path, seed, cfg)``, where the index only names the
    job.  The dataset line is the kept record as ``json.dumps(record,
    sort_keys=True)``, or None for a skipped instance; encoding it here keeps
    that work in the pool and sends the parent one string.  The sidecar
    fields are the file and the instance's cost (see :func:`collect_one`);
    the runner measures the seconds.
    """
    _, path, seed, cfg = args
    timing = {"file": Path(path).name}
    record, entry = collect_one(path, seed, cfg, timing)
    line = None if record is None else json.dumps(record, sort_keys=True)
    return line, entry, timing


# The failure recorded for a job that ends the worker process running it alone.
_DEAD = "BrokenProcessPool: its worker process ended"

# The worker a pool process runs, set once in that process by the pool's initializer.
_installed = None


def _install(worker) -> None:
    global _installed
    _installed = worker


def _run_job(job, worker=None):
    """Run ``worker(job)``, by default the installed one, and time it.

    Returns ``(result, None, seconds)``, or ``(None, "<Type>: <message>",
    seconds)`` if the worker raised: one bad job is recorded, not fatal to
    the batch, and no exception object crosses the pool's pipe."""
    if worker is None:
        worker = _installed
    t0 = time.perf_counter()
    try:
        result, error = worker(job), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t0


def _pooled(worker, jobs: list, workers: int):
    """Yield ``_run_job`` outcomes of ``jobs``, in job order, from a fresh pool
    of ``workers`` processes with ``worker`` installed.  Each job is
    submitted when a worker is free, so at most ``workers`` run at a time;
    ``BrokenProcessPool`` propagates.  Closing the generator cancels the jobs
    not yet submitted and waits for the running ones."""
    pool = concurrent.futures.ProcessPoolExecutor(workers, initializer=_install, initargs=(worker,))
    try:
        queue, running, submitted = collections.deque(), set(), 0
        while queue or submitted < len(jobs):
            running = {f for f in running if not f.done()}
            while len(running) < workers and submitted < len(jobs):
                future = pool.submit(_run_job, jobs[submitted])
                submitted += 1
                queue.append(future)
                running.add(future)
            if queue[0].done():
                yield queue.popleft().result()
            else:
                concurrent.futures.wait(running, return_when=concurrent.futures.FIRST_COMPLETED)
    finally:
        pool.shutdown(cancel_futures=True)


def _in_order(worker, jobs: list, workers: int):
    """Yield one outcome of ``worker`` per job, in job order: ``(result, None,
    seconds)``, or ``(None, "<Type>: <message>", seconds)`` for a job that
    raised, where ``seconds`` is the job's wall time in its process.

    The jobs run on a pool of ``min(workers, jobs, usable CPUs)`` processes
    (a forked pool starts all of them at once), each given ``worker`` once,
    or in this process when that is 1; there a job that ends its process
    ends the command too.  When a pool worker dies (killed for memory, say),
    the outcomes already yielded stand, the first unfinished job runs alone
    in a fresh one-worker pool, and the rest in a fresh pool of the full
    size.  A job is recorded as ``(None, _DEAD, None)`` only if it kills a
    worker that runs it alone, so no outcome depends on the pool size or on
    which jobs shared a broken pool.  Closing the generator cancels every
    job not yet started, waits for the running ones and leaves no worker
    behind."""
    workers = min(workers, len(jobs), len(os.sched_getaffinity(0)))
    if workers <= 1:
        for job in jobs:
            yield _run_job(job, worker)
        return
    # A broken process pool raises BrokenProcessPool, which subclasses
    # BrokenExecutor; naming the base leaves multiprocessing unimported
    # until a pool starts.
    done = 0
    while done < len(jobs):
        try:
            with contextlib.closing(_pooled(worker, jobs[done:], workers)) as outcomes:
                for outcome in outcomes:
                    yield outcome
                    done += 1
        except concurrent.futures.BrokenExecutor:
            try:
                (outcome,) = _pooled(worker, jobs[done:done + 1], 1)
            except concurrent.futures.BrokenExecutor:
                outcome = None, _DEAD, None
            yield outcome
            done += 1


def _write_manifest(path, manifest: dict) -> None:
    """Write a manifest as every stage does: ASCII JSON, two-space indent,
    sorted keys, one trailing newline."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def collect_dataset(
    instance_dir,
    out_path,
    cfg: CollectConfig | None = None,
    workers: int = 1,
) -> dict:
    """Collect labeled backdoors for every instance in a directory.

    Writes a JSONL dataset plus ``<out>.manifest.json``; failures and skips
    are isolated per instance and recorded, never aborting the batch.  A
    failed instance's manifest entry holds ``"error": "<Type>: <message>"``;
    an instance whose pool worker dies, alone too, fails as
    ``BrokenProcessPool: its worker process ended`` (see :func:`_in_order`).
    The output is independent of ``workers``, and a ``workers`` that is not
    an integer of at least 1 raises before any output is opened; the pool
    has at most one worker per instance and per CPU this process may run on.
    Wall-clock cost goes to the sidecar ``<out>.timing.jsonl`` instead, one
    line per instance in instance order: the file, the wall seconds of its
    job and its exact cost (see :func:`collect_one`), or for a failed
    instance its error and, unless its worker died, its seconds.

    The dataset and the sidecar are streamed: each instance's lines are
    written as soon as the instances before it are done, into ``.tmp`` files
    beside the targets, which are renamed into place after the last instance
    and before the manifest is written.  The calling process thus holds no
    record once written, and a batch interrupted in this process leaves no
    output and no pool worker behind.
    """
    cfg = cfg or CollectConfig()
    if check_integer(workers, "workers") < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    paths = instance_paths(instance_dir)
    jobs = [
        (i, str(p), _instance_seed(cfg.seed, i), cfg) for i, p in enumerate(paths)
    ]
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    targets = (out_path, out_path.with_name(out_path.name + ".timing.jsonl"))
    temps = [t.with_name(t.name + ".tmp") for t in targets]
    entries = []
    kept = 0
    try:
        with contextlib.ExitStack() as stack:
            data, sidecar = [stack.enter_context(open(t, "w", encoding="ascii")) for t in temps]
            results = stack.enter_context(contextlib.closing(_in_order(_collect_worker, jobs, workers)))
            for path, (result, error, seconds) in zip(paths, results):
                if error is None:
                    line, entry, timing = result
                else:
                    line, entry = None, {"file": path.name, "error": error}
                    timing = dict(entry)
                if seconds is not None:
                    timing["seconds"] = seconds
                entries.append(entry)
                if line is not None:
                    data.write(line + "\n")
                    kept += 1
                sidecar.write(json.dumps(timing, sort_keys=True) + "\n")
    except BaseException:
        for t in temps:
            t.unlink(missing_ok=True)
        raise
    for t, target in zip(temps, targets):
        t.replace(target)
    manifest = {
        "config": asdict(cfg),
        "instances": entries,
        "kept": kept,
        "skipped": sum(e.get("skip_reason") is not None for e in entries),
        "failed": sum("error" in e for e in entries),
    }
    _write_manifest(str(out_path) + ".manifest.json", manifest)
    return manifest


def load_dataset(path) -> list[TrainSample]:
    """Read a collection JSONL back into training samples.

    A line that is not a collection record, whose graph ``BipartiteGraph``
    refuses, whose samples ``TrainSample`` refuses (an empty backdoor among
    them), that labels a sample other than ``POSITIVE`` or ``NEGATIVE``, or
    that holds a byte past 0x7f raises ``ValueError`` naming it.  Blank
    lines are skipped.
    """
    samples = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        rec = parse_json(line, f"{path}: line {lineno}")
        try:
            sets = {POSITIVE: [], NEGATIVE: []}
            for s in rec["samples"]:
                if s["label"] not in sets:
                    raise ValueError(f"sample label {s['label']!r} is neither {POSITIVE} nor {NEGATIVE}")
                sets[s["label"]].append(tuple(s["backdoor"]))
            graph = BipartiteGraph(**rec["graph"])
            samples.append(TrainSample(graph, tuple(sets[POSITIVE]), tuple(sets[NEGATIVE])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: line {lineno}: not a collection record ({type(exc).__name__}: {exc})"
            ) from None
    return samples


def train_from_file(dataset_path, cfg: TrainConfig, epoch_log: list | None = None):
    """Load a collection JSONL and :func:`train` on it; ``epoch_log`` as there."""
    dataset = load_dataset(dataset_path)
    if not dataset:
        raise ValueError(f"dataset {dataset_path} holds no training records")
    return train(dataset, cfg, epoch_log=epoch_log)


def predict_backdoor(params: GatParameters, inst: MilpInstance, K: int) -> Backdoor:
    """Score the instance and greedily take the K best binary variables.

    The features come from the root LP of ``inst.lp``.
    """
    graph = featurize(inst, inst.lp.solve())
    scores = gat_forward(params, graph)
    return greedy_select(scores, graph.binary_mask, K)


def evaluate_instance(inst: MilpInstance, choosers, K: int, node_cap: int | None = None) -> list[EvalRecord]:
    """One record per chooser, in order, against one baseline solve.

    Each ``choose(inst, K) -> Backdoor`` is timed as ``overhead_seconds``, and
    its method solve follows the backdoor's priorities.  Every solve goes
    through ``inst.lp``, so method solves reuse the baseline's memo entries
    (ROADMAP item 11), and a chooser finds the root LP there."""
    cfg = BnbConfig(node_limit=node_cap)
    base = solve_bnb(inst, cfg)
    records = []
    for choose in choosers:
        t0 = time.perf_counter()
        backdoor = choose(inst, K)
        overhead = time.perf_counter() - t0
        method = solve_bnb(inst, replace(cfg, priorities=backdoor_priorities(backdoor.vars)))
        records.append(EvalRecord(
            inst.name, base.nodes_processed, method.nodes_processed,
            base.status == NODE_LIMIT, method.status == NODE_LIMIT, overhead,
        ))
    return records


def _evaluate_worker(choosers, K: int, node_cap: int | None, job) -> list[EvalRecord]:
    """:func:`evaluate_instance`'s records for ``job``, ``(index, path)``,
    where the index only names the job."""
    _, path = job
    return evaluate_instance(read_instance(path), choosers, K, node_cap)


def evaluate_choosers(
    instance_dir, choosers, K: int, node_cap: int | None = None
) -> tuple[list[list[EvalRecord]], list[dict]]:
    """:func:`evaluate_instance` over every instance in a directory.

    Returns one record list per chooser, in instance order, and the errors:
    an instance that raises, or whose pool worker dies (see
    :func:`_in_order`), is skipped in every list and listed as
    ``{"instance": <file name>, "error": "<Type>: <message>"}``.  A cap or a
    ``K`` below 1 raises before any instance runs.  Instances run one per
    worker, up to the usable CPUs, and no output depends on how many; each
    worker gets the choosers once, so each must pickle (no lambda).
    """
    BnbConfig(node_limit=node_cap)  # the cap obeys BnbConfig's rule, checked before any instance runs
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    paths = instance_paths(instance_dir)
    jobs = [(i, str(p)) for i, p in enumerate(paths)]
    worker = functools.partial(_evaluate_worker, choosers, K, node_cap)
    runs, errors = [[] for _ in choosers], []
    with contextlib.closing(_in_order(worker, jobs, len(jobs))) as results:
        for path, (found, error, _) in zip(paths, results):
            if error is None:
                for run, record in zip(runs, found):
                    run.append(record)
            else:
                errors.append({"instance": path.name, "error": error})
    return runs, errors


def evaluate(
    params: GatParameters,
    instance_dir,
    K: int = CollectConfig.K,
    node_cap: int | None = None,
) -> tuple[list[EvalRecord], dict]:
    """Baseline solve vs. predicted-backdoor solve for every instance.

    This is :func:`evaluate_choosers` with the one chooser
    :func:`predict_backdoor`.  Node-cap hits are censored at the cap and
    flagged.  Each record carries the wall seconds of the prediction in its
    worker as ``overhead_seconds``, which records do not compare on and
    ``report`` does not write.  The summary's ``failed`` counts the failed
    instances (see :func:`evaluate_choosers`) and ``errors`` lists them.  If
    no instance succeeds, ``ValueError`` names the first failing file and
    its error.
    """
    (records,), errors = evaluate_choosers(instance_dir, [functools.partial(predict_backdoor, params)], K, node_cap)
    if not records:
        first = errors[0]
        raise ValueError(f"no instance evaluated; the first, {first['instance']}, failed with {first['error']}")
    summary = summarize(records)
    summary["failed"] = len(errors)
    summary["errors"] = errors
    return records, summary


def _stats(values: np.ndarray) -> dict:
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
        "p25": float(np.percentile(values, 25)),
        "median": float(np.percentile(values, 50)),
        "p75": float(np.percentile(values, 75)),
    }


def summarize(records: list[EvalRecord]) -> dict:
    """Mean/std/quartiles for both solvers plus win/tie/loss counts.

    Percentiles interpolate linearly between order statistics; the standard
    deviation is the sample estimate (ddof=1).
    """
    if not records:
        raise ValueError("no evaluation records to summarize")
    base = np.array([r.baseline_effort for r in records], dtype=float)
    meth = np.array([r.method_effort for r in records], dtype=float)
    imp = np.array([r.improvement_pct for r in records], dtype=float)
    return {
        "instances": len(records),
        "baseline": _stats(base),
        "method": _stats(meth),
        "mean_improvement_pct": float(_improvement_pct(base.mean(), meth.mean())),
        "median_improvement_pct": float(np.percentile(imp, 50)),
        "wins": sum(r.outcome == WIN for r in records),
        "ties": sum(r.outcome == TIE for r in records),
        "losses": sum(r.outcome == LOSS for r in records),
        "censored": sum(r.baseline_censored or r.method_censored for r in records),
    }


def _fmt_float(x: float) -> str:
    return repr(float(x))


def report(records: list[EvalRecord], out_dir) -> dict:
    """Write results.csv, summary.txt, scatter.csv, and finishrate.csv."""
    if not records:
        raise ValueError("no evaluation records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = summarize(records)

    # A field holding a comma, a quote or a line break is quoted; no other field is.
    with open(out / "results.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_RESULT_COLUMNS)
        for r in records:
            writer.writerow([
                r.instance,
                str(r.baseline_effort),
                str(r.method_effort),
                _fmt_float(r.improvement_pct),
                r.outcome,
                str(int(r.baseline_censored)),
                str(int(r.method_censored)),
            ])

    with open(out / "summary.txt", "w", encoding="ascii") as fh:
        b, m = summary["baseline"], summary["method"]
        fh.write(
            f"instances {summary['instances']}\n"
            f"baseline mean {_fmt_float(b['mean'])} std {_fmt_float(b['std'])} "
            f"p25 {_fmt_float(b['p25'])} median {_fmt_float(b['median'])} p75 {_fmt_float(b['p75'])}\n"
            f"method   mean {_fmt_float(m['mean'])} std {_fmt_float(m['std'])} "
            f"p25 {_fmt_float(m['p25'])} median {_fmt_float(m['median'])} p75 {_fmt_float(m['p75'])}\n"
            f"mean improvement {_fmt_float(summary['mean_improvement_pct'])}%\n"
            f"median improvement {_fmt_float(summary['median_improvement_pct'])}%\n"
            f"W/T/L {summary['wins']}/{summary['ties']}/{summary['losses']}\n"
            f"censored {summary['censored']}\n"
        )

    with open(out / "scatter.csv", "w", encoding="ascii") as fh:
        fh.write("baseline_effort,improvement_pct\n")
        for r in records:
            fh.write(f"{r.baseline_effort},{_fmt_float(r.improvement_pct)}\n")

    with open(out / "finishrate.csv", "w", encoding="ascii") as fh:
        fh.write("solver,effort,finish_rate\n")
        total = len(records)
        for tag, efforts, censored in (
            ("baseline", [r.baseline_effort for r in records], [r.baseline_censored for r in records]),
            ("method", [r.method_effort for r in records], [r.method_censored for r in records]),
        ):
            finished = sorted(e for e, c in zip(efforts, censored) if not c)
            done = 0
            for i, e in enumerate(finished):
                done = i + 1
                if i + 1 < len(finished) and finished[i + 1] == e:
                    continue
                fh.write(f"{tag},{e},{_fmt_float(done / total)}\n")
    return summary


def read_results_csv(path) -> list[EvalRecord]:
    """Parse a results.csv written by :func:`report` back into records.

    Fields are read with the ``csv`` module's quoting, so an instance name
    may hold a comma.  A missing column, a row whose field count is not the
    header's, a number that ``inputs.read_number`` refuses, a negative effort,
    an unknown outcome, an outcome or improvement other than the efforts
    give, a censored flag other than 0 or 1, a byte past 0x7f, or a line the
    ``csv`` module refuses raises ``ValueError`` naming the line.
    Blank lines and columns beyond ``_RESULT_COLUMNS`` are skipped.
    """
    records = []
    reader = csv.reader(read_lines(path))
    try:
        header = next(reader, [])
        missing = [name for name in _RESULT_COLUMNS if name not in header]
        if missing:
            raise ValueError(f"{path}: line 1: missing column(s) {', '.join(missing)}")
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):
                try:
                    records.append(_result_record(header, row))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def _result_record(header: list[str], parts: list[str]) -> EvalRecord:
    if len(parts) != len(header):
        raise ValueError(f"{len(parts)} fields, expected {len(header)}")
    row = dict(zip(header, parts))
    if row["outcome"] not in (WIN, TIE, LOSS):
        raise ValueError(f"unknown outcome {row['outcome']!r}")
    for flag in (row["baseline_censored"], row["method_censored"]):
        if flag not in ("0", "1"):
            raise ValueError(f"censored flag {flag!r}, expected 0 or 1")
    record = EvalRecord(
        instance=row["instance"],
        baseline_effort=read_number(row["baseline"], "baseline", int),
        method_effort=read_number(row["method"], "method", int),
        baseline_censored=row["baseline_censored"] == "1",
        method_censored=row["method_censored"] == "1",
    )
    if min(record.baseline_effort, record.method_effort) < 0:
        raise ValueError(f"negative effort {record.baseline_effort}/{record.method_effort}")
    improvement = read_number(row["improvement_pct"], "improvement_pct")
    if (row["outcome"], improvement) != (record.outcome, record.improvement_pct):
        raise ValueError(
            f"outcome {row['outcome']} and improvement_pct {row['improvement_pct']} contradict efforts "
            f"{record.baseline_effort}/{record.method_effort}, which give "
            f"{record.outcome} and {_fmt_float(record.improvement_pct)}"
        )
    return record
