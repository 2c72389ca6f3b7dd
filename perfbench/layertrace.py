"""Outside-in layer tracing for the benchmark.

Spans are recorded around calls into the public functions of each layer of
``backdoorlab``.  Modules bind ``solve_bnb``, ``mcts_search`` and friends at
import time, so every wrapper is installed on each importing module's name
(and on ``LpWorkspace.solve`` for the LP layer).  The program itself is not
changed: a wrapper calls the original with the same arguments and returns its
result untouched.

A span is ``[name, start, end, parent, instance, attrs]``: ``parent`` indexes
the enclosing span of the same process (-1 for a root), ``instance`` is the
name of the instance most recently read in that process, and ``attrs`` holds
the counts read off the call's result (pivots, nodes, status, ...).

Pool workers trace their own calls and write each job's spans to a file;
:meth:`Tracer.gather_workers` merges them into the main list afterwards.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np

SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"
MAIN_PID_ENV = "PERFBENCH_MAIN_PID"

# Span names, one per traced public call.
SIMPLEX = "simplex.solve"
BNB = "bnb.solve_bnb"
MCTS = "search.mcts_search"
LABEL = "search.label_samples"
FEATURIZE = "features.featurize"
READ = "milp.read_instance"
FORWARD = "gnn.forward"
LOSS = "gnn.loss"
BACKWARD = "gnn.backward"
ADAM = "gnn.adam"
INFER = "gnn.gat_forward"
TRAIN = "gnn.train"
COLLECT_ONE = "pipeline.collect_one"
LOAD = "pipeline.load_dataset"


class Tracer:
    """In-memory span list of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance: str | None = None

    def reset(self) -> None:
        self.spans, self._stack, self.instance = [], [], None

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``attrs(result, args, kwargs)``
        returns the span's counts."""
        kwargs = kwargs or {}
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if attrs is not None:
            rec[5] = attrs(out, args, kwargs)
        return out

    def gather_workers(self, spans_dir: Path) -> None:
        """Append the spans pool workers wrote under ``spans_dir``, then delete the files."""
        files = sorted(spans_dir.glob("*.json"), key=lambda p: int(p.stem))
        for path in files:
            job = json.loads(path.read_text())
            base = len(self.spans)
            for name, start, end, parent, inst, attrs in job["spans"]:
                attrs = dict(attrs or {}, pid=job["pid"])
                self.spans.append([name, start, end, parent + base if parent >= 0 else -1, inst, attrs])
            path.unlink()

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _solve_attrs(sol, args, kwargs):
    start = kwargs.get("start", args[3] if len(args) > 3 else None)
    return {"warm": start is not None, "pivots": sol.iterations, "status": sol.status}


def _bnb_attrs(res, args, kwargs):
    return {"nodes": res.nodes_processed, "status": res.status}


def _mcts_attrs(ranked, args, kwargs):
    budget = kwargs.get("iteration_budget", args[2] if len(args) > 2 else None)
    return {"budget": budget}


def _label_attrs(res, args, kwargs):
    return {"useful": len(res.positives) + len(res.negatives)}


_PROCESS_TRACER: Tracer | None = None
_ORIGINALS: dict[tuple[object, str], object] = {}


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced call site so that its calls land in ``tracer``."""
    global _PROCESS_TRACER
    from backdoorlab import bnb, pipeline, search, simplex
    from backdoorlab.gnn import autodiff, training

    def read_and_mark(path):
        inst = _ORIGINALS[(pipeline, "read_instance")](path)
        tracer.instance = inst.name
        return inst

    plan = [
        (simplex.LpWorkspace, "solve", SIMPLEX, _solve_attrs),
        (bnb, "solve_bnb", BNB, _bnb_attrs),
        (search, "solve_bnb", BNB, _bnb_attrs),
        (pipeline, "solve_bnb", BNB, _bnb_attrs),
        (pipeline, "mcts_search", MCTS, _mcts_attrs),
        (pipeline, "label_samples", LABEL, _label_attrs),
        (pipeline, "featurize", FEATURIZE, None),
        (pipeline, "gat_forward", INFER, None),
        (pipeline, "train", TRAIN, None),
        (pipeline, "load_dataset", LOAD, None),
        (pipeline, "collect_one", COLLECT_ONE, None),
        (training, "score_graph", FORWARD, None),
        (training, "infonce_loss", LOSS, None),
        (training, "adam_step", ADAM, None),
        (autodiff, "grad", BACKWARD, None),
    ]
    for owner, attr, name, attrs in plan:
        original = getattr(owner, attr)
        _ORIGINALS[(owner, attr)] = original
        setattr(owner, attr, _wrap(tracer, name, original, attrs))
    _ORIGINALS[(pipeline, "read_instance")] = pipeline.read_instance
    pipeline.read_instance = _wrap(tracer, READ, read_and_mark)
    _ORIGINALS[(pipeline, "_collect_worker")] = pipeline._collect_worker
    pipeline._collect_worker = collect_worker
    _PROCESS_TRACER = tracer


def collect_worker(job):
    """Stand-in for ``pipeline._collect_worker`` while tracing.

    In the tracing process it just calls the original.  In a pool worker
    (forked or spawned) it traces the job in a fresh span list and writes
    that list, with the worker's pid, to the spans directory.
    """
    from backdoorlab import pipeline

    if os.getpid() == int(os.environ[MAIN_PID_ENV]):
        return _ORIGINALS[(pipeline, "_collect_worker")](job)
    if _PROCESS_TRACER is None:
        install(Tracer())
    tracer = _PROCESS_TRACER
    tracer.reset()
    out = _ORIGINALS[(pipeline, "_collect_worker")](job)
    payload = {"pid": os.getpid(), "spans": tracer.spans}
    spans_dir = Path(os.environ[SPANS_DIR_ENV])
    tmp = spans_dir / f"{job[0]}.tmp"
    tmp.write_text(json.dumps(payload))
    tmp.replace(spans_dir / f"{job[0]}.json")
    tracer.reset()
    return out


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, times and ratios from one run's spans (0 where a layer did no work)."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    child_s = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child_s[rec[3]] += dur[i]

    def parent_name(rec):
        return spans[rec[3]][0] if rec[3] >= 0 else None

    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def mean_ms(name):
        idx = by_name.get(name, ())
        return 1e3 * _share(sum(dur[i] for i in idx), len(idx))

    out: dict[str, float] = {}
    solves = [(i, spans[i][5]) for i in by_name.get(SIMPLEX, ())]
    for kind, warm in (("warm", True), ("cold", False)):
        picked = [i for i, a in solves if a["warm"] == warm]
        pivots = sum(spans[i][5]["pivots"] for i in picked)
        seconds = sum(dur[i] for i in picked)
        out[f"simplex.{kind}.solves"] = len(picked)
        out[f"simplex.{kind}.pivots"] = pivots
        if warm:
            out["simplex.warm.ms_per_solve"] = 1e3 * _share(seconds, len(picked))
        out[f"simplex.{kind}.us_per_pivot"] = 1e6 * _share(seconds, pivots)
    # Busy time: every root span, except a stage root that only waited on a
    # worker pool (the workers' own roots count instead).
    busy = sum(
        dur[i] for i, rec in enumerate(spans) if rec[3] < 0 and not (rec[5] or {}).get("pool")
    )
    out["simplex.time_share"] = _share(total(SIMPLEX), busy)
    out["simplex.infeasible_share"] = _share(sum(a["status"] == "INFEASIBLE" for _, a in solves), len(solves))

    bnb = by_name.get(BNB, [])
    nodes = sum(spans[i][5]["nodes"] for i in bnb)
    out["bnb.solves"] = len(bnb)
    out["bnb.nodes"] = nodes
    out["bnb.ms_per_node"] = 1e3 * _share(sum(dur[i] for i in bnb), nodes)
    out["bnb.self_ms_per_node"] = 1e3 * _share(sum(dur[i] - child_s[i] for i in bnb), nodes)
    out["bnb.node_limit_share"] = _share(sum(spans[i][5]["status"] == "NODE_LIMIT" for i in bnb), len(bnb))

    mcts = by_name.get(MCTS, [])
    probes = [i for i in bnb if parent_name(spans[i]) == MCTS]
    out["search.mcts.s"] = total(MCTS)
    out["search.mcts.self_s"] = sum(dur[i] - child_s[i] for i in mcts)
    out["search.mcts.probes"] = len(probes)
    out["search.mcts.probe_nodes"] = sum(spans[i][5]["nodes"] for i in probes)
    out["search.mcts.distinct_share"] = _share(len(probes), sum(spans[i][5]["budget"] for i in mcts))
    labels = by_name.get(LABEL, [])
    label_solves = [i for i in bnb if parent_name(spans[i]) == LABEL]
    out["search.label.s"] = total(LABEL)
    out["search.label.solves"] = len(label_solves)
    out["search.label.nodes"] = sum(spans[i][5]["nodes"] for i in label_solves)
    out["search.label.useful_share"] = _share(sum(spans[i][5]["useful"] for i in labels), len(label_solves))

    out["features.featurize.ms_per_graph"] = mean_ms(FEATURIZE)
    out["milp.read_instance.ms"] = mean_ms(READ)
    out["gnn.forward.ms_per_graph"] = mean_ms(FORWARD)
    out["gnn.backward.ms_per_batch"] = mean_ms(BACKWARD)
    out["gnn.loss.ms_per_batch"] = 1e3 * _share(total(LOSS), len(by_name.get(BACKWARD, ())))
    out["gnn.adam.ms_per_step"] = mean_ms(ADAM)

    per_instance = sorted(dur[i] for i in by_name.get(COLLECT_ONE, ()))
    out["pipeline.collect.instance_s.n"] = len(per_instance)
    out["pipeline.collect.instance_s.p50"] = float(np.percentile(per_instance, 50)) if per_instance else 0.0
    out["pipeline.collect.instance_s.p90"] = float(np.percentile(per_instance, 90)) if per_instance else 0.0
    stage = [i for i, rec in enumerate(spans) if rec[0] == "pipeline.collect_dataset"]
    capacity = sum(dur[i] * ((spans[i][5] or {}).get("pool") or 1) for i in stage)
    out["pipeline.collect.worker_busy_share"] = _share(sum(per_instance), capacity)
    out["pipeline.load_dataset.s"] = total(LOAD)
    return out
