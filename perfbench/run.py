"""Benchmark of backdoorlab: end-to-end metrics per workload, per-layer metrics from a traced run.

One run of one workload (from the repository root):

    python3 perfbench/run.py --workload pipeline-gisp25 --seed 0 --seconds 40 --trace 0

prints every metric by name with its unit, a ``record:`` line (machine,
backend, host-speed probe), and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It exits 1 when
an output check fails or a stage raises, 2 when ``src/backdoorlab`` is missing.

Every workload, untraced and then traced, each in a fresh process:

    python3 perfbench/run.py --all --seed 0

prints each workload's end-to-end figures, checks that the traced run left
every deterministic count unchanged, reports the tracing overhead, and writes
``BENCHMARK.json`` and ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_SECONDS = 40
# Set-ups timed before the run and, untraced, again after it.  The host's
# speed shifts over seconds, so samples from both ends of the run keep the
# median of setup_s from following one moment's load.
SETUPS_BEFORE = SETUPS_AFTER = 3
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# (name, unit, better, bound): the bounded end-to-end metrics every workload reports.
END_TO_END = [
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]
# (name, unit, better): per-layer metrics of the traced run; 0 where a layer did no work.
PER_LAYER = [
    ("simplex.warm.solves", "count", "lower"),
    ("simplex.warm.pivots", "count", "lower"),
    ("simplex.warm.ms_per_solve", "ms", "lower"),
    ("simplex.warm.us_per_pivot", "us", "lower"),
    ("simplex.cold.solves", "count", "lower"),
    ("simplex.cold.pivots", "count", "lower"),
    ("simplex.cold.us_per_pivot", "us", "lower"),
    ("simplex.time_share", "share", "lower"),
    ("simplex.infeasible_share", "share", "lower"),
    ("bnb.solves", "count", "lower"),
    ("bnb.nodes", "count", "lower"),
    ("bnb.ms_per_node", "ms", "lower"),
    ("bnb.self_ms_per_node", "ms", "lower"),
    ("bnb.node_limit_share", "share", "lower"),
    ("search.mcts.s", "s", "lower"),
    ("search.mcts.self_s", "s", "lower"),
    ("search.mcts.probes", "count", "lower"),
    ("search.mcts.probe_nodes", "count", "lower"),
    ("search.mcts.distinct_share", "share", "higher"),
    ("search.label.s", "s", "lower"),
    ("search.label.solves", "count", "lower"),
    ("search.label.nodes", "count", "lower"),
    ("search.label.useful_share", "share", "higher"),
    ("features.featurize.ms_per_graph", "ms", "lower"),
    ("milp.read_instance.ms", "ms", "lower"),
    ("generators.ms_per_instance", "ms", "lower"),
    ("gnn.forward.ms_per_graph", "ms", "lower"),
    ("gnn.backward.ms_per_batch", "ms", "lower"),
    ("gnn.loss.ms_per_batch", "ms", "lower"),
    ("gnn.adam.ms_per_step", "ms", "lower"),
    ("pipeline.collect.instance_s.p50", "s", "lower"),
    ("pipeline.collect.instance_s.p90", "s", "lower"),
    ("pipeline.collect.instance_s.n", "count", "higher"),
    ("pipeline.collect.worker_busy_share", "share", "higher"),
    ("pipeline.load_dataset.s", "s", "lower"),
    ("pipeline.collect.instances_per_s", "1/s", "higher"),
    ("pipeline.train.graphs_per_s", "1/s", "higher"),
    ("pipeline.evaluate.instances_per_s", "1/s", "higher"),
    ("pipeline.quality.wins", "count", "higher"),
    ("pipeline.quality.losses", "count", "lower"),
    ("pipeline.quality.median_improvement_pct", "%", "higher"),
    ("pipeline.quality.kept_share", "share", "higher"),
]
# End-to-end figures printed beside the bounded ones, with their units.  They
# exist on some workloads only, or can be 0, so they carry no bound; the
# traced run reports them again as pipeline.* per-layer metrics.
REPORT_UNITS = {
    "failed_share": "share",
    "collect_instances_per_s": "1/s",
    "train_graphs_per_s": "1/s",
    "evaluate_instances_per_s": "1/s",
    "wins": "count",
    "ties": "count",
    "losses": "count",
    "median_improvement_pct": "%",
    "kept_share": "share",
}
REPORT_AS_LAYER = {
    "collect_instances_per_s": "pipeline.collect.instances_per_s",
    "train_graphs_per_s": "pipeline.train.graphs_per_s",
    "evaluate_instances_per_s": "pipeline.evaluate.instances_per_s",
    "wins": "pipeline.quality.wins",
    "losses": "pipeline.quality.losses",
    "median_improvement_pct": "pipeline.quality.median_improvement_pct",
    "kept_share": "pipeline.quality.kept_share",
}


def host_probe() -> float:
    """Median seconds of a fixed pure-python loop over five tries.

    Taken before set-up and after the run, it tells host drift apart from
    program change; it is not a metric.
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` (no subprocess); ``None`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the record is informative only
        blas = None
    numba = importlib.util.find_spec("numba") is not None
    return {
        "commit": git_commit(),
        "kernel_backend": "numba" if numba and not os.environ.get("BACKDOORLAB_NO_NUMBA") else "python",
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<42} {value!r} {units[name]}")


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    src = ROOT / "src"
    if not (src / "backdoorlab" / "__init__.py").is_file():
        print(f"error: no backdoorlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    probe_before = host_probe()
    t0 = perf_counter()
    import layertrace
    import workloads

    import_s = perf_counter() - t0
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[workload]
    tag = f"{workload}-s{seed}-t{int(trace)}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    after_dir = workdir.with_name(workdir.name + "-after")
    setups: list[float] = []

    def set_up(directory: Path, timings: dict):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        t0 = perf_counter()
        wl = cls(seed, seconds)
        wl.setup(directory, timings)
        setups.append(perf_counter() - t0)
        return wl

    try:
        for _ in range(SETUPS_BEFORE):
            timings: dict[str, list[float]] = {}
            wl = set_up(workdir, timings)
        tracer = layertrace.Tracer() if trace else None
        if tracer is not None:
            layertrace.install(tracer)
        run = workloads.Run(tracer, workdir)
        wl.run(run)
        if tracer is None:  # traced calls would land in the run's spans
            for _ in range(SETUPS_AFTER):
                set_up(after_dir, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(after_dir, ignore_errors=True)

    probe_after = host_probe()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end = {
        "run_s": sum(run.stage_s.values()),
        "setup_s": statistics.median(setups),
        # Pool workers are reaped when collect_dataset shuts its pool down;
        # RUSAGE_CHILDREN gives the largest one's peak, counted once per worker.
        "peak_rss_mb": (own + run.workers * pool) / 1024.0,
    }
    report = {"failed_share": run.failed / run.attempted if run.attempted else 1.0, **run.report}
    per_layer = None
    if tracer is not None:
        per_layer = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
        per_layer.update(layertrace.layer_metrics(tracer.spans))
        per_layer["generators.ms_per_instance"] = statistics.fmean(timings["generate_ms"])
        if not per_layer["features.featurize.ms_per_graph"] and timings.get("featurize_ms"):
            per_layer["features.featurize.ms_per_graph"] = statistics.fmean(timings["featurize_ms"])
        for key, layer in REPORT_AS_LAYER.items():
            if key in run.report:
                per_layer[layer] = run.report[key]
    correct = not run.problems and not run.errors
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **machine_record(),
        "host_probe_s": [probe_before, probe_after],
        "import_s": import_s,
        "setup_runs_s": setups,
        "rss_mb": {"own": own / 1024.0, "largest_worker": pool / 1024.0},
        "stage_s": run.stage_s,
    }
    OUT.joinpath("runs").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.dump(OUT / "runs" / f"{tag}.spans.jsonl")
    result = {
        "record": record,
        "end_to_end": end_to_end,
        "report": report,
        "per_layer": per_layer,
        "counts": run.counts,
        "digest": run.digest.hexdigest(),
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": correct,
        "problems": run.problems,
        "errors": run.errors,
    }
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER} | REPORT_UNITS
    print(f"{workload}: seed {seed}, {seconds} s, trace {int(trace)}")
    _print_metrics("end to end", {**end_to_end, **report}, units)
    if per_layer is not None:
        _print_metrics("per layer", per_layer, units)
    for message in run.errors + run.problems:
        print(f"  FAILED: {message}")
    print("record: " + json.dumps(record, sort_keys=True))
    shown = per_layer if per_layer is not None else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0 if correct and run.failed == 0 else 1


def benchmark_spec(workload_whys: dict[str, str]) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in workload_whys.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def run_all(seed: int, seconds: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ok = True
    baseline = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            result = OUT / "runs" / f"{name}-s{seed}-t{trace}.json"
            result.unlink(missing_ok=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout)
                ok = False
            if not result.is_file():
                print(f"{name}: no result from {' '.join(cmd)}")
                break
            runs.append(json.loads(result.read_text()))
        if len(runs) < 2:
            ok = False
            continue
        plain, traced = runs
        same = plain["counts"] == traced["counts"] and plain["digest"] == traced["digest"]
        overhead = traced["end_to_end"]["run_s"] / plain["end_to_end"]["run_s"] - 1.0
        ok = ok and same and plain["correct"] and traced["correct"]
        units = {n: u for n, u, *_ in END_TO_END} | REPORT_UNITS
        _print_metrics(f"{name} (correct: {plain['correct']})",
                       {**plain["end_to_end"], **plain["report"]}, units)
        print(f"  traced run: counts and outputs {'unchanged' if same else 'CHANGED'}, "
              f"overhead {100 * overhead:.1f}% of run_s; host probe untraced "
              f"{plain['record']['host_probe_s']}, traced {traced['record']['host_probe_s']} s")
        baseline["workloads"][name] = {
            "why": workloads.WORKLOADS[name].why,
            "end_to_end": plain["end_to_end"],
            "report": plain["report"],
            "per_layer": traced["per_layer"],
            "counts": plain["counts"],
            "trace_overhead_share": overhead,
            "record": plain["record"],
        }
    spec = benchmark_spec({n: w.why for n, w in workloads.WORKLOADS.items()})
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    baseline["units"] = {n: {"unit": u, "better": b} for n, u, b, *_ in END_TO_END + PER_LAYER}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print("wrote BENCHMARK.json and perfbench/baseline.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
