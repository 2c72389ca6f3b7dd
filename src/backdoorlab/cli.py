"""Command-line front end.

Subcommands cover the full workflow: ``generate`` benchmark instances,
``solve`` one instance, ``collect`` a labeled backdoor dataset, ``train`` the
scorer, ``predict`` a backdoor, ``evaluate`` a model against the default
solver, and ``report`` to rebuild summary files from a results CSV.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import generators
from .bnb import BnbConfig, solve_bnb
from .gnn import TrainConfig, load_model, save_model
from .inputs import check_integer, parse_json, read_lines, read_number
from .milp import FILE_EXTENSION, read_instance, write_instance
from .pipeline import (
    MCTS,
    NODE_CAP,
    SAMPLING,
    CollectConfig,
    _write_manifest,
    collect_dataset,
    evaluate,
    predict_backdoor,
    read_results_csv,
    report,
    train_from_file,
)
from .simplex import SimplexIterationError, SimplexNumericalError


# An option's text is read by the number rule; argparse reports a refusal as
# "argument --seed: invalid integer value: '1_0'", naming these functions.
def integer(token: str) -> int:
    return read_number(token, "option", int)


def number(token: str) -> float:
    return read_number(token, "option")


def _size_options() -> dict[str, type]:
    """``generate``'s size options: each generator keyword but ``seed``, read as its default's type."""
    return {
        name: {int: integer, float: number}[type(param.default)]
        for gen in generators.GENERATORS.values()
        for name, param in inspect.signature(gen).parameters.items()
        if name != "seed"
    }


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    gen = generators.GENERATORS[args.family]
    given = {name: getattr(args, name) for name in _size_options() if getattr(args, name) is not None}
    sizes = inspect.signature(gen).parameters
    stray = [name for name in given if name not in sizes]
    if stray:
        raise ValueError(f"family {args.family} takes no {', '.join(map(_flag, stray))}")
    # Every size the generator runs with, defaults included, so the manifest says it.
    params = {name: p.default for name, p in sizes.items() if name != "seed"} | given
    # Refuse a last seed that keys no generator before anything is written; the first run checks the first.
    generators._rng(args.seed + args.count - 1)
    out = Path(args.out)
    entries = []
    for i in range(args.count):
        seed = args.seed + i
        inst = gen(seed=seed, **params)
        if i == 0:
            # Only now: the generator has checked its sizes, so a rejected run leaves nothing.
            out.mkdir(parents=True, exist_ok=True)
        path = out / f"{inst.name}{FILE_EXTENSION}"
        write_instance(inst, path)
        entries.append(
            {
                "family": args.family,
                "file": path.name,
                "m": inst.num_cons,
                "n": inst.num_vars,
                "params": params,
                "seed": seed,
            }
        )
    _write_manifest(out / "manifest.json", {"instances": entries})
    print(f"wrote {args.count} {args.family} instance(s) to {out}")
    return 0


def _read_priorities(path) -> dict[int, int]:
    """A JSON object mapping variable indices to integer priorities; each key,
    which JSON writes as a string, is read by ``inputs.read_number``.  Every
    refusal names the file, and a byte past 0x7f its line too."""
    raw = parse_json("".join(read_lines(path)), str(path))
    try:
        if isinstance(raw, dict):
            return {
                read_number(k, "variable index", int): check_integer(v, "priority")
                for k, v in raw.items()
            }
    except ValueError:
        pass
    raise ValueError(f"{path}: expected a JSON object mapping integer variable indices to integer priorities")


def _cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    priorities = _read_priorities(args.priorities) if args.priorities else None
    res = solve_bnb(inst, BnbConfig(priorities=priorities, node_limit=args.node_limit))
    print(
        json.dumps(
            {
                "fathomed": res.fathomed,
                "instance": inst.name,
                "lp": inst.lp.counters(),
                "nodes": res.nodes_processed,
                "objective": res.objective,
                "status": res.status,
                "tree_weight": res.tree_weight,
            },
            sort_keys=True,
        )
    )
    return 0


def _config(cls, args):
    """A ``cls`` config from the parsed options whose dests are its field names."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_collect(args) -> int:
    cfg = _config(CollectConfig, args)
    manifest = collect_dataset(args.instances, args.out, cfg, workers=args.workers)
    print(
        f"collected {manifest['kept']} instance record(s), "
        f"skipped {manifest['skipped']}, failed {manifest['failed']}, dataset at {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    cfg = _config(TrainConfig, args)
    epoch_log: list[dict] = []
    params, curve = train_from_file(args.dataset, cfg, epoch_log=epoch_log)
    save_model(params, args.out)
    info = {
        "config": asdict(cfg),
        "dataset": str(args.dataset),
        "epochs": len(curve),
        "final_loss": curve[-1],
        "first_loss": curve[0],
        "loss_curve": curve,
        "epoch_seconds": [e["seconds"] for e in epoch_log],
        "grad_norm": [e["grad_norm"] for e in epoch_log],
        "model": str(args.out),
    }
    _write_manifest(str(args.out) + ".manifest.json", info)
    for key in ("loss_curve", "epoch_seconds", "grad_norm"):
        del info[key]
    print(json.dumps(info, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    params = load_model(args.model)
    inst = read_instance(args.instance)
    backdoor = predict_backdoor(params, inst, args.K)
    print(json.dumps({"backdoor": list(backdoor.vars), "instance": inst.name}, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    params = load_model(args.model)
    records, summary = evaluate(params, args.instances, K=args.K, node_cap=args.node_cap)
    report(records, args.out)
    # Wall-clock cost stays out of results.csv: one line per row, in row order.
    with open(Path(args.out) / "timing.jsonl", "w", encoding="ascii") as fh:
        for r in records:
            timing = {"instance": r.instance, "overhead_seconds": r.overhead_seconds}
            fh.write(json.dumps(timing, sort_keys=True) + "\n")
    manifest = {
        "K": args.K,
        "instances": str(args.instances),
        "model": str(args.model),
        "node_cap": args.node_cap,
        "summary": summary,
    }
    _write_manifest(Path(args.out) / "manifest.json", manifest)
    print(f"evaluated {summary['instances']} instance(s), failed {summary['failed']}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    records = read_results_csv(args.results)
    summary = report(records, args.out)
    print(json.dumps(summary, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="backdoorlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write benchmark instances")
    g.add_argument("--family", required=True, choices=sorted(generators.GENERATORS))
    g.add_argument("--seed", type=integer, default=0)
    g.add_argument("--count", type=integer, default=1)
    g.add_argument("--out", required=True)
    for name, kind in _size_options().items():
        g.add_argument(_flag(name), dest=name, type=kind)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve one instance and print JSON stats")
    s.add_argument("--instance", required=True)
    s.add_argument("--priorities", help="JSON file mapping variable index to priority")
    s.add_argument("--node-limit", dest="node_limit", type=integer)
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser("collect", help="collect a labeled backdoor dataset")
    c.add_argument("--instances", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--K", type=integer, default=CollectConfig.K)
    c.add_argument(
        "--k", dest="top_k", type=integer, default=CollectConfig.top_k, help="candidates kept per instance"
    )
    c.add_argument("--p", type=integer, default=CollectConfig.p)
    c.add_argument("--q", type=integer, default=CollectConfig.q)
    c.add_argument(
        "--budget", dest="mcts_budget", type=integer, default=CollectConfig.mcts_budget, help="UCT iterations"
    )
    c.add_argument("--probe-limit", dest="probe_node_limit", type=integer, default=CollectConfig.probe_node_limit)
    c.add_argument("--label-limit", dest="label_node_limit", type=integer, default=CollectConfig.label_node_limit)
    c.add_argument("--method", choices=(MCTS, SAMPLING), default=CollectConfig.method)
    c.add_argument("--workers", type=integer, default=1)
    c.add_argument("--seed", type=integer, default=CollectConfig.seed)
    c.set_defaults(func=_cmd_collect)

    t = sub.add_parser("train", help="train the scorer on a collected dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=integer, default=TrainConfig.seed)
    t.add_argument("--epochs", type=integer, default=TrainConfig.epochs)
    t.add_argument("--batch-size", dest="batch_size", type=integer, default=TrainConfig.batch_size)
    t.add_argument("--lr", dest="learning_rate", type=number, default=TrainConfig.learning_rate)
    t.add_argument("--weight-decay", dest="weight_decay", type=number, default=TrainConfig.weight_decay)
    t.add_argument("--tau", type=number, default=TrainConfig.tau)
    t.add_argument("--L", type=integer, default=TrainConfig.L)
    t.add_argument("--H", type=integer, default=TrainConfig.H)
    t.add_argument("--hidden", type=integer, default=TrainConfig.hidden)
    t.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="print the predicted backdoor for an instance")
    p.add_argument("--model", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--K", type=integer, default=CollectConfig.K)
    p.set_defaults(func=_cmd_predict)

    e = sub.add_parser("evaluate", help="compare model-guided vs default solving")
    e.add_argument("--model", required=True)
    e.add_argument("--instances", required=True)
    e.add_argument("--K", type=integer, default=CollectConfig.K)
    e.add_argument("--node-cap", dest="node_cap", type=integer, default=NODE_CAP)
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_evaluate)

    r = sub.add_parser("report", help="rebuild summary files from results.csv")
    r.add_argument("--results", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, SimplexIterationError, SimplexNumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
