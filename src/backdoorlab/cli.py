"""Command-line front end.

Subcommands cover the full workflow: ``generate`` benchmark instances,
``solve`` one instance, ``collect`` a labeled backdoor dataset, ``train`` the
scorer, ``predict`` a backdoor, ``evaluate`` a model against the default
solver, and ``report`` to rebuild summary files from a results CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import generators
from .bnb import BnbConfig, solve_bnb
from .gnn import TrainConfig, load_model, save_model
from .milp import FILE_EXTENSION, read_instance, write_instance
from .pipeline import (
    CollectConfig,
    collect_dataset,
    evaluate,
    predict_backdoor,
    read_results_csv,
    report,
    train_from_file,
)

_FAMILY_PARAMS = {
    "gisp": ("nodes", "edge_prob", "removable_frac", "node_reward", "edge_cost"),
    "setcover": ("n_elements", "n_sets", "density"),
    "combinatorial_auction": ("items", "bids"),
    "mis": ("nodes", "avg_degree"),
    "facility_location": ("facilities", "customers"),
}


def _cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = {}
    for name in _FAMILY_PARAMS[args.family]:
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    entries = []
    for i in range(args.count):
        seed = args.seed + i
        inst = generators.GenConfig(family=args.family, seed=seed, params=params).build()
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
    with open(out / "manifest.json", "w", encoding="ascii") as fh:
        json.dump({"instances": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.count} {args.family} instance(s) to {out}")
    return 0


def _cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    priorities = None
    if args.priorities:
        with open(args.priorities, "r", encoding="ascii") as fh:
            raw = json.load(fh)
        priorities = {int(k): int(v) for k, v in raw.items()}
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


def _cmd_collect(args) -> int:
    cfg = CollectConfig(
        K=args.K,
        method=args.method,
        top_k=args.k,
        p=args.p,
        q=args.q,
        mcts_budget=args.budget,
        probe_node_limit=args.probe_limit,
        label_node_limit=args.label_limit,
        seed=args.seed,
    )
    manifest = collect_dataset(args.instances, args.out, cfg, workers=args.workers)
    print(
        f"collected {manifest['kept']} instance record(s), "
        f"skipped {manifest['skipped']}, failed {manifest['failed']}, dataset at {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    cfg = TrainConfig(
        tau=args.tau,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        L=args.L,
        H=args.H,
        hidden=args.hidden,
    )
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
    with open(str(args.out) + ".manifest.json", "w", encoding="ascii") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    records, summary = evaluate(
        params,
        args.instances,
        K=args.K,
        node_cap=args.node_cap,
        wallclock=args.wallclock,
    )
    report(records, args.out)
    manifest = {
        "K": args.K,
        "instances": str(args.instances),
        "model": str(args.model),
        "node_cap": args.node_cap,
        "summary": summary,
        "wallclock": args.wallclock,
    }
    with open(Path(args.out) / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    g.add_argument("--family", required=True, choices=sorted(_FAMILY_PARAMS))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--out", required=True)
    g.add_argument("--nodes", type=int)
    g.add_argument("--edge-prob", dest="edge_prob", type=float)
    g.add_argument("--removable-frac", dest="removable_frac", type=float)
    g.add_argument("--node-reward", dest="node_reward", type=float)
    g.add_argument("--edge-cost", dest="edge_cost", type=float)
    g.add_argument("--n-elements", dest="n_elements", type=int)
    g.add_argument("--n-sets", dest="n_sets", type=int)
    g.add_argument("--density", type=float)
    g.add_argument("--items", type=int)
    g.add_argument("--bids", type=int)
    g.add_argument("--avg-degree", dest="avg_degree", type=float)
    g.add_argument("--facilities", type=int)
    g.add_argument("--customers", type=int)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve one instance and print JSON stats")
    s.add_argument("--instance", required=True)
    s.add_argument("--priorities", help="JSON file mapping variable index to priority")
    s.add_argument("--node-limit", dest="node_limit", type=int)
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser("collect", help="collect a labeled backdoor dataset")
    c.add_argument("--instances", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--K", type=int, default=8)
    c.add_argument("--k", type=int, default=50, help="candidates kept per instance")
    c.add_argument("--p", type=int, default=5)
    c.add_argument("--q", type=int, default=5)
    c.add_argument("--budget", type=int, default=200, help="UCT iterations")
    c.add_argument("--probe-limit", dest="probe_limit", type=int, default=500)
    c.add_argument("--label-limit", dest="label_limit", type=int, default=None)
    c.add_argument("--method", choices=("mcts", "sampling"), default="mcts")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_collect)

    t = sub.add_parser("train", help="train the scorer on a collected dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    t.add_argument("--lr", type=float, default=5e-4)
    t.add_argument("--weight-decay", dest="weight_decay", type=float, default=0.01)
    t.add_argument("--tau", type=float, default=0.07)
    t.add_argument("--L", type=int, default=64)
    t.add_argument("--H", type=int, default=8)
    t.add_argument("--hidden", type=int, default=64)
    t.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="print the predicted backdoor for an instance")
    p.add_argument("--model", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--K", type=int, default=8)
    p.set_defaults(func=_cmd_predict)

    e = sub.add_parser("evaluate", help="compare model-guided vs default solving")
    e.add_argument("--model", required=True)
    e.add_argument("--instances", required=True)
    e.add_argument("--K", type=int, default=8)
    e.add_argument("--node-cap", dest="node_cap", type=int, default=None)
    e.add_argument("--out", required=True)
    e.add_argument("--wallclock", action="store_true")
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
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
