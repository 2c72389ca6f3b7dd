"""Full loop: collect, train, then score a model against the default solver.

Held-out instances are solved twice, once with default branching and once
with priorities on the predicted backdoor; the summary mirrors the usual
reporting style (mean/std/quartiles plus win/tie/loss counts) with effort
measured in processed nodes.
"""

import tempfile
from pathlib import Path

from backdoorlab import gen_gisp, write_instance
from backdoorlab.gnn import TrainConfig
from backdoorlab.pipeline import (
    CollectConfig,
    collect_dataset,
    evaluate,
    report,
    train_from_file,
)

work = Path(tempfile.mkdtemp(prefix="backdoorlab_demo_"))
train_dir, test_dir = work / "train", work / "test"
train_dir.mkdir(), test_dir.mkdir()
for seed in range(25):
    inst = gen_gisp(nodes=25, seed=seed)
    write_instance(inst, train_dir / f"{inst.name}.bdmilp")
for seed in range(500, 515):
    inst = gen_gisp(nodes=25, seed=seed)
    write_instance(inst, test_dir / f"{inst.name}.bdmilp")

dataset = work / "dataset.jsonl"
collect_dataset(
    train_dir,
    dataset,
    CollectConfig(top_k=10, p=3, q=3, mcts_budget=25, seed=0),
    workers=2,
)
params, _ = train_from_file(dataset, TrainConfig(epochs=30, seed=0))

records, summary = evaluate(params, test_dir)
out = work / "report"
report(records, out)

print(f"evaluated {summary['instances']} held-out instances")
print(
    f"baseline nodes: mean {summary['baseline']['mean']:.1f} "
    f"median {summary['baseline']['median']:.1f}"
)
print(
    f"with backdoor:  mean {summary['method']['mean']:.1f} "
    f"median {summary['method']['median']:.1f}"
)
print(
    f"W/T/L = {summary['wins']}/{summary['ties']}/{summary['losses']}, "
    f"median improvement {summary['median_improvement_pct']:.1f}%"
)
print(f"csv + summary files under {out}")
