"""Collect a small dataset, train the attention scorer, and save it.

The trainer is fully deterministic under a fixed seed: the loss curve and
the checkpoint bytes reproduce exactly across runs.
"""

import tempfile
from pathlib import Path

import numpy as np

from backdoorlab import gen_gisp, load_model, save_model, write_instance
from backdoorlab.gnn import TrainConfig, gat_forward
from backdoorlab.pipeline import CollectConfig, collect_dataset, load_dataset, train_from_file

work = Path(tempfile.mkdtemp(prefix="backdoorlab_demo_"))
inst_dir = work / "instances"
inst_dir.mkdir()
for seed in range(12):
    inst = gen_gisp(nodes=25, seed=seed)
    write_instance(inst, inst_dir / f"{inst.name}.bdmilp")

dataset = work / "dataset.jsonl"
manifest = collect_dataset(
    inst_dir,
    dataset,
    CollectConfig(top_k=10, p=3, q=3, mcts_budget=25, seed=0),
    workers=2,
)
print(f"collected {manifest['kept']} records, skipped {manifest['skipped']}")

cfg = TrainConfig(epochs=25, seed=0, batch_size=16)
params, curve = train_from_file(dataset, cfg)
print(f"loss: epoch 1 = {curve[0]:.4f}, epoch {len(curve)} = {curve[-1]:.4f}")

ckpt = work / "model.ckpt"
save_model(params, ckpt)
reloaded = load_model(ckpt)
sample = load_dataset(dataset)[0]
np.testing.assert_array_equal(
    gat_forward(params, sample.graph), gat_forward(reloaded, sample.graph)
)
print(f"checkpoint round trip OK at {ckpt}")
