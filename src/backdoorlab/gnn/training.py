"""Mini-batch training loop for the attention scorer."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..features import BipartiteGraph
from . import autodiff as ad
from .autodiff import Tensor
from .loss import infonce_loss
from .model import GatParameters, score_graph
from .optim import AdamState, adam_step


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults are the tuned operating point."""

    tau: float = 0.07
    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    L: int = 64
    H: int = 8
    hidden: int = 64

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("temperature must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")


@dataclass(frozen=True)
class TrainSample:
    """One instance's graph plus its positive/negative backdoor index sets."""

    graph: BipartiteGraph
    positives: tuple[tuple[int, ...], ...]
    negatives: tuple[tuple[int, ...], ...]


def batch_gradient(
    tensors: dict[str, Tensor], batch: list[TrainSample], tau: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean contrastive loss over ``batch`` and its gradient per parameter.

    Each sample's ``loss / len(batch)`` is back-propagated on its own and the
    parameter gradients are added into the totals in place, so only one
    sample's graph is alive at a time.  Equal to the gradient of the batch
    mean up to float order.
    """
    names = sorted(tensors)
    wrt = [tensors[k] for k in names]
    scale = 1.0 / len(batch)
    loss = 0.0
    total: list[np.ndarray] = []
    for sample in batch:
        scores, _ = score_graph(tensors, sample.graph)
        term = ad.mul(infonce_loss(scores, sample.positives, sample.negatives, tau), scale)
        for p in wrt:
            p.grad = None
        term.backward()
        if total:
            for acc, p in zip(total, wrt):
                if p.grad is not None:
                    acc += p.grad
        else:  # a gradient may be a view of another array: copy it once per batch
            total = [np.array(p.grad if p.grad is not None else np.zeros_like(p.data)) for p in wrt]
        loss += float(term.data)
        del scores, term  # free this sample's graph before the next forward pass
    return loss, dict(zip(names, total))


def train(
    dataset: list[TrainSample], cfg: TrainConfig, epoch_log: list | None = None
) -> tuple[GatParameters, list[float]]:
    """Train from scratch; returns the final parameters and per-epoch losses.

    Each epoch shuffles with the seeded generator, averages the contrastive
    loss over each mini-batch, and applies one Adam step per batch.  Fully
    deterministic under a fixed config.  If ``epoch_log`` is given, one
    ``{"seconds", "grad_norm"}`` dict is appended to it per epoch: the
    epoch's wall-clock seconds and the mean over its batches of the
    gradient's L2 norm.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    for s in dataset:
        if not s.positives or not s.negatives:
            raise ValueError("every training sample needs positives and negatives")
    params = GatParameters.init(seed=cfg.seed, L=cfg.L, H=cfg.H, hidden=cfg.hidden)
    state = AdamState.init(params.arrays)
    shuffle_rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    )
    curve: list[float] = []
    n = len(dataset)
    for _epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        norms = []
        for lo in range(0, n, cfg.batch_size):
            batch = [dataset[i] for i in order[lo : lo + cfg.batch_size]]
            batch_loss, grads = batch_gradient(params.tensors(), batch, cfg.tau)
            new_arrays, state = adam_step(
                params.arrays,
                grads,
                state,
                lr=cfg.learning_rate,
                wd=cfg.weight_decay,
            )
            params = GatParameters(L=cfg.L, H=cfg.H, hidden=cfg.hidden, arrays=new_arrays)
            epoch_loss += batch_loss * len(batch)
            if epoch_log is not None:
                # Not a BLAS dot: at this size a threaded BLAS leaves spinning
                # threads behind that slow down the next batch.
                norms.append(math.sqrt(sum(float(np.square(g).sum()) for g in grads.values())))
        curve.append(epoch_loss / n)
        if epoch_log is not None:
            epoch_log.append(
                {"seconds": time.perf_counter() - t0, "grad_norm": sum(norms) / len(norms)}
            )
    return params, curve
