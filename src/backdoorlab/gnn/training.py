"""Mini-batch training loop for the attention scorer.

Each sample runs one plain-numpy forward pass (``score_graph``) and one
backward pass, which adds its share of the batch gradient straight into one
flat buffer laid out like ``GatParameters.vector``; AdamW then updates that
vector in place in one step.  ``train`` allocates that buffer once per run
and zeroes it before each batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..features import BipartiteGraph
# ``infonce_loss`` stays bound here because perfbench/layertrace.py wraps it by name.
from .loss import infonce_loss, infonce_loss_and_grad  # noqa: F401
from .model import GatParameters, score_graph
from .optim import _BLOCK, AdamState, adam_step


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
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"temperature must be positive and finite, got {self.tau}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight decay must be finite and not negative, got {self.weight_decay}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")
        if self.L < 1 or self.H < 1 or self.hidden < 1:
            raise ValueError("model sizes L, H and hidden must be positive")


@dataclass(frozen=True)
class TrainSample:
    """One instance's graph plus its positive/negative backdoor index sets."""

    graph: BipartiteGraph
    positives: tuple[tuple[int, ...], ...]
    negatives: tuple[tuple[int, ...], ...]


def batch_gradient(
    params: GatParameters, batch: list[TrainSample], tau: float
) -> tuple[float, np.ndarray]:
    """Mean contrastive loss over ``batch`` and its gradient as one flat vector.

    The vector has the layout of ``params.vector``.
    """
    flat = np.zeros_like(params.vector)
    return _add_batch_gradient(params, batch, tau, params.views(flat)), flat


def _add_batch_gradient(
    params: GatParameters, batch: list[TrainSample], tau: float, grads: dict[str, np.ndarray]
) -> float:
    """Add the batch's mean gradient into ``grads`` (named views of a flat
    buffer, zero on entry) and return the mean contrastive loss.

    Each sample's backward pass adds ``1 / len(batch)`` of that sample's
    gradient into the views, so only one sample's activations are alive at
    a time and the sum over the batch needs no pass of its own.
    """
    scale = 1.0 / len(batch)
    loss = 0.0
    for sample in batch:
        scores, _, backward = score_graph(params.arrays, sample.graph)
        value, d_scores = infonce_loss_and_grad(scores, sample.positives, sample.negatives, tau)
        backward(d_scores * scale, grads)
        loss += value * scale
    return loss


def _norm(vector: np.ndarray, scratch: np.ndarray) -> float:
    """The L2 norm of a flat ``vector``, squared and summed over slices of
    ``_BLOCK`` entries through ``scratch`` (at least that long, or as long
    as ``vector``), so no temporary is as large as ``vector``.

    Not a BLAS dot: at this size a threaded BLAS leaves spinning threads
    behind that slow down the next batch.
    """
    total = 0.0
    for lo in range(0, len(vector), _BLOCK):
        part = vector[lo : lo + _BLOCK]
        sq = scratch[: len(part)]
        np.square(part, out=sq)
        total += float(sq.sum())
    return math.sqrt(total)


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
    state = AdamState.init(params.vector)
    shuffle_rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    )
    grad = np.empty_like(params.vector)
    grads = params.views(grad)
    scratch = np.empty(min(len(grad), _BLOCK)) if epoch_log is not None else None
    curve: list[float] = []
    n = len(dataset)
    for _epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        norms = []
        for lo in range(0, n, cfg.batch_size):
            batch = [dataset[i] for i in order[lo : lo + cfg.batch_size]]
            grad.fill(0.0)
            batch_loss = _add_batch_gradient(params, batch, cfg.tau, grads)
            adam_step(params.vector, grad, state, lr=cfg.learning_rate, wd=cfg.weight_decay)
            epoch_loss += batch_loss * len(batch)
            if epoch_log is not None:
                norms.append(_norm(grad, scratch))
        curve.append(epoch_loss / n)
        if epoch_log is not None:
            epoch_log.append(
                {"seconds": time.perf_counter() - t0, "grad_norm": sum(norms) / len(norms)}
            )
    return params, curve
