"""Mini-batch training loop for the attention scorer.

A mini-batch runs as the disjoint union of its graphs: one plain-numpy
forward pass (``score_union``), one contrastive loss over all its samples
(``infonce_union``) and one backward pass, which adds the batch gradient
straight into one flat buffer laid out like ``GatParameters.vector``; AdamW
then updates that vector in place in one step.  A batch whose stacked
attention blocks would pass ``_UNION_CELLS`` runs as a few unions of
consecutive samples, so memory stays bounded whatever the batch size.
``train`` allocates the gradient buffer once per run and zeroes it before
each batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..features import BipartiteGraph
from ..milp import check_integer
# ``score_graph`` and ``infonce_loss`` stay bound here because perfbench/layertrace.py wraps them by name.
from .loss import ContrastiveSets, infonce_loss, infonce_union  # noqa: F401
from .model import GatParameters, score_graph, score_union  # noqa: F401
from .optim import _BLOCK, AdamState, adam_step

# Cells of the stacked attention blocks (``model._Blocks``) in one disjoint
# union that training runs at once; its memory grows with them.  Sized on
# train-gisp25 (60 GISP-25 graphs, batches of 32), where 2**14 cells hold
# about five graphs: 2**13 took 22% more CPU time, and 2**15 saved 2-3% of it
# for 2.6 MB more peak RSS (training added 5.6 MB at 2**14, and 3.9 MB when
# it ran sample by sample).
_UNION_CELLS = 1 << 14


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults are the tuned operating point."""

    tau: float = 0.07
    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    L: int = GatParameters.L
    H: int = GatParameters.H
    hidden: int = GatParameters.hidden

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"temperature must be positive and finite, got {self.tau}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight decay must be finite and not negative, got {self.weight_decay}")
        check_integer(self.seed, "seed", 0)
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")
        if self.L < 1 or self.H < 1 or self.hidden < 1:
            raise ValueError("model sizes L, H and hidden must be positive")


@dataclass(frozen=True)
class TrainSample:
    """One instance's graph plus its positive/negative backdoor index sets;
    construction refuses an empty side, an index that is not an integer, or
    one outside the graph."""

    graph: BipartiteGraph
    positives: tuple[tuple[int, ...], ...]
    negatives: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.positives or not self.negatives:
            raise ValueError("it needs a positive and a negative sample")
        n = self.graph.num_vars
        for s in self.positives + self.negatives:
            for j in s:
                check_integer(j, "variable index", 0, n)

    @cached_property
    def sets(self) -> ContrastiveSets:
        """The positives and negatives as index arrays, built once per sample."""
        return ContrastiveSets.of(self.positives, self.negatives, self.graph.num_vars)


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

    The batch runs as the disjoint union of its graphs (``score_union``):
    one forward and one backward pass per run of consecutive samples
    (``_chunks``), each adding ``1 / len(batch)`` of its samples' summed
    gradient into the views.
    """
    scale = 1.0 / len(batch)
    loss = 0.0
    for chunk in _chunks(batch):
        scores, _, backward = score_union(params.arrays, [s.graph for s in chunk])
        value, d_scores = infonce_union(scores, [s.sets for s in chunk], tau, scale)
        backward(d_scores, grads)
        loss += value
    return loss


def _chunks(batch: list[TrainSample]):
    """Consecutive runs of ``batch`` whose stacked attention blocks
    (``model._Blocks``: runs times the most senders times the most classes
    of any graph in the run, summed over both rounds) hold at most
    ``_UNION_CELLS`` cells; a sample whose blocks alone hold more runs alone."""
    lo, widest = 0, (0, 0, 0, 0)
    for hi, sample in enumerate(batch):
        nc = sample.graph.node_classes
        dims = (nc.round1.send.size, nc.round1.recv.size, nc.round2.send.size, nc.round2.recv.size)
        wider = tuple(map(max, widest, dims))
        if hi > lo and (hi + 1 - lo) * (wider[0] * wider[1] + wider[2] * wider[3]) > _UNION_CELLS:
            yield batch[lo:hi]
            lo, wider = hi, dims
        widest = wider
    yield batch[lo:]


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
