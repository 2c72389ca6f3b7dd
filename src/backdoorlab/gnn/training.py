"""Mini-batch training loop for the attention scorer.

A mini-batch runs as the disjoint union of its graphs: one plain-numpy
forward pass (``score_union``), one contrastive loss over all its samples
(``infonce_union``) and one backward pass, which adds the batch gradient
straight into one flat buffer laid out like ``GatParameters.vector``; AdamW
then updates that vector in place in one step.  A batch whose stacked
attention blocks would pass ``_UNION_CELLS`` runs as a few unions of
consecutive samples, so memory stays bounded whatever the batch size.
``train`` allocates the gradient buffer once per run and zeroes it before
each batch, and holds the process heap while its epochs run
(``_held_heap``): each union's arrays reuse the memory the previous union
freed instead of being given back to the OS and faulted in again.
"""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..features import BipartiteGraph
from ..inputs import check_integer
# ``score_graph`` and ``infonce_loss`` stay bound here because perfbench/layertrace.py wraps them by name.
from .loss import ContrastiveSets, infonce_loss, infonce_union  # noqa: F401
from .model import GatParameters, score_graph, score_union  # noqa: F401
from .optim import AdamState, adam_step

# Cells of the stacked attention blocks (``model._Blocks``) in one disjoint
# union that training runs at once; its memory grows with them.  Sized on
# train-gisp25 (60 GISP-25 graphs of 2.2k-2.8k cells, batches of 32) with the
# heap held, where 2**16 cells run a batch as one or two unions.  Median CPU
# of 11 in-process trainings on a 2-CPU host, all at width 64 (L and
# hidden): 0.538 s at 2**16, 0.605 s at 2**15, 0.713 s at 2**14 (0.99 s at
# 2**13 over 5), and 0.512 s at 2**17 for 2.7 MB more peak RSS.  2**14
# without the hold, the earlier size, took 0.773 s: each union's fresh pages
# cost 19k minor faults against 2.7k here.  At width 32, the default since,
# 2**16 took 0.442 s, against 0.758 s at width 64 in the same alternating
# runs on a busier host (not retuned).
_UNION_CELLS = 1 << 16

# glibc's ``mallopt`` parameters (malloc.h), the largest mmap threshold it
# takes on 64-bit hosts, and its default trim threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HELD_BYTES = 32 << 20
_TRIM_BYTES = 128 << 10


def _c_library():
    """The C library when it has glibc's ``mallopt`` and ``malloc_trim``, else None."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    except (AttributeError, OSError, TypeError):
        return None
    return libc


_LIBC = _c_library()


@contextmanager
def _held_heap():
    """Keep the process heap while the block runs: arrays up to
    ``_HELD_BYTES`` come from the heap instead of ``mmap``, and freed memory
    stays there to serve the next union instead of being trimmed and faulted
    in again.  On exit, raised or not, the trim threshold drops back to
    glibc's default and the heap is trimmed, so a pool forked later starts
    from a trimmed parent; the mmap threshold stays, since glibc has no way
    back to its sliding one.  Without glibc it does nothing."""
    if _LIBC is None:
        yield
        return
    _LIBC.mallopt(_M_MMAP_THRESHOLD, _HELD_BYTES)
    _LIBC.mallopt(_M_TRIM_THRESHOLD, _HELD_BYTES)
    try:
        yield
    finally:
        _LIBC.mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
        _LIBC.malloc_trim(0)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters.  The defaults are criterion 9's configuration; the
    model sizes are ``GatParameters``' defaults, whose head count was chosen
    on the quality table of ``quality/run.py``."""

    tau: float = 0.07
    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 40
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
        for name in ("batch_size", "epochs", "L", "H", "hidden"):
            check_integer(getattr(self, name), name)
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")
        if self.L < 1 or self.H < 1 or self.hidden < 1:
            raise ValueError("model sizes L, H and hidden must be positive")


@dataclass(frozen=True)
class TrainSample:
    """One instance's graph plus its positive/negative backdoor index sets;
    construction refuses an empty side, an empty set, an index that is not an
    integer, or one outside the graph."""

    graph: BipartiteGraph
    positives: tuple[tuple[int, ...], ...]
    negatives: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.positives or not self.negatives:
            raise ValueError("it needs a positive and a negative sample")
        n = self.graph.num_vars
        for s in self.positives + self.negatives:
            if not s:
                raise ValueError("sample backdoor is empty")
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
    curve: list[float] = []
    n = len(dataset)
    with _held_heap():
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
                    # Not a BLAS dot: a threaded BLAS leaves spinning threads behind that slow the next batch.
                    norms.append(math.sqrt(float(np.square(grad).sum())))
            curve.append(epoch_loss / n)
            if epoch_log is not None:
                epoch_log.append(
                    {"seconds": time.perf_counter() - t0, "grad_norm": sum(norms) / len(norms)}
                )
    return params, curve
