"""Two-round graph attention scorer over the bipartite MILP graph.

Three 2-layer MLPs embed variable, constraint, and edge features into R^L.
Round 1 updates every constraint from its incident variables, round 2
updates every variable from the updated constraints; both rounds use H
attention heads whose weights are a softmax over the node itself plus its
neighbors, with logits ``w . leaky_relu([theta_recv r, theta_send s,
theta_edge e])`` (the self logit reuses the receiver transform in the sender
slot and a zero edge slot).  A final MLP plus sigmoid yields one score in
(0, 1) per variable.

The model runs once per class of nodes it cannot tell apart, not once per
node (``NodeClasses``, built once per graph).  The embedding MLPs run on the
distinct (bit-equal) feature rows.  Round 1 runs for one representative
constraint per class, where a class is a constraint row plus the multiset
of (variable row, edge row) over its edges; round 2 runs for one
representative variable per class, where a class is a variable row plus the
multiset of (round-1 class, edge row).  A message-passing network gives
every member of such a class the same output (two steps of colour
refinement), so the scores are gathered back to all variables and the cost
per sample scales with classes rather than nodes.  MILP graphs are highly
symmetric: over 60 GISP-25 graphs, 1.1% of the constraint rows and 22% of
the variable rows are distinct, and round 1 runs for 47% of the
constraints, round 2 for 85% of the variables.

The forward pass and its backward pass are plain numpy, with no autodiff
tape.  ``score_graph`` runs the embedding MLPs, the two rounds, the output
MLP, the sigmoid and the gather to all variables, keeps what its backward
pass needs, and returns that pass as a function which adds every
parameter's gradient into a named view of one flat buffer
(``GatParameters.views``), one addition per array.  A round computes the
three head transforms, the leaky logits, the softmax over each
neighborhood, and the messages, aggregated densely by scattering the edge
weights into an (H, sender classes, receiver classes) block and multiplying
it by the sender transforms per head.  Its backward is the softmax Jacobian
per neighborhood, the block's two products, segment sums back to own rows,
senders and edge rows, and the transforms' gradients.  Over 60 GISP-25
graphs the two rounds' edge blocks hold about 2,000 floats per head together.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from ..features import (
    NUM_CONS_FEATURES,
    NUM_EDGE_FEATURES,
    NUM_VAR_FEATURES,
    BipartiteGraph,
)
from ..milp import check_integer
from ..search import Backdoor

LEAKY_SLOPE = 0.2

CHECKPOINT_MAGIC = b"BDLGAT"
CHECKPOINT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a checkpoint file cannot be loaded."""


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform within the glorot limit of the last two dimensions, so that each
    head of an (H, L, L) transform is drawn like an (L, L) matrix."""
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def _layout(L: int, H: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for tag, width in (("var", NUM_VAR_FEATURES), ("cons", NUM_CONS_FEATURES), ("edge", NUM_EDGE_FEATURES)):
        shapes[f"emb_{tag}_w1"] = (width, hidden)
        shapes[f"emb_{tag}_b1"] = (hidden,)
        shapes[f"emb_{tag}_w2"] = (hidden, L)
        shapes[f"emb_{tag}_b2"] = (L,)
    for rnd in (1, 2):
        for part in ("c", "v", "e"):
            shapes[f"att{rnd}_theta_{part}"] = (H, L, L)
        shapes[f"att{rnd}_w"] = (H, 3 * L)
    shapes.update(out_w1=(L, hidden), out_b1=(hidden,), out_w2=(hidden, 1), out_b2=(1,))
    return shapes


@dataclass
class GatParameters:
    """All learnable arrays: one contiguous float64 vector and named views into it.

    ``vector`` holds the arrays in initialization order; ``arrays`` maps each
    name to its view, so an element write through either (``vector[i] = ...``
    or ``arrays[k][...] = ...``) is a write to both.  Write entries of
    ``arrays`` in place: assigning a new array to a key replaces the view,
    and ``vector`` no longer sees it.  A missing ``vector`` starts as zeros.
    """

    # The default model size, stated only here: ``TrainConfig`` and the CLI
    # take theirs from these fields.  H was chosen on the quality table of
    # ``quality/run.py`` (``quality/run.json``).
    L: int = 64
    H: int = 1
    hidden: int = 64
    vector: np.ndarray | None = None
    arrays: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.vector is None:
            sizes = (int(np.prod(shape)) for shape in _layout(self.L, self.H, self.hidden).values())
            self.vector = np.zeros(sum(sizes))
        self.arrays = self.views(self.vector)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into a vector with this layout, such as a flat gradient."""
        views, pos = {}, 0
        for name, shape in _layout(self.L, self.H, self.hidden).items():
            size = int(np.prod(shape))
            views[name] = vector[pos : pos + size].reshape(shape)
            pos += size
        return views

    @classmethod
    def init(cls, seed: int = 0, **size: int) -> "GatParameters":
        """Seeded glorot-uniform weights, zero biases; draw order = key order.

        ``size`` holds any of ``L``, ``H`` and ``hidden``; the fields' defaults
        fill in the rest.
        """
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        p = cls(**size)
        w_limit = np.sqrt(6.0 / (3 * p.L + 1))
        for name, view in p.arrays.items():
            if view.ndim == 1:  # biases stay zero
                continue
            if name in ("att1_w", "att2_w"):
                view[...] = rng.uniform(-w_limit, w_limit, size=view.shape)
            else:
                view[...] = _glorot(rng, view.shape)
        return p


@dataclass
class AttentionRecord:
    """Per-round softmax weights: one row of self weights plus edge weights."""

    alpha_self: np.ndarray  # (H, receivers)
    alpha_edge: np.ndarray  # (H, edges)
    receiver_of_edge: np.ndarray  # (edges,)


def leaky_relu_values(x: np.ndarray, slope: float) -> np.ndarray:
    """``max(x, slope * x)``, for ``0 <= slope <= 1``; slope 0 is the relu."""
    return np.maximum(x, slope * x)


def leaky_relu_slopes(x: np.ndarray, slope: float) -> np.ndarray:
    """The leaky relu's derivative at ``x``: 1 above 0 and ``slope`` elsewhere.

    Built by arithmetic on the comparison, not by ``np.where``, whose
    branches are slow on mixed signs.
    """
    factor = np.greater(x, 0.0, out=np.empty(x.shape))
    factor *= 1.0 - slope
    factor += slope
    return factor


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ y``, into ``out`` if given; with a contracted size of 1 it is an
    outer product, done as a broadcast multiply (the same values) rather than
    a stacked gemm."""
    return np.multiply(x, y, out=out) if x.shape[-1] == 1 else np.matmul(x, y, out=out)


class SegmentIndex:
    """An integer index map into ``size`` segments, stably sorted once.

    Gathers read through ``index``; :meth:`sum`, the gather's adjoint, adds
    through it as ``np.add.reduceat`` over the sorted order, one reduction
    per non-empty segment, so a segment's entries reach its reduction in
    index order.  An index that is already sorted is reduced as it stands,
    and when every segment has an entry the reduction is the result itself.
    Build one per index map and reuse it.
    """

    __slots__ = ("index", "size", "order", "starts", "present", "full")

    def __init__(self, index, size: int):
        self.index = np.asarray(index, dtype=np.int64).reshape(-1)
        self.size = int(size)
        if np.all(self.index[1:] >= self.index[:-1]):
            self.order, ranked = None, self.index  # the stable sort is the identity
        else:
            self.order = np.argsort(self.index, kind="stable")
            ranked = self.index[self.order]
        if ranked.size and (ranked[0] < 0 or ranked[-1] >= self.size):
            raise IndexError(f"segment index out of range [0, {self.size})")
        first = np.ones(ranked.size, dtype=bool)  # first entry of each segment
        first[1:] = ranked[1:] != ranked[:-1]
        self.starts = np.flatnonzero(first)
        self.present = ranked[self.starts]
        self.full = 0 < self.present.size == self.size  # no segment is empty

    def _reduce(self, ufunc, x: np.ndarray, axis: int) -> np.ndarray:
        if self.order is not None:
            x = np.take(x, self.order, axis=axis)
        return ufunc.reduceat(x, self.starts, axis=axis, dtype=np.float64)

    def sum(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Slices of ``x`` along ``axis`` added per segment; empty segments are 0."""
        if self.full:
            return self._reduce(np.add, x, axis)
        shape = list(x.shape)
        shape[axis] = self.size
        out = np.zeros(shape)
        if self.index.size:
            out[(slice(None),) * axis + (self.present,)] = self._reduce(np.add, x, axis)
        return out

    def maximum(self, floor: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Per-segment maximum of ``x`` and ``floor`` (which has the segment shape).

        Empty segments keep ``floor``; this equals ``np.maximum.at`` into a
        copy of ``floor``.
        """
        if self.full:
            top = self._reduce(np.maximum, x, axis)
            return np.maximum(floor, top, out=top)
        out = np.array(floor, dtype=np.float64)
        if self.index.size:
            sel = (slice(None),) * axis + (self.present,)
            out[sel] = np.maximum(out[sel], self._reduce(np.maximum, x, axis))
        return out


def _mlp(x: np.ndarray, a: dict[str, np.ndarray], tag: str):
    """The 2-layer relu MLP ``tag``; returns its output and its backward pass.

    ``backward(g, grads)`` adds the gradients of the four ``tag`` arrays
    into ``grads`` and returns the gradient of ``x``.
    """
    w1, b1, w2, b2 = (a[f"{tag}_{part}"] for part in ("w1", "b1", "w2", "b2"))
    pre = np.matmul(x, w1) + b1
    h = leaky_relu_values(pre, 0.0)
    out = np.matmul(h, w2) + b2

    def backward(g: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
        grads[f"{tag}_w2"] += _product(h.T, g)
        grads[f"{tag}_b2"] += g.sum(axis=0)
        d_pre = _product(g, w2.T) * leaky_relu_slopes(pre, 0.0)
        grads[f"{tag}_w1"] += _product(x.T, d_pre)
        grads[f"{tag}_b1"] += d_pre.sum(axis=0)
        return _product(d_pre, w1.T)

    return out, backward


def _row_classes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's class among the bit-equal rows of ``x``, and each class's first row.

    Rows are compared exactly, as bytes.  Classes are numbered in the order
    of their first rows, so all-distinct rows get classes ``0 .. len(x) - 1``.
    """
    x = np.ascontiguousarray(x)
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.reshape(-1)], first[order]


@dataclass(frozen=True)
class _Round:
    """One round's receivers grouped into classes; each class runs through one representative.

    The round's edges are the representatives' edges, class by class, each
    representative's sorted by (sender, edge row).
    """

    own: SegmentIndex | None  # class -> its receivers' own row; None when that is the identity
    member: np.ndarray | None  # (own rows, classes), 1 where the class has that own row; None with own
    recv: SegmentIndex  # round edge -> receiver class
    send: SegmentIndex  # round edge -> sender
    edge_row: SegmentIndex  # round edge -> distinct edge-feature row
    pair: SegmentIndex  # round edge -> its (sender, receiver class) cell of the dense block
    node_class: np.ndarray  # each receiver node's class
    edge_slot: np.ndarray  # each graph edge's round edge: the same position in its representative


def _refine(own, num_own, recv, send, num_send, edge_row, num_rows) -> _Round:
    """Group receivers by their own row and the sorted multiset of their edges' (sender, edge row).

    ``own`` holds each receiver's own-row class; ``recv``, ``send`` and
    ``edge_row`` hold each graph edge's receiver, sender class and edge-row
    class.  The sorted multisets are padded with -1 into one integer row per
    receiver and compared exactly.
    """
    N, E = own.size, recv.size
    code = send * num_rows + edge_row  # orders edges by (sender, edge row)
    order = np.lexsort((code, recv))
    ranked = recv[order]
    deg = np.bincount(recv, minlength=N)
    start = np.cumsum(deg) - deg
    pos = np.arange(E) - start[ranked]  # each sorted edge's position among its receiver's
    sig = np.full((N, 1 + deg.max(initial=0)), -1, dtype=np.int64)
    sig[:, 0] = own
    sig[ranked, 1 + pos] = code[order]
    node_class, reps = _row_classes(sig)
    K = reps.size
    counts = deg[reps]
    offset = np.cumsum(counts) - counts
    rep_recv = np.repeat(np.arange(K), counts)
    picked = order[start[reps][rep_recv] + np.arange(rep_recv.size) - offset[rep_recv]]
    edge_slot = np.empty(E, dtype=np.int64)
    edge_slot[order] = offset[node_class[ranked]] + pos
    identity = K == num_own
    return _Round(
        own=None if identity else SegmentIndex(own[reps], num_own),
        member=None if identity else np.equal.outer(np.arange(num_own), own[reps]).astype(np.float64),
        recv=SegmentIndex(rep_recv, K),
        send=SegmentIndex(send[picked], num_send),
        edge_row=SegmentIndex(edge_row[picked], num_rows),
        pair=SegmentIndex(send[picked] * K + rep_recv, num_send * K),
        node_class=node_class,
        edge_slot=edge_slot,
    )


@dataclass(frozen=True)
class NodeClasses:
    """The graph's nodes grouped into classes that the attention model cannot tell apart.

    Inputs are the distinct (bit-equal) feature rows.  A round-1 class is a
    constraint row plus the multiset of (variable row, edge row) over the
    constraint's edges; a round-2 class is a variable row plus the multiset
    of (round-1 class, edge row).  This is two steps of colour refinement,
    and the model gives every member of a class the same output.  Built
    once per graph, as ``BipartiteGraph.node_classes``.
    """

    var_rows: np.ndarray  # distinct variable-feature rows
    cons_rows: np.ndarray  # distinct constraint-feature rows
    edge_rows: np.ndarray  # distinct edge-feature rows
    round1: _Round  # constraints, with the variable rows as senders
    round2: _Round  # variables, with the round-1 classes as senders
    var_class: SegmentIndex | None  # variable -> round-2 class; None when that is the identity

    @classmethod
    def of(cls, graph: BipartiteGraph) -> "NodeClasses":
        edges = graph.edges
        var_row, var_first = _row_classes(graph.var_feats)
        cons_row, cons_first = _row_classes(graph.cons_feats)
        edge_row, edge_first = _row_classes(graph.edge_feats)
        Uv, Ue = var_first.size, edge_first.size
        round1 = _refine(cons_row, cons_first.size, edges[:, 0], var_row[edges[:, 1]], Uv, edge_row, Ue)
        K1 = round1.recv.size
        round2 = _refine(var_row, Uv, edges[:, 1], round1.node_class[edges[:, 0]], K1, edge_row, Ue)
        K2 = round2.recv.size
        return cls(
            var_rows=graph.var_feats[var_first],
            cons_rows=graph.cons_feats[cons_first],
            edge_rows=graph.edge_feats[edge_first],
            round1=round1,
            round2=round2,
            var_class=None if K2 == graph.num_vars else SegmentIndex(round2.node_class, K2),
        )


def _attention_round(Xr, Xs, Xe, theta_r, theta_s, theta_e, w, rnd: _Round):
    """One message-passing round over receiver classes; returns (new class
    embeddings, weights, backward).

    ``Xr`` holds one embedding per distinct own row of the receivers, ``Xs``
    one per sender and ``Xe`` one per distinct edge row; ``rnd`` maps them to
    the round's classes and edges.  The weights are the ``(H, classes)`` self
    and ``(H, round edges)`` edge softmax weights.  ``backward(g, d_params,
    buf)`` takes the gradient of the new embeddings, adds those of the four
    parameters into ``d_params`` (arrays shaped like ``theta_r``,
    ``theta_s``, ``theta_e`` and ``w``, in order) and returns those of the
    three embedding inputs.  The theta gradients are formed one at a time in
    ``buf``, an ``(H, L, L)`` scratch array.

    The neighbor messages are ``block.T @ Ts`` per head, where ``block`` is
    the dense ``(H, S, K)`` attention matrix with each edge's weight summed
    into its (sender, receiver class) cell, so a repeated pair adds up as
    separate edges would.  It costs ``H * K * S`` floats, forward and
    backward.  The self messages weight each class's own-row transform
    elementwise.  The products stay stacked per head: at GISP-25 sizes one
    gemm over all heads passes OpenBLAS's threading threshold, and its second
    thread doubles the CPU time for no gain.
    """
    H, L = theta_r.shape[:2]
    w3 = w.reshape(H, 3, L)  # rows: parts a, b, c
    wt = np.swapaxes(w3, 1, 2)
    own, recv, send, edge_row, pair = rnd.own, rnd.recv, rnd.send, rnd.edge_row, rnd.pair
    K, S = recv.size, send.size

    Tr = np.matmul(Xr, theta_r)  # (H, own rows, L)
    Ts = np.matmul(Xs, theta_s)  # (H, S, L)
    Te = np.matmul(Xe, theta_e)  # (H, U, L), U distinct edge rows
    lr, ls, le = (leaky_relu_values(T, LEAKY_SLOPE) for T in (Tr, Ts, Te))
    # Logits ``w . leaky([recv, send, edge])``: an own row takes part a as
    # the receiver and part b as its own sender.
    t_ab = np.matmul(lr, wt[:, :, :2])  # (H, own rows, 2)
    t_send = np.matmul(ls, wt[:, :, 1:2])[..., 0]  # (H, S)
    t_edge = np.matmul(le, wt[:, :, 2:])[..., 0]  # (H, U)
    if own is not None:  # from own rows to receiver classes
        t_ab = t_ab.take(own.index, axis=1)
    t_recv = t_ab[..., 0]
    self_logit = t_recv + t_ab[..., 1]  # (H, K)
    edge_logit = (
        t_recv.take(recv.index, axis=1)
        + t_send.take(send.index, axis=1)
        + t_edge.take(edge_row.index, axis=1)
    )  # (H, E)

    # The per-neighborhood max keeps the softmax finite; the softmax is
    # shift invariant, so it carries no gradient.
    mx = recv.maximum(self_logit, edge_logit, axis=1)
    exp_self = np.exp(self_logit - mx)
    exp_edge = np.exp(edge_logit - mx.take(recv.index, axis=1))
    denom = exp_self + recv.sum(exp_edge, axis=1)
    alpha_self = exp_self / denom  # (H, K)
    alpha_edge = exp_edge / denom.take(recv.index, axis=1)  # (H, E)

    block = pair.sum(alpha_edge, axis=1).reshape(H, S, K)
    Tk = Tr if own is None else Tr.take(own.index, axis=1)  # (H, K, L)
    out = np.matmul(np.swapaxes(block, 1, 2), Ts).sum(axis=0)
    out += np.einsum("hk,hkl->kl", alpha_self, Tk)
    out *= 1.0 / H  # (K, L), the mean over heads

    def backward(g, d_params, buf):
        g = g * (1.0 / H)  # each head's share of the mean
        # The messages and their weights.
        dTs = np.matmul(block, g)  # (H, S, L)
        d_edge = np.matmul(Ts, g.T).reshape(H, S * K).take(pair.index, axis=1)  # d alpha_edge
        d_self = np.einsum("hkl,kl->hk", Tk, g)  # d alpha_self
        if own is None:
            dTr = alpha_self[..., None] * g  # (H, K, L)
        else:  # summed to own rows
            dTr = np.matmul(rnd.member * alpha_self[:, None, :], g)  # (H, own rows, L)
        # Softmax over each neighborhood {self, its edges}.
        dot = d_self * alpha_self + recv.sum(d_edge * alpha_edge, axis=1)
        dl_self = alpha_self * (d_self - dot)  # d self_logit, (H, K)
        dl_edge = alpha_edge * (d_edge - dot.take(recv.index, axis=1))  # d edge_logit, (H, E)
        dt_ab = np.stack((dl_self + recv.sum(dl_edge, axis=1), dl_self), axis=1)  # (H, 2, K)
        if own is not None:
            dt_ab = own.sum(dt_ab, axis=2)
        dt_send = send.sum(dl_edge, axis=1)[:, None, :]  # (H, 1, S)
        dt_edge = edge_row.sum(dl_edge, axis=1)[:, None, :]  # (H, 1, U)
        # Logits: t = leaky(T) @ w per head.
        kr, ks, ke = (leaky_relu_slopes(T, LEAKY_SLOPE) for T in (Tr, Ts, Te))
        dTr += np.matmul(np.swapaxes(dt_ab, 1, 2), w3[:, :2]) * kr
        dTs += np.swapaxes(dt_send, 1, 2) * w3[:, None, 1] * ks
        dTe = np.swapaxes(dt_edge, 1, 2) * w3[:, None, 2] * ke
        dw = np.empty((H, 3, L))
        np.matmul(dt_ab, lr, out=dw[:, :2])
        dw[:, 1:2] += np.matmul(dt_send, ls)
        np.matmul(dt_edge, le, out=dw[:, 2:])
        # The head transforms x @ theta, x shared by every head.
        inputs = ((Xr, theta_r, dTr), (Xs, theta_s, dTs), (Xe, theta_e, dTe))
        for (x, _, dT), d_theta in zip(inputs, d_params):
            d_theta += _product(x.T, dT, out=buf)
        d_params[3] += dw.reshape(H, 3 * L)
        return [np.matmul(dT, np.swapaxes(theta, 1, 2)).sum(axis=0) for _, theta, dT in inputs]

    return out, (alpha_self, alpha_edge), backward


def _record(weights, rnd: _Round, receiver_of_edge: np.ndarray) -> AttentionRecord:
    """Per-class weights expanded to every receiver and every graph edge."""
    alpha_self, alpha_edge = weights
    return AttentionRecord(
        alpha_self=alpha_self[:, rnd.node_class],
        alpha_edge=alpha_edge[:, rnd.edge_slot],
        receiver_of_edge=receiver_of_edge,
    )


def score_graph(arrays: dict[str, np.ndarray], graph: BipartiteGraph, collect_attention: bool = False):
    """Forward pass; returns (scores (n,), records, backward).

    ``arrays`` holds the parameters by name (``GatParameters.arrays``).  Each
    round runs once per node class (``graph.node_classes``) and the scores
    are gathered back to every variable.  ``backward(d_scores, grads)`` adds
    the gradient of ``d_scores . scores`` with respect to every parameter
    into the array of the same name in ``grads``, one addition per array.
    The graph's features are constants.
    """
    a = arrays
    nc = graph.node_classes
    V1, var_bw = _mlp(nc.var_rows, a, "emb_var")
    C1, cons_bw = _mlp(nc.cons_rows, a, "emb_cons")
    E1, edge_bw = _mlp(nc.edge_rows, a, "emb_edge")
    rounds = (
        ("att1_theta_c", "att1_theta_v", "att1_theta_e", "att1_w"),  # receivers, senders, edges
        ("att2_theta_v", "att2_theta_c", "att2_theta_e", "att2_w"),
    )
    C2, weights1, round1_bw = _attention_round(C1, V1, E1, *(a[k] for k in rounds[0]), nc.round1)
    V2, weights2, round2_bw = _attention_round(V1, C2, E1, *(a[k] for k in rounds[1]), nc.round2)
    logits, out_bw = _mlp(V2, a, "out")  # one row per round-2 class
    x = logits[:, 0]
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0.0, 1.0, e) / (1.0 + e)  # the sigmoid, without overflow
    scores = s if nc.var_class is None else s.take(nc.var_class.index)

    def backward(d_scores: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        d = d_scores if nc.var_class is None else nc.var_class.sum(d_scores)
        dV2 = out_bw((d * s * (1.0 - s))[:, None], grads)
        buf = np.empty(a["att1_theta_c"].shape)  # both rounds' theta gradients, in turn
        dV1, dC2, dE1 = round2_bw(dV2, [grads[k] for k in rounds[1]], buf)
        dC1, dV1_send, dE1_send = round1_bw(dC2, [grads[k] for k in rounds[0]], buf)
        var_bw(dV1 + dV1_send, grads)
        cons_bw(dC1, grads)
        edge_bw(dE1 + dE1_send, grads)

    records = None
    if collect_attention:
        records = [
            _record(weights1, nc.round1, graph.edges[:, 0]),
            _record(weights2, nc.round2, graph.edges[:, 1]),
        ]
    return scores, records, backward


def gat_forward(
    params: GatParameters, graph: BipartiteGraph, collect_attention: bool = False
):
    """Inference: per-variable scores in (0, 1) as a plain array.

    With ``collect_attention`` the per-round softmax weights come back too.
    """
    scores, records, _ = score_graph(params.arrays, graph, collect_attention)
    return (scores, records) if collect_attention else scores


def greedy_select(scores: np.ndarray, binary_mask: np.ndarray, K: int) -> Backdoor:
    """The K highest-scoring binary variables; ties go to the lowest index.

    Raises ``ValueError`` on a NaN or infinite score, which no ranking orders.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    binary = np.flatnonzero(np.asarray(binary_mask, dtype=bool))
    if not np.isfinite(scores).all():
        raise ValueError(f"scores must be finite, got {scores[~np.isfinite(scores)][:3].tolist()}")
    if K < 1:
        raise ValueError(f"K={K} must be at least 1")
    if K > binary.size:
        raise ValueError(f"K={K} exceeds the {binary.size} binary variables")
    order = sorted(binary.tolist(), key=lambda j: (-scores[j], j))
    return Backdoor(tuple(sorted(order[:K])))


def save_model(params: GatParameters, path) -> None:
    """Magic + version byte + JSON shape header + raw little-endian float64."""
    names = sorted(params.arrays)
    header = {
        "L": params.L,
        "H": params.H,
        "hidden": params.hidden,
        "arrays": [[k, list(params.arrays[k].shape)] for k in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for k in names:
            fh.write(np.ascontiguousarray(params.arrays[k], dtype="<f8").tobytes())


def load_model(path) -> GatParameters:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 5 or not raw.startswith(CHECKPOINT_MAGIC):
        raise ModelFormatError("corrupted checkpoint header")
    off = len(CHECKPOINT_MAGIC)
    version = raw[off]
    if version != CHECKPOINT_VERSION:
        raise ModelFormatError(
            f"checkpoint format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    (hlen,) = struct.unpack_from("<I", raw, off + 1)
    hstart = off + 5
    try:
        header = json.loads(raw[hstart : hstart + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupted checkpoint header: {exc}") from None
    try:
        L, H, hidden = (check_integer(header[k], f"checkpoint size {k}", 1) for k in ("L", "H", "hidden"))
        listed = {
            name: tuple(check_integer(shape, f"checkpoint array {name!r} shape", each=True))
            for name, shape in header["arrays"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupted checkpoint header: {exc!r}") from None
    if len(listed) != len(header["arrays"]):
        raise ModelFormatError("checkpoint lists an array twice")
    expected = _layout(L, H, hidden)
    for name in sorted(expected.keys() | listed.keys()):
        if name not in listed:
            raise ModelFormatError(f"checkpoint lacks array {name!r}")
        if name not in expected:
            raise ModelFormatError(f"checkpoint has unknown array {name!r}")
        if listed[name] != expected[name]:
            raise ModelFormatError(
                f"checkpoint array {name!r} has shape {listed[name]}, expected {expected[name]}"
            )
    params = GatParameters(L=L, H=H, hidden=hidden)
    pos = hstart + hlen
    for name in listed:  # the header's order is the data's order
        shape = expected[name]
        nbytes = 8 * int(np.prod(shape))
        if pos + nbytes > len(raw):
            raise ModelFormatError(f"truncated checkpoint: array {name!r} incomplete")
        params.arrays[name][...] = np.frombuffer(raw[pos : pos + nbytes], dtype="<f8").reshape(shape)
        pos += nbytes
    if pos != len(raw):
        raise ModelFormatError("trailing bytes after checkpoint arrays")
    return params
