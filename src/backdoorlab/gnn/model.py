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
tape, and run over the disjoint union of one or more graphs
(``score_union``; ``score_graph`` is the union of one).  ``NodeClasses.union``
concatenates the graphs' distinct rows and class indices with offsets and
sorts nothing again, so every segment sum adds the same entries in the same
order as for its graph alone.  The pass runs the embedding MLPs, the two
rounds, the output MLP, the sigmoid and the gather to all variables once
over the union, keeps what its backward pass needs, and returns that pass
as a function which adds every parameter's gradient into a named view of
one flat buffer (``GatParameters.views``), one addition per array.  A round
computes the three head transforms, the leaky logits, the softmax over each
neighborhood, and the messages: each graph's edge weights are scattered into
a dense (H, sender classes, receiver classes) block, the blocks of all
graphs are stacked, zero-padded to the largest (``_Blocks``), and multiplied
by the stacked sender transforms in one product.  Its backward is the
softmax Jacobian per neighborhood, the blocks' two products, segment sums
back to own rows, senders and edge rows, and the transforms' gradients.  No
array spans the union squared: the stack grows with the number of graphs
times the largest graph's block.  Over 60 GISP-25 graphs the two rounds'
edge blocks hold about 2,000 floats per head together.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..features import (
    NUM_CONS_FEATURES,
    NUM_EDGE_FEATURES,
    NUM_VAR_FEATURES,
    BipartiteGraph,
)
from ..inputs import check_integer, parse_json
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

    def __reduce__(self):  # pickle the vector alone; the copy's arrays are views of it again
        return type(self), (self.L, self.H, self.hidden, self.vector)

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
    out = np.multiply(x, slope)
    return np.maximum(x, out, out=out)


def leaky_relu_slopes(x: np.ndarray, slope: float) -> np.ndarray:
    """The leaky relu's derivative at ``x``: 1 above 0 and ``slope`` elsewhere.

    Built by arithmetic on the comparison, not by ``np.where``, whose
    branches are slow on mixed signs.
    """
    factor = np.greater(x, 0.0, out=np.empty(x.shape))
    factor *= 1.0 - slope
    factor += slope
    return factor


# OpenBLAS runs a matrix product on a second thread from 2**18 multiply-adds
# on, and a matrix-vector product from 9,216 matrix entries on.  Products over
# the rows of a union of graphs pass both, and the second thread then mostly
# waits: train-gisp25's training took twice its one-thread CPU time, and with
# the other core busy 1.46 s of wall time instead of 0.71 s.  So every product
# of the model goes through ``_product``, which keeps each call under these
# limits.
_GEMM_LIMIT, _GEMV_LIMIT = 1 << 18, 1 << 13


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ y`` over the last two axes, into ``out`` if given, in BLAS calls
    that OpenBLAS runs on one thread.

    A product past the limit is cut along its longer side: the rows of ``x``
    into pieces written in place, or the contracted axis into pieces whose
    products are added in order.  With a contracted size of 1 it is an outer
    product, done as a broadcast multiply (the same values).
    """
    *_, M, K = x.shape
    N = y.shape[-1]
    if K == 1:
        return np.multiply(x, y, out=out)
    limit = _GEMV_LIMIT if M == 1 or N == 1 else _GEMM_LIMIT
    if M * K * N <= limit:
        return np.matmul(x, y, out=out)
    if M >= K:
        step = max(1, limit // (K * N))
        if out is None:
            out = np.empty(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (M, N))
        for lo in range(0, M, step):
            np.matmul(x[..., lo : lo + step, :], y, out=out[..., lo : lo + step, :])
        return out
    step = max(1, limit // (M * N))
    out = np.matmul(x[..., :step], y[..., :step, :], out=out)
    for lo in range(step, K, step):
        out += np.matmul(x[..., lo : lo + step], y[..., lo : lo + step, :])
    return out


class SegmentIndex:
    """An integer index map into ``size`` segments, stably sorted once.

    Gathers read through ``index``; :meth:`sum`, the gather's adjoint, adds
    through it as ``np.add.reduceat`` over the sorted order, one reduction
    per non-empty segment, so a segment's entries reach its reduction in
    index order.  An index that is already sorted is reduced as it stands,
    and when every segment has an entry the reduction is the result itself.
    Build one per index map and reuse it; :meth:`concat` joins the maps of
    several graphs without sorting again.
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

    @classmethod
    def concat(cls, groups: list[list["SegmentIndex"]]) -> list["SegmentIndex"]:
        """The disjoint union of each group's parts, all groups in one pass.

        Entries and segments of each part follow those of the part before,
        and nothing is sorted again, so each segment is reduced over the same
        entries in the same order as in its part.  Every group has one part
        per graph of the union.
        """
        fields, united = [], []
        for parts in groups:
            lengths = [p.index.size for p in parts]
            sizes = [p.size for p in parts]
            fields += [([p.index for p in parts], sizes), ([p.present for p in parts], sizes)]
            fields.append(([p.starts for p in parts], lengths))
            in_order = all(p.order is None for p in parts)
            if not in_order:
                orders = [np.arange(n) if p.order is None else p.order for p, n in zip(parts, lengths)]
                fields.append((orders, lengths))
            united.append((sum(sizes), in_order))
        arrays = iter(_shifted(fields))
        out = []
        for size, in_order in united:
            u = cls.__new__(cls)
            u.index, u.present, u.starts = next(arrays), next(arrays), next(arrays)
            u.order = None if in_order else next(arrays)
            u.size = size
            u.full = 0 < u.present.size == size
            out.append(u)
        return out

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


def _shifted(fields: list[tuple[list[np.ndarray], list[int]]]) -> list[np.ndarray]:
    """Each ``(arrays, spans)`` field's arrays concatenated, each array shifted
    by the sum of the spans before its own; one concatenation serves every
    field, and every field has as many arrays as the first."""
    spans = np.array([s for _, s in fields], dtype=np.int64)
    offsets = (np.cumsum(spans, axis=1) - spans).reshape(-1)
    arrays = [a for field, _ in fields for a in field]
    counts = [a.size for a in arrays]
    flat = np.concatenate(arrays) + np.repeat(offsets, counts)
    ends = list(itertools.accumulate(counts))[len(fields[0][0]) - 1 :: len(fields[0][0])]
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _mlp(x: np.ndarray, a: dict[str, np.ndarray], tag: str, features: bool = False):
    """The 2-layer relu MLP ``tag``; returns its output and its backward pass.

    ``backward(g, grads)`` adds the gradients of the four ``tag`` arrays
    into ``grads`` and returns the gradient of ``x``, or None when ``x``
    holds ``features``, which are constants.
    """
    w1, b1, w2, b2 = (a[f"{tag}_{part}"] for part in ("w1", "b1", "w2", "b2"))
    pre = _product(x, w1)
    pre += b1
    h = leaky_relu_values(pre, 0.0)
    del pre
    out = _product(h, w2)
    out += b2

    def backward(g: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
        grads[f"{tag}_w2"] += _product(h.T, g)
        grads[f"{tag}_b2"] += g.sum(axis=0)
        d_pre = leaky_relu_slopes(h, 0.0)  # the relu keeps the sign
        d_pre *= _product(g, w2.T)
        grads[f"{tag}_w1"] += _product(x.T, d_pre)
        grads[f"{tag}_b1"] += d_pre.sum(axis=0)
        return None if features else _product(d_pre, w1.T)

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


def _slots(counts: list[int], width: int) -> np.ndarray:
    """Each item's position in a stack of ``len(counts)`` runs of ``width``
    places, where run ``i`` starts with the ``counts[i]`` items of part ``i``."""
    offsets = np.cumsum(counts) - counts
    return np.arange(sum(counts)) + np.repeat(np.arange(len(counts)) * width - offsets, counts)


@dataclass(frozen=True)
class _Blocks:
    """One round's dense (sender, receiver class) blocks, one per graph, stacked.

    Every graph's block is zero-padded to the most senders, classes and own
    rows of any graph in the stack (``shape``: graphs, senders, classes, own
    rows), so one stacked product serves them all.  The slots place each
    sender, class and own row at its row of the padded stack; they are None
    for one graph, whose stack is the graph itself.
    """

    shape: tuple[int, int, int, int]
    cell: np.ndarray  # round edge -> its (graph, sender, class) cell of the stack, flat
    member: np.ndarray | None  # (graphs, own rows, classes): 1 where the class has that own row
    send_slot: np.ndarray | None
    recv_slot: np.ndarray | None
    own_slot: np.ndarray | None

    @classmethod
    def of(cls, sends: list[SegmentIndex], recvs: list[SegmentIndex], owns: list) -> "_Blocks":
        """The stack of the graphs whose rounds have these ``send``, ``recv``
        and ``own`` indices (an own index may be None, the identity)."""
        senders = [i.size for i in sends]
        classes = [i.size for i in recvs]
        own_rows = [k if i is None else i.size for i, k in zip(owns, classes)]
        B, S, K, R = len(sends), max(senders), max(classes), max(own_rows)
        graph = np.repeat(np.arange(B), [i.index.size for i in recvs])
        local_send = np.concatenate([i.index for i in sends])
        local_recv = np.concatenate([i.index for i in recvs])
        member = None
        if any(i is not None for i in owns):
            local_own = np.concatenate([
                np.arange(k) if i is None else i.index for i, k in zip(owns, classes)
            ])
            graph_of_class = np.repeat(np.arange(B), classes)
            local_class = _slots(classes, K) - graph_of_class * K
            own_cell = (graph_of_class * R + local_own) * K + local_class
            member = np.zeros(B * R * K)
            member[own_cell] = 1.0
            member = member.reshape(B, R, K)
        one = B == 1
        return cls(
            shape=(B, S, K, R),
            cell=(graph * S + local_send) * K + local_recv,
            member=member,
            send_slot=None if one else _slots(senders, S),
            recv_slot=None if one else _slots(classes, K),
            own_slot=None if one or member is None else _slots(own_rows, R),
        )


def _stack(x: np.ndarray, slot: np.ndarray | None, rows: int, axis: int) -> np.ndarray:
    """``x`` with its entries along ``axis`` placed at ``slot`` of ``rows``
    zero entries; ``x`` itself when ``slot`` is None."""
    if slot is None:
        return x
    shape = list(x.shape)
    shape[axis] = rows
    out = np.zeros(shape)
    out[(slice(None),) * axis + (slot,)] = x
    return out


def _head_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)``; with one head, that head itself, not a copy."""
    return x[0] if len(x) == 1 else x.sum(axis=0)


def _unstack(x: np.ndarray, slot: np.ndarray | None, axis: int) -> np.ndarray:
    """The entries of ``x`` along ``axis`` at ``slot``: the adjoint of :func:`_stack`."""
    return x if slot is None else x.take(slot, axis=axis)


@dataclass(frozen=True)
class _Round:
    """One round's receivers grouped into classes; each class runs through one representative.

    The round's edges are the representatives' edges, class by class, each
    representative's sorted by (sender, edge row).  A round of a disjoint
    union (``NodeClasses.union``) holds the rounds of its graphs one after
    another.
    """

    own: SegmentIndex | None  # class -> its receivers' own row; None when that is the identity
    recv: SegmentIndex  # round edge -> receiver class
    send: SegmentIndex  # round edge -> sender
    edge_row: SegmentIndex  # round edge -> distinct edge-feature row
    blocks: _Blocks  # the attention blocks of its graphs, stacked
    # Per graph only (None in a union of several): each receiver node's class,
    # and each graph edge's round edge, the same position in its representative.
    node_class: np.ndarray | None
    edge_slot: np.ndarray | None


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
    own_index = None if K == num_own else SegmentIndex(own[reps], num_own)
    recv_index = SegmentIndex(rep_recv, K)
    send_index = SegmentIndex(send[picked], num_send)
    return _Round(
        own=own_index,
        recv=recv_index,
        send=send_index,
        edge_row=SegmentIndex(edge_row[picked], num_rows),
        blocks=_Blocks.of([send_index], [recv_index], [own_index]),
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

    @classmethod
    def union(cls, parts: list["NodeClasses"]) -> "NodeClasses":
        """The classes of the disjoint union of the graphs of ``parts``, in order.

        Rows, classes and edges of each graph follow those of the graph
        before it, and every index is shifted to match; one graph is its
        own union.  A class never spans two graphs, so every graph's scores
        are as they are alone, up to the float order of the products over
        the union's rows.  The rounds keep no node classes or edge slots,
        which only a single graph's attention records read.
        """
        if len(parts) == 1:
            return parts[0]
        rounds = ([p.round1 for p in parts], [p.round2 for p in parts])
        groups = []
        for rs in rounds:
            groups += [
                _with_identities([r.own for r in rs], [r.recv.size for r in rs]),
                [r.recv for r in rs],
                [r.send for r in rs],
                [r.edge_row for r in rs],
            ]
        groups.append(_with_identities([p.var_class for p in parts], [p.round2.recv.size for p in parts]))
        united = iter(SegmentIndex.concat([g for g in groups if g is not None]))
        own1, recv1, send1, edge1, own2, recv2, send2, edge2, var_class = (
            None if g is None else next(united) for g in groups
        )

        def round_of(rs, own, recv, send, edge_row):
            blocks = _Blocks.of([r.send for r in rs], [r.recv for r in rs], [r.own for r in rs])
            return _Round(own, recv, send, edge_row, blocks, node_class=None, edge_slot=None)

        return cls(
            var_rows=np.concatenate([p.var_rows for p in parts]),
            cons_rows=np.concatenate([p.cons_rows for p in parts]),
            edge_rows=np.concatenate([p.edge_rows for p in parts]),
            round1=round_of(rounds[0], own1, recv1, send1, edge1),
            round2=round_of(rounds[1], own2, recv2, send2, edge2),
            var_class=var_class,
        )


def _with_identities(indexes: list, sizes: list[int]) -> list[SegmentIndex] | None:
    """``indexes`` with each None (an identity map of that size) made
    explicit; None when every one is None."""
    if all(i is None for i in indexes):
        return None
    return [SegmentIndex(np.arange(k), k) if i is None else i for i, k in zip(indexes, sizes)]


def _attention_round(Xr, Xs, Xe, theta_r, theta_s, theta_e, w, rnd: _Round):
    """One message-passing round over receiver classes; returns (new class
    embeddings, weights, backward).

    ``Xr`` holds one embedding per distinct own row of the receivers, ``Xs``
    one per sender and ``Xe`` one per distinct edge row; ``rnd`` maps them to
    the round's classes and edges.  The weights are the ``(H, classes)`` self
    and ``(H, round edges)`` edge softmax weights.  ``backward(g,
    d_params)`` takes the gradient of the new embeddings, adds those of the
    four parameters into ``d_params`` (arrays shaped like ``theta_r``,
    ``theta_s``, ``theta_e`` and ``w``, in order) and returns those of the
    three embedding inputs.

    The neighbor messages come from each graph's dense ``(H, senders,
    classes)`` attention block, with each edge's weight summed into its
    (sender, receiver class) cell, so a repeated pair adds up as separate
    edges would.  The blocks of the union's graphs are stacked, zero-padded
    to the largest (``rnd.blocks``), and multiplied by the stacked sender
    transforms graph by graph in one call; that costs ``H`` times the graphs
    times the most senders times the most classes floats, forward and
    backward, and the backward pass builds the stacks again rather than keep
    them.  The self messages weight each class's own-row transform
    elementwise.
    """
    H, L = theta_r.shape[:2]
    w3 = w.reshape(H, 3, L)  # rows: parts a, b, c
    wt = np.swapaxes(w3, 1, 2)
    own, recv, send, edge_row, blk = rnd.own, rnd.recv, rnd.send, rnd.edge_row, rnd.blocks

    Tr = _product(Xr, theta_r)  # (H, own rows, L)
    Ts = _product(Xs, theta_s)  # (H, S, L)
    Te = _product(Xe, theta_e)  # (H, U, L), U distinct edge rows
    lr, ls, le = (leaky_relu_values(T, LEAKY_SLOPE) for T in (Tr, Ts, Te))
    # Logits ``w . leaky([recv, send, edge])``: an own row takes part a as
    # the receiver and part b as its own sender.
    t_ab = _product(lr, wt[:, :, :2])  # (H, own rows, 2)
    t_send = _product(ls, wt[:, :, 1:2])[..., 0]  # (H, S)
    t_edge = _product(le, wt[:, :, 2:])[..., 0]  # (H, U)
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

    # Each edge's weight summed into its (graph, sender, class) cell, so a
    # repeated pair adds up as separate edges would.
    B, Sb, Kb, Rb = blk.shape
    cells = B * Sb * Kb
    where = blk.cell if H == 1 else (blk.cell + cells * np.arange(H)[:, None]).reshape(-1)

    def weight_blocks():  # (H, B, Sb, Kb)
        return np.bincount(where, alpha_edge.reshape(-1), H * cells).reshape(H, B, Sb, Kb)

    def sender_stack():  # (H, B, Sb, L)
        return _stack(Ts, blk.send_slot, B * Sb, axis=1).reshape(H, B, Sb, L)

    def per_class(T):  # (H, own rows, L) -> (H, K, L)
        return T if own is None else T.take(own.index, axis=1)

    heads = _product(np.swapaxes(weight_blocks(), 2, 3), sender_stack())  # (H, B, Kb, L)
    out = _unstack(_head_sum(heads).reshape(B * Kb, L), blk.recv_slot, axis=0)
    out += np.einsum("hk,hkl->kl", alpha_self, per_class(Tr))
    if H > 1:
        out *= 1.0 / H  # (K, L), the mean over heads
    del heads, ls  # the backward pass rebuilds what it needs rather than keep them

    def backward(g, d_params):
        if H > 1:
            g = g * (1.0 / H)  # each head's share of the mean
        # The messages and their weights.
        g_stack = _stack(g, blk.recv_slot, B * Kb, axis=0).reshape(B, Kb, L)
        d_block = _product(sender_stack(), np.swapaxes(g_stack, 1, 2))  # (H, B, Sb, Kb)
        d_edge = d_block.reshape(H, cells).take(blk.cell, axis=1)  # d alpha_edge
        del d_block
        dTs = _unstack(_product(weight_blocks(), g_stack).reshape(H, B * Sb, L), blk.send_slot, axis=1)
        d_self = np.einsum("hkl,kl->hk", per_class(Tr), g)  # d alpha_self
        if own is None:
            dTr = alpha_self[..., None] * g  # (H, K, L)
        else:  # summed to own rows
            a_stack = _stack(alpha_self, blk.recv_slot, B * Kb, axis=1).reshape(H, B, 1, Kb)
            dTr = _product(blk.member * a_stack, g_stack).reshape(H, B * Rb, L)
            dTr = _unstack(dTr, blk.own_slot, axis=1)  # (H, own rows, L)
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
        ls = leaky_relu_values(Ts, LEAKY_SLOPE)
        kr, ks, ke = (leaky_relu_slopes(T, LEAKY_SLOPE) for T in (lr, ls, le))  # signs as in T
        kr *= _product(np.swapaxes(dt_ab, 1, 2), w3[:, :2])
        dTr += kr
        step = np.swapaxes(dt_send, 1, 2) * w3[:, None, 1]
        step *= ks
        dTs += step
        del kr, ks, step
        dTe = np.swapaxes(dt_edge, 1, 2) * w3[:, None, 2] * ke
        dw = np.empty((H, 3, L))
        _product(dt_ab, lr, out=dw[:, :2])
        dw[:, 1:2] += _product(dt_send, ls)
        _product(dt_edge, le, out=dw[:, 2:])
        # The head transforms x @ theta, x shared by every head.
        inputs = ((Xr, theta_r, dTr), (Xs, theta_s, dTs), (Xe, theta_e, dTe))
        for (x, _, dT), d_theta in zip(inputs, d_params):
            d_theta += _product(x.T, dT)
        d_params[3] += dw.reshape(H, 3 * L)
        return [_head_sum(_product(dT, np.swapaxes(theta, 1, 2))) for _, theta, dT in inputs]

    return out, (alpha_self, alpha_edge), backward


def _record(weights, rnd: _Round, receiver_of_edge: np.ndarray) -> AttentionRecord:
    """Per-class weights expanded to every receiver and every graph edge."""
    alpha_self, alpha_edge = weights
    return AttentionRecord(
        alpha_self=alpha_self[:, rnd.node_class],
        alpha_edge=alpha_edge[:, rnd.edge_slot],
        receiver_of_edge=receiver_of_edge,
    )


def score_union(arrays: dict[str, np.ndarray], graphs: list[BipartiteGraph]):
    """Forward pass over the disjoint union of ``graphs``; returns (scores,
    weights, backward).

    ``arrays`` holds the parameters by name (``GatParameters.arrays``).  The
    scores are every graph's variables, graph after graph.  Each round runs
    once per node class of the union (``NodeClasses.union`` of the graphs'
    ``node_classes``) and the scores are gathered back to every variable.
    The weights are each round's per-class softmax weights.
    ``backward(d_scores, grads)`` adds the gradient of ``d_scores . scores``
    with respect to every parameter into the array of the same name in
    ``grads``, one addition per array.  The graphs' features are constants.
    """
    a = arrays
    nc = NodeClasses.union([graph.node_classes for graph in graphs])
    V1, var_bw = _mlp(nc.var_rows, a, "emb_var", features=True)
    C1, cons_bw = _mlp(nc.cons_rows, a, "emb_cons", features=True)
    E1, edge_bw = _mlp(nc.edge_rows, a, "emb_edge", features=True)
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
        dV1, dC2, dE1 = round2_bw(dV2, [grads[k] for k in rounds[1]])
        dC1, dV1_send, dE1_send = round1_bw(dC2, [grads[k] for k in rounds[0]])
        var_bw(dV1 + dV1_send, grads)
        cons_bw(dC1, grads)
        edge_bw(dE1 + dE1_send, grads)

    return scores, (weights1, weights2), backward


def score_graph(arrays: dict[str, np.ndarray], graph: BipartiteGraph, collect_attention: bool = False):
    """:func:`score_union` of the one graph; returns (scores (n,), records, backward).

    With ``collect_attention`` the records hold each round's softmax weights
    expanded to every receiver and every graph edge; otherwise they are None.
    """
    scores, (weights1, weights2), backward = score_union(arrays, [graph])
    records = None
    if collect_attention:
        nc = graph.node_classes
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


def _header(L: int, H: int, hidden: int, shapes: dict[str, tuple[int, ...]]) -> bytes:
    """The bytes a checkpoint starts with: magic, version byte, the JSON
    header's length and the JSON header, which lists the arrays by name."""
    header = {"L": L, "H": H, "hidden": hidden, "arrays": [[k, list(shapes[k])] for k in sorted(shapes)]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return CHECKPOINT_MAGIC + struct.pack("<BI", CHECKPOINT_VERSION, len(blob)) + blob


def save_model(params: GatParameters, path) -> None:
    """The header (:func:`_header`), then every array as raw little-endian
    float64, sorted by name."""
    names = sorted(params.arrays)
    with open(path, "wb") as fh:
        fh.write(_header(params.L, params.H, params.hidden, {k: params.arrays[k].shape for k in names}))
        for k in names:
            fh.write(np.ascontiguousarray(params.arrays[k], dtype="<f8").tobytes())


def load_model(path) -> GatParameters:
    """The parameters :func:`save_model` wrote to ``path``.

    The header must be byte for byte the one ``save_model`` writes for the
    sizes it names, and the arrays must fill the rest of the file exactly;
    both are checked before anything is allocated.  Every refusal is a
    ``ModelFormatError`` that starts with the path.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(CHECKPOINT_MAGIC) + 5
    if len(raw) < start or not raw.startswith(CHECKPOINT_MAGIC):
        raise ModelFormatError(f"{path}: corrupted checkpoint header")
    version, hlen = struct.unpack_from("<BI", raw, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise ModelFormatError(
            f"{path}: checkpoint format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    header = parse_json(raw[start : start + hlen], f"{path}: corrupted checkpoint header", ModelFormatError)
    try:
        L, H, hidden = (check_integer(header[k], f"checkpoint size {k}", 1) for k in ("L", "H", "hidden"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: corrupted checkpoint header: {exc!r}") from None
    layout = _layout(L, H, hidden)
    head = _header(L, H, hidden, layout)
    if raw[: len(head)] != head:
        raise ModelFormatError(
            f"{path}: corrupted checkpoint header: not the one save_model writes for L={L}, H={H}, "
            f"hidden={hidden} (the same array names and shapes, in the same bytes)"
        )
    got, want = len(raw) - len(head), 8 * sum(math.prod(shape) for shape in layout.values())
    if got != want:
        raise ModelFormatError(
            f"{path}: checkpoint {'truncated' if got < want else 'has trailing bytes'}: "
            f"{got} bytes of arrays, expected {want}"
        )
    params = GatParameters(L=L, H=H, hidden=hidden)
    # The file holds the arrays sorted by name; ``where`` holds each one's positions in the vector.
    where = params.views(np.arange(params.vector.size))
    order = np.concatenate([where[k].reshape(-1) for k in sorted(where)])
    params.vector[order] = np.frombuffer(raw, "<f8", offset=len(head))
    return params
