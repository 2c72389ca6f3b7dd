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

Each attention round is one autodiff node with a hand-written backward
pass (``autodiff.custom``) in place of about 47 small ones, so the backward
pass of a GISP-25 training sample runs 40 node backward functions rather
than 130.  The round works in plain numpy: the three head transforms, the
leaky logits, the softmax over each neighborhood, and the messages,
aggregated densely by scattering the edge weights into an (H, sender
classes, receiver classes) block and multiplying it by the sender
transforms per head.  Its backward is the softmax Jacobian per
neighborhood, the block's two products, segment sums back to own rows,
senders and edge rows, and the transforms' gradients.  On GISP-25 at H=8
the two rounds' edge blocks hold about 17,000 floats together.
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
from ..search import Backdoor
from . import autodiff as ad
from .autodiff import Tensor

LEAKY_SLOPE = 0.2

CHECKPOINT_MAGIC = b"BDLGAT"
CHECKPOINT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a checkpoint file cannot be loaded."""


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else shape[0]
    fan_out = shape[-1] if len(shape) > 1 else 1
    if len(shape) == 3:  # per-head square transforms: fans are the two L dims
        fan_in, fan_out = shape[1], shape[2]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
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
    """All learnable arrays, keyed by name in a fixed order."""

    L: int = 64
    H: int = 8
    hidden: int = 64
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, seed: int = 0, L: int = 64, H: int = 8, hidden: int = 64) -> "GatParameters":
        """Seeded glorot-uniform weights, zero biases; draw order = key order."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        p = cls(L=L, H=H, hidden=hidden)
        w_limit = np.sqrt(6.0 / (3 * L + 1))
        for name, shape in _layout(L, H, hidden).items():
            if len(shape) == 1:  # biases
                p.arrays[name] = np.zeros(shape)
            elif name in ("att1_w", "att2_w"):
                p.arrays[name] = rng.uniform(-w_limit, w_limit, size=shape)
            else:
                p.arrays[name] = _glorot(rng, shape)
        return p

    def tensors(self) -> dict[str, Tensor]:
        return {k: Tensor(v) for k, v in self.arrays.items()}

    def copy(self) -> "GatParameters":
        return GatParameters(
            L=self.L, H=self.H, hidden=self.hidden,
            arrays={k: v.copy() for k, v in self.arrays.items()},
        )


@dataclass
class AttentionRecord:
    """Per-round softmax weights: one row of self weights plus edge weights."""

    alpha_self: np.ndarray  # (H, receivers)
    alpha_edge: np.ndarray  # (H, edges)
    receiver_of_edge: np.ndarray  # (edges,)


def _mlp(x, w1, b1, w2, b2) -> Tensor:
    return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


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

    own: ad.SegmentIndex | None  # class -> its receivers' own row; None when that is the identity
    recv: ad.SegmentIndex  # round edge -> receiver class
    send: ad.SegmentIndex  # round edge -> sender
    edge_row: ad.SegmentIndex  # round edge -> distinct edge-feature row
    pair: ad.SegmentIndex  # round edge -> its (sender, receiver class) cell of the dense block
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
    return _Round(
        own=None if K == num_own else ad.SegmentIndex(own[reps], num_own),
        recv=ad.SegmentIndex(rep_recv, K),
        send=ad.SegmentIndex(send[picked], num_send),
        edge_row=ad.SegmentIndex(edge_row[picked], num_rows),
        pair=ad.SegmentIndex(send[picked] * K + rep_recv, num_send * K),
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
    var_class: ad.SegmentIndex | None  # variable -> round-2 class; None when that is the identity

    @classmethod
    def of(cls, graph: BipartiteGraph) -> "NodeClasses":
        edges = graph.edges.astype(np.int64).reshape(-1, 2)
        var_feats = np.asarray(graph.var_feats, dtype=np.float64)
        cons_feats = np.asarray(graph.cons_feats, dtype=np.float64)
        edge_feats = np.asarray(graph.edge_feats, dtype=np.float64).reshape(-1, NUM_EDGE_FEATURES)
        var_row, var_first = _row_classes(var_feats)
        cons_row, cons_first = _row_classes(cons_feats)
        edge_row, edge_first = _row_classes(edge_feats)
        Uv, Ue = var_first.size, edge_first.size
        round1 = _refine(cons_row, cons_first.size, edges[:, 0], var_row[edges[:, 1]], Uv, edge_row, Ue)
        K1 = round1.recv.size
        round2 = _refine(var_row, Uv, edges[:, 1], round1.node_class[edges[:, 0]], K1, edge_row, Ue)
        K2 = round2.recv.size
        return cls(
            var_rows=var_feats[var_first],
            cons_rows=cons_feats[cons_first],
            edge_rows=edge_feats[edge_first],
            round1=round1,
            round2=round2,
            var_class=None if K2 == graph.num_vars else ad.SegmentIndex(round2.node_class, K2),
        )


def _attention_round(
    recv_emb, send_emb, edge_emb, theta_recv, theta_send, theta_edge, w, rnd: _Round, H: int, L: int
):
    """One message-passing round over receiver classes; returns (new class embeddings, weights).

    ``recv_emb`` holds one embedding per distinct own row of the receivers,
    ``send_emb`` one per sender and ``edge_emb`` one per distinct edge row;
    ``rnd`` maps them to the round's classes and edges.  The weights are the
    ``(H, classes)`` self and ``(H, round edges)`` edge softmax weights.

    The round is one autodiff node whose parents are the seven inputs; its
    forward and backward passes are plain numpy.  The neighbor messages are
    ``block.T @ Ts`` per head, where ``block`` is the dense ``(H, S, K)``
    attention matrix with each edge's weight summed into its (sender,
    receiver class) cell, so a repeated pair adds up as separate edges would.
    It costs ``H * K * S`` floats, forward and backward.  The self messages
    weight each class's own-row transform elementwise.  The products stay
    stacked per head: at GISP-25 sizes one gemm over all heads passes
    OpenBLAS's threading threshold, and its second thread doubles the CPU
    time for no gain.
    """
    Xr, Xs, Xe = recv_emb.data, send_emb.data, edge_emb.data
    theta_r, theta_s, theta_e = theta_recv.data, theta_send.data, theta_edge.data
    w3 = w.data.reshape(H, 3, L)  # rows: parts a, b, c
    wt = np.swapaxes(w3, 1, 2)
    own, recv, send, edge_row, pair = rnd.own, rnd.recv, rnd.send, rnd.edge_row, rnd.pair
    K, S = recv.size, send.size

    Tr = np.matmul(Xr, theta_r)  # (H, own rows, L)
    Ts = np.matmul(Xs, theta_s)  # (H, S, L)
    Te = np.matmul(Xe, theta_e)  # (H, U, L), U distinct edge rows
    lr, ls, le = (ad.leaky_relu_values(T, LEAKY_SLOPE) for T in (Tr, Ts, Te))
    # Logits ``w . leaky([recv, send, edge])``: an own row takes part a as
    # the receiver and part b as its own sender.
    t_ab = np.matmul(lr, wt[:, :, :2])  # (H, own rows, 2)
    t_send = np.matmul(ls, wt[:, :, 1:2])[..., 0]  # (H, S)
    t_edge = np.matmul(le, wt[:, :, 2:])[..., 0]  # (H, U)
    if own is not None:  # from own rows to receiver classes
        t_ab = np.take(t_ab, own.index, axis=1)
    t_recv = t_ab[..., 0]
    self_logit = t_recv + t_ab[..., 1]  # (H, K)
    edge_logit = (
        np.take(t_recv, recv.index, axis=1)
        + np.take(t_send, send.index, axis=1)
        + np.take(t_edge, edge_row.index, axis=1)
    )  # (H, E)

    # The per-neighborhood max keeps the softmax finite; the softmax is
    # shift invariant, so it carries no gradient.
    mx = recv.maximum(self_logit, edge_logit, axis=1)
    exp_self = np.exp(self_logit - mx)
    exp_edge = np.exp(edge_logit - np.take(mx, recv.index, axis=1))
    denom = exp_self + recv.sum(exp_edge, axis=1)
    alpha_self = exp_self / denom  # (H, K)
    alpha_edge = exp_edge / np.take(denom, recv.index, axis=1)  # (H, E)

    block = pair.sum(alpha_edge, axis=1).reshape(H, S, K)
    Tk = Tr if own is None else np.take(Tr, own.index, axis=1)  # (H, K, L)
    out = np.matmul(np.swapaxes(block, 1, 2), Ts).sum(axis=0)
    out += np.einsum("hk,hkl->kl", alpha_self, Tk)
    out *= 1.0 / H  # (K, L), the mean over heads

    def backward(g):
        g = g * (1.0 / H)  # each head's share of the mean
        # The messages and their weights.
        dTs = np.matmul(block, g)  # (H, S, L)
        d_edge = np.take(np.matmul(Ts, g.T).reshape(H, S * K), pair.index, axis=1)  # d alpha_edge
        d_self = np.einsum("hkl,kl->hk", Tk, g)  # d alpha_self
        dTr = alpha_self[..., None] * g  # (H, K, L)
        if own is not None:  # summed to own rows by the (own rows, K) membership matrix
            member = np.equal.outer(np.arange(own.size), own.index).astype(np.float64)
            dTr = np.matmul(member, dTr)  # (H, own rows, L)
        # Softmax over each neighborhood {self, its edges}.
        dot = d_self * alpha_self + recv.sum(d_edge * alpha_edge, axis=1)
        dl_self = alpha_self * (d_self - dot)  # d self_logit, (H, K)
        dl_edge = alpha_edge * (d_edge - np.take(dot, recv.index, axis=1))  # d edge_logit, (H, E)
        dt_ab = np.stack((dl_self + recv.sum(dl_edge, axis=1), dl_self), axis=1)  # (H, 2, K)
        if own is not None:
            dt_ab = own.sum(dt_ab, axis=2)
        dt_send = send.sum(dl_edge, axis=1)[:, None, :]  # (H, 1, S)
        dt_edge = edge_row.sum(dl_edge, axis=1)[:, None, :]  # (H, 1, U)
        # Logits: t = leaky(T) @ w per head.
        kr, ks, ke = (ad.leaky_relu_slopes(T, LEAKY_SLOPE) for T in (Tr, Ts, Te))
        dTr += np.matmul(np.swapaxes(dt_ab, 1, 2), w3[:, :2]) * kr
        dTs += np.swapaxes(dt_send, 1, 2) * w3[:, None, 1] * ks
        dTe = np.swapaxes(dt_edge, 1, 2) * w3[:, None, 2] * ke
        dw = np.empty((H, 3, L))
        np.matmul(dt_ab, lr, out=dw[:, :2])
        dw[:, 1:2] += np.matmul(dt_send, ls)
        np.matmul(dt_edge, le, out=dw[:, 2:])
        # The head transforms x @ theta, x shared by every head.
        inputs = ((Xr, theta_r, dTr), (Xs, theta_s, dTs), (Xe, theta_e, dTe))
        grads = [np.matmul(dT, np.swapaxes(theta, 1, 2)).sum(axis=0) for _, theta, dT in inputs]
        grads += [np.matmul(x.T, dT) for x, _, dT in inputs]
        grads.append(dw.reshape(H, 3 * L))
        return grads

    parents = (recv_emb, send_emb, edge_emb, theta_recv, theta_send, theta_edge, w)
    return ad.custom(out, parents, backward), (alpha_self, alpha_edge)


def _record(weights, rnd: _Round, receiver_of_edge: np.ndarray) -> AttentionRecord:
    """Per-class weights expanded to every receiver and every graph edge."""
    alpha_self, alpha_edge = weights
    return AttentionRecord(
        alpha_self=alpha_self[:, rnd.node_class],
        alpha_edge=alpha_edge[:, rnd.edge_slot],
        receiver_of_edge=receiver_of_edge,
    )


def score_graph(
    params_t: dict[str, Tensor], graph: BipartiteGraph, collect_attention: bool = False
):
    """Differentiable forward pass; returns (scores Tensor (n, 1), records).

    The graph's features enter as constants, so only parameters get gradients.
    Each round runs once per node class (``graph.node_classes``) and the
    scores are gathered back to every variable.
    """
    a = params_t
    H = a["att1_theta_c"].shape[0]
    L = a["att1_theta_c"].shape[1]
    nc = graph.node_classes

    V1 = _mlp(nc.var_rows, a["emb_var_w1"], a["emb_var_b1"], a["emb_var_w2"], a["emb_var_b2"])
    C1 = _mlp(nc.cons_rows, a["emb_cons_w1"], a["emb_cons_b1"], a["emb_cons_w2"], a["emb_cons_b2"])
    E1 = _mlp(nc.edge_rows, a["emb_edge_w1"], a["emb_edge_b1"], a["emb_edge_w2"], a["emb_edge_b2"])

    C2, weights1 = _attention_round(
        C1, V1, E1,
        a["att1_theta_c"], a["att1_theta_v"], a["att1_theta_e"], a["att1_w"],
        nc.round1, H=H, L=L,
    )  # one row per round-1 class
    V2, weights2 = _attention_round(
        V1, C2, E1,
        a["att2_theta_v"], a["att2_theta_c"], a["att2_theta_e"], a["att2_w"],
        nc.round2, H=H, L=L,
    )  # one row per round-2 class
    logits = _mlp(V2, a["out_w1"], a["out_b1"], a["out_w2"], a["out_b2"])
    scores = ad.sigmoid(logits)
    if nc.var_class is not None:
        scores = ad.gather(scores, nc.var_class, axis=0)  # (n, 1)
    records = None
    if collect_attention:
        edges = graph.edges.astype(np.int64).reshape(-1, 2)
        records = [
            _record(weights1, nc.round1, edges[:, 0]),
            _record(weights2, nc.round2, edges[:, 1]),
        ]
    return scores, records


def gat_forward(
    params: GatParameters, graph: BipartiteGraph, collect_attention: bool = False
):
    """Inference: per-variable scores in (0, 1) as a plain array.

    With ``collect_attention`` the per-round softmax weights come back too.
    """
    scores, records = score_graph(params.tensors(), graph, collect_attention)
    out = scores.data.reshape(-1)
    return (out, records) if collect_attention else out


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
        L, H, hidden = (int(header[k]) for k in ("L", "H", "hidden"))
        listed = {name: tuple(shape) for name, shape in header["arrays"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupted checkpoint header: {exc!r}") from None
    if len(listed) != len(header["arrays"]):
        raise ModelFormatError("checkpoint lists an array twice")
    if min(L, H, hidden) < 1:
        raise ModelFormatError(f"checkpoint sizes L={L}, H={H}, hidden={hidden} must be positive")
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
        arr = np.frombuffer(raw[pos : pos + nbytes], dtype="<f8").reshape(shape)
        params.arrays[name] = arr.astype(np.float64)
        pos += nbytes
    if pos != len(raw):
        raise ModelFormatError("trailing bytes after checkpoint arrays")
    return params
