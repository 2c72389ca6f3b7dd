"""Two-round graph attention scorer over the bipartite MILP graph.

Three 2-layer MLPs embed variable, constraint, and edge features into R^L.
Round 1 updates every constraint from its incident variables, round 2
updates every variable from the updated constraints; both rounds use H
attention heads whose weights are a softmax over the node itself plus its
neighbors, with logits ``w . leaky_relu([theta_recv r, theta_send s,
theta_edge e])`` (the self logit reuses the receiver transform in the sender
slot and a zero edge slot).  A final MLP plus sigmoid yields one score in
(0, 1) per variable.

The edge terms depend on an edge's feature row only, so the edge MLP and
each round's edge logit run once per distinct (bit-equal) edge-feature row
and are gathered back to the edges; MILP graphs tend to repeat a few
coefficient values over many edges.

Messages are aggregated densely: each round scatters its edge weights into
an (H, receivers, senders) block and multiplies it by the sender
transforms, so the backward pass is two matmuls and one ``take``.  The
block holds ``H * R * S`` floats per round (0.3 MB on GISP-25 at H=8).  This
beats per-edge gathers and segment sums while enough of the block is
filled: per training sample it measured faster on every generator family
up to GISP-60 (1.2% of cells hold an edge) and slower on GISP-90 (0.6%).
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
        a = p.arrays
        for tag, width in (("var", NUM_VAR_FEATURES), ("cons", NUM_CONS_FEATURES), ("edge", NUM_EDGE_FEATURES)):
            a[f"emb_{tag}_w1"] = _glorot(rng, (width, hidden))
            a[f"emb_{tag}_b1"] = np.zeros(hidden)
            a[f"emb_{tag}_w2"] = _glorot(rng, (hidden, L))
            a[f"emb_{tag}_b2"] = np.zeros(L)
        w_limit = np.sqrt(6.0 / (3 * L + 1))
        for rnd in (1, 2):
            for part in ("c", "v", "e"):
                a[f"att{rnd}_theta_{part}"] = _glorot(rng, (H, L, L))
            a[f"att{rnd}_w"] = rng.uniform(-w_limit, w_limit, size=(H, 3 * L))
        a["out_w1"] = _glorot(rng, (L, hidden))
        a["out_b1"] = np.zeros(hidden)
        a["out_w2"] = _glorot(rng, (hidden, 1))
        a["out_b2"] = np.zeros(1)
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


def _attention_round(
    recv_emb, send_emb, edge_emb, theta_recv, theta_send, theta_edge, w,
    recv: ad.SegmentIndex, send: ad.SegmentIndex, edge_row: ad.SegmentIndex,
    H: int, L: int,
):
    """One message-passing round; returns (new receiver embeddings, record).

    ``recv`` and ``send`` map each edge to its receiver and sender, and
    ``edge_row`` maps it to its row of ``edge_emb``, which holds one
    embedding per distinct edge-feature row.

    The neighbor messages are ``block @ Ts``, where ``block`` is the dense
    ``(H, R, S)`` attention matrix with each edge's weight summed into its
    (receiver, sender) cell, so a repeated pair adds up as separate edges
    would.  It costs ``H * R * S`` floats, forward and backward; its cells are
    mostly zero on large sparse graphs, which is where the dense form stops
    paying (GISP-90).
    """
    Tr = ad.matmul(recv_emb, theta_recv)  # (H, R, L)
    Ts = ad.matmul(send_emb, theta_send)  # (H, S, L)
    Te = ad.matmul(edge_emb, theta_edge)  # (H, U, L), U distinct edge rows
    wa, wb, wc = (
        ad.reshape(ad.gather(w, np.arange(k * L, (k + 1) * L), axis=1), (H, L, 1))
        for k in range(3)
    )
    leaky_recv = ad.leaky_relu(Tr, LEAKY_SLOPE)

    def logit(x, w_part):  # w_part . x per head and row: (H, rows)
        return ad.reshape(ad.matmul(x, w_part), (H, -1))

    t_recv = logit(leaky_recv, wa)
    t_send = logit(ad.leaky_relu(Ts, LEAKY_SLOPE), wb)
    t_edge = ad.gather(logit(ad.leaky_relu(Te, LEAKY_SLOPE), wc), edge_row, axis=1)  # (H, E)
    t_self = logit(leaky_recv, wb)

    edge_logit = ad.add(
        ad.add(ad.gather(t_recv, recv, axis=1), ad.gather(t_send, send, axis=1)),
        t_edge,
    )  # (H, E)
    self_logit = ad.add(t_recv, t_self)  # (H, R)

    # Detached per-neighborhood max keeps the softmax finite; the softmax is
    # shift invariant so this constant carries no gradient.
    mx = recv.maximum(self_logit.data, edge_logit.data, axis=1)
    exp_self = ad.exp(ad.sub(self_logit, mx))
    exp_edge = ad.exp(ad.sub(edge_logit, np.take(mx, recv.index, axis=1)))
    denom = ad.add(exp_self, ad.segment_sum(exp_edge, recv, recv.size, axis=1))
    alpha_self = ad.div(exp_self, denom)  # (H, R)
    alpha_edge = ad.div(exp_edge, ad.gather(denom, recv, axis=1))  # (H, E)

    R, S = recv.size, send.size
    pair = ad.SegmentIndex(recv.index * S + send.index, R * S)  # each edge's (recv, send) cell
    block = ad.reshape(ad.segment_sum(alpha_edge, pair, R * S, axis=1), (H, R, S))
    agg = ad.matmul(block, Ts)  # (H, R, L)
    self_msg = ad.mul(Tr, ad.reshape(alpha_self, (H, -1, 1)))
    new_emb = ad.tmean(ad.add(self_msg, agg), axis=0)  # (R, L)
    record = AttentionRecord(
        alpha_self=alpha_self.data, alpha_edge=alpha_edge.data, receiver_of_edge=recv.index
    )
    return new_emb, record


def score_graph(
    params_t: dict[str, Tensor], graph: BipartiteGraph, collect_attention: bool = False
):
    """Differentiable forward pass; returns (scores Tensor (n, 1), records).

    The graph's features enter as constants, so only parameters get gradients.
    """
    a = params_t
    H = a["att1_theta_c"].shape[0]
    L = a["att1_theta_c"].shape[1]
    n, m = graph.num_vars, graph.num_cons
    edges = graph.edges.astype(np.int64).reshape(-1, 2)
    cons = ad.SegmentIndex(edges[:, 0], m)  # each edge's constraint
    vars_ = ad.SegmentIndex(edges[:, 1], n)  # each edge's variable
    feats = np.ascontiguousarray(graph.edge_feats, dtype=np.float64).reshape(-1, NUM_EDGE_FEATURES)
    keys = feats.view(np.dtype((np.void, feats.itemsize * feats.shape[1]))).reshape(-1)
    _, first, row = np.unique(keys, return_index=True, return_inverse=True)
    edge_row = ad.SegmentIndex(row, first.size)  # each edge's distinct row

    V1 = _mlp(graph.var_feats, a["emb_var_w1"], a["emb_var_b1"], a["emb_var_w2"], a["emb_var_b2"])
    C1 = _mlp(graph.cons_feats, a["emb_cons_w1"], a["emb_cons_b1"], a["emb_cons_w2"], a["emb_cons_b2"])
    E1 = _mlp(feats[first], a["emb_edge_w1"], a["emb_edge_b1"], a["emb_edge_w2"], a["emb_edge_b2"])

    C2, rec1 = _attention_round(
        C1, V1, E1,
        a["att1_theta_c"], a["att1_theta_v"], a["att1_theta_e"], a["att1_w"],
        recv=cons, send=vars_, edge_row=edge_row, H=H, L=L,
    )
    V2, rec2 = _attention_round(
        V1, C2, E1,
        a["att2_theta_v"], a["att2_theta_c"], a["att2_theta_e"], a["att2_w"],
        recv=vars_, send=cons, edge_row=edge_row, H=H, L=L,
    )
    logits = _mlp(V2, a["out_w1"], a["out_b1"], a["out_w2"], a["out_b2"])  # (n, 1)
    scores = ad.sigmoid(logits)
    records = [rec1, rec2] if collect_attention else None
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
    """The K highest-scoring binary variables; ties go to the lowest index."""
    scores = np.asarray(scores, dtype=float).reshape(-1)
    binary = np.flatnonzero(np.asarray(binary_mask, dtype=bool))
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
    params = GatParameters(L=header["L"], H=header["H"], hidden=header["hidden"])
    pos = hstart + hlen
    for name, shape in header["arrays"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = 8 * count
        if pos + nbytes > len(raw):
            raise ModelFormatError(f"truncated checkpoint: array {name!r} incomplete")
        arr = np.frombuffer(raw[pos : pos + nbytes], dtype="<f8").reshape(shape)
        params.arrays[name] = arr.astype(np.float64)
        pos += nbytes
    if pos != len(raw):
        raise ModelFormatError("trailing bytes after checkpoint arrays")
    return params
