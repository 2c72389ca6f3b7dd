"""References the model tests compare against, in plain numpy.

``per_edge_scores`` is the attention model computed over every node and
every edge, with no node classes and no blocks; ``infonce_value`` is the
contrastive loss from 0/1 indicator rows; ``central_difference_check``
holds a gradient against central differences of a function of the
parameters.
"""

import numpy as np

from backdoorlab.gnn import GatParameters
from backdoorlab.gnn.model import LEAKY_SLOPE

# The step, and the largest error allowed as a share of the gradient's
# scale; both were fixed before the check first ran.
STEP = 1e-7
TOLERANCE = 1e-7


def per_edge_scores(a, graph):
    """The attention model with every edge term computed per edge.

    ``a`` holds the parameters by name (``GatParameters.arrays``).  Returns
    the scores, one per variable, and each round's record as
    ``(alpha_self, alpha_edge, receiver_of_edge)``.
    """
    cons, var = graph.edges.T

    def mlp(x, tag):
        hidden = np.maximum(x @ a[f"{tag}_w1"] + a[f"{tag}_b1"], 0.0)
        return hidden @ a[f"{tag}_w2"] + a[f"{tag}_b2"]

    def logit(T, w):  # w . leaky_relu(T) per head: (H, rows, L) -> (H, rows)
        return np.einsum("hrl,hl->hr", np.maximum(T, LEAKY_SLOPE * T), w)

    def attention(recv_emb, send_emb, edge_emb, rnd, r, s, recv, send):
        Tr = recv_emb @ a[f"att{rnd}_theta_{r}"]  # (H, R, L)
        Ts = send_emb @ a[f"att{rnd}_theta_{s}"]  # (H, S, L)
        Te = edge_emb @ a[f"att{rnd}_theta_e"]  # (H, E, L), one row per edge
        wa, wb, wc = np.split(a[f"att{rnd}_w"], 3, axis=1)  # receiver, sender and edge parts
        t_recv = logit(Tr, wa)
        self_logit = t_recv + logit(Tr, wb)
        edge_logit = t_recv[:, recv] + logit(Ts, wb)[:, send] + logit(Te, wc)
        # The softmax over each receiver and its edges.
        mx = self_logit.copy()
        np.maximum.at(mx, (slice(None), recv), edge_logit)
        exp_self = np.exp(self_logit - mx)
        exp_edge = np.exp(edge_logit - mx[:, recv])
        denom = exp_self.copy()
        np.add.at(denom, (slice(None), recv), exp_edge)
        alpha_self = exp_self / denom
        alpha_edge = exp_edge / denom[:, recv]
        new = alpha_self[..., None] * Tr
        np.add.at(new, (slice(None), recv), alpha_edge[..., None] * Ts[:, send])
        return new.mean(axis=0), (alpha_self, alpha_edge, recv)

    V1 = mlp(graph.var_feats, "emb_var")
    C1 = mlp(graph.cons_feats, "emb_cons")
    E1 = mlp(graph.edge_feats, "emb_edge")
    C2, rec1 = attention(C1, V1, E1, 1, "c", "v", cons, var)
    V2, rec2 = attention(V1, C2, E1, 2, "v", "c", var, cons)
    return 1.0 / (1.0 + np.exp(-mlp(V2, "out")[:, 0])), [rec1, rec2]


def infonce_value(scores, positives, negatives, tau):
    """InfoNCE of one sample: 0/1 indicator rows times the scores, then each
    positive's log-sum-exp over itself and every negative, averaged over the
    positives.  A repeated index counts once."""

    def dots(sets):
        rows = np.zeros((len(sets), scores.size))
        for r, members in enumerate(sets):
            rows[r, list(members)] = 1.0
        return rows @ scores / tau

    dp, dn = dots(positives), dots(negatives)
    shift = max(dp.max(), dn.max())
    lse = np.log(np.exp(dp - shift) + np.exp(dn - shift).sum())
    return float(np.mean(lse - (dp - shift)))


def central_difference_check(f, params, grads):
    """Check ``grads`` (arrays by name) as the gradient of ``f`` at ``params``;
    returns the worst error.

    For each named array of ``params``, two seeded normal directions ``v``
    supported on that array: ``(f(θ + hv) - f(θ - hv)) / 2h`` must match
    ``Σ grads[k] · v`` with ``h = 1e-7``.  Each error is divided by the
    largest L1 norm of any array's gradient, and the check fails above
    1e-7.  The scale is the whole gradient's, not each array's: the output
    bias's gradient is a nearly cancelling sum, and against its own norm the
    step's rounding read 2e-4 on a batch of three GISP-25 samples at H 8.
    ``f`` takes a ``GatParameters``.
    """
    rng = np.random.default_rng(0)
    scale = max(np.abs(g).sum() for g in grads.values())
    assert scale > 0.0
    errors = {}
    for name, array in params.arrays.items():
        for _ in range(2):
            v = np.zeros_like(params.vector)
            direction = params.views(v)[name]
            direction[...] = rng.normal(size=array.shape)
            plus, minus = (
                GatParameters(params.L, params.H, params.hidden, params.vector + sign * STEP * v)
                for sign in (1.0, -1.0)
            )
            numeric = (f(plus) - f(minus)) / (2.0 * STEP)
            analytic = float(np.sum(grads[name] * direction))
            errors[name] = max(errors.get(name, 0.0), abs(numeric - analytic) / scale)
    name = max(errors, key=errors.get)
    assert errors[name] <= TOLERANCE, f"{name}: error {errors[name]:.3g} of the gradient's scale"
    return errors[name]
