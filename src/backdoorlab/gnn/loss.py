"""Contrastive loss over backdoor membership vectors.

A sample is encoded as a 0/1 membership vector over the variables, so its
dot product with the score vector adds up the scores of its members.  Each
positive is contrasted against all negatives: the loss is the mean over
positives of ``-log softmax`` where the softmax runs over that positive plus
every negative at temperature tau.  Computed with max subtraction, and
invariant to shifting every dot product by a constant.  The gradient with
respect to the scores comes from the same pass, in closed form.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def membership_matrix(samples: Sequence[Iterable[int]], num_vars: int) -> np.ndarray:
    """Stack 0/1 indicator rows, one per sample.

    Raises ``ValueError`` for an index outside ``[0, num_vars)``; a negative
    one would otherwise wrap around to the end of the row.
    """
    M = np.zeros((len(samples), num_vars))
    for r, sample in enumerate(samples):
        for j in sample:
            j = int(j)
            if not 0 <= j < num_vars:
                raise ValueError(f"sample {r}: variable index {j} outside [0, {num_vars})")
            M[r, j] = 1.0
    return M


def infonce_loss_and_grad(
    scores, positives: Sequence[Iterable[int]], negatives: Sequence[Iterable[int]], tau: float = 0.07
) -> tuple[float, np.ndarray]:
    """InfoNCE over variable-membership encodings, and its gradient with
    respect to ``scores``.

    ``positives`` and ``negatives`` are collections of variable-index
    collections.  An empty negative set yields exactly 0 with a zero
    gradient; an empty positive set is an error.
    """
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    if len(positives) == 0:
        raise ValueError("at least one positive sample is required")
    s = np.asarray(scores, dtype=float).reshape(-1)
    if len(negatives) == 0:
        return 0.0, np.zeros_like(s)
    Mp = membership_matrix(positives, s.size)
    Mn = membership_matrix(negatives, s.size)
    dp = np.matmul(Mp, s) * (1.0 / tau)
    dn = np.matmul(Mn, s) * (1.0 / tau)
    shift = max(dp.max(), dn.max())
    exp_pos = np.exp(dp - shift)
    exp_neg = np.exp(dn - shift)
    total = exp_pos + exp_neg.sum()  # each positive's softmax denominator
    loss = float(np.mean(np.log(total) - (dp - shift)))
    # d loss / d dp_i = (p_i - 1) / P and d loss / d dn_j = sum_i q_ij / P,
    # with p_i, q_ij the softmax weights of positive i and of negative j in it.
    inv = 1.0 / (len(positives) * total)
    d_dp = exp_pos * inv - 1.0 / len(positives)
    d_dn = exp_neg * inv.sum()
    return loss, (np.matmul(d_dp, Mp) + np.matmul(d_dn, Mn)) * (1.0 / tau)


def infonce_loss(
    scores, positives: Sequence[Iterable[int]], negatives: Sequence[Iterable[int]], tau: float = 0.07
) -> float:
    """The InfoNCE value of :func:`infonce_loss_and_grad`, as a float."""
    return infonce_loss_and_grad(scores, positives, negatives, tau)[0]
