"""Contrastive loss over backdoor membership vectors.

A sample is encoded as a 0/1 membership vector over the variables, so its
dot product with the score vector adds up the scores of its members.  Each
positive is contrasted against all negatives: the loss is the mean over
positives of ``-log softmax`` where the softmax runs over that positive plus
every negative at temperature tau.  Computed with max subtraction, and
invariant to shifting every dot product by a constant.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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


def infonce_loss(scores, positives: Sequence[Iterable[int]], negatives: Sequence[Iterable[int]], tau: float = 0.07):
    """InfoNCE over variable-membership encodings.

    ``scores`` may be a plain array (returns a float) or an autodiff Tensor
    (returns a scalar Tensor for training).  ``positives`` and ``negatives``
    are collections of variable-index collections.  An empty negative set
    yields exactly 0; an empty positive set is an error.
    """
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    if len(positives) == 0:
        raise ValueError("at least one positive sample is required")
    tensor_in = isinstance(scores, Tensor)
    s = scores if tensor_in else Tensor(np.asarray(scores, dtype=float))
    if len(negatives) == 0:
        out = Tensor(0.0)
        return out if tensor_in else 0.0
    n = int(np.prod(s.data.shape))
    col = ad.reshape(s, (n, 1))
    Mp = membership_matrix(positives, n)
    Mn = membership_matrix(negatives, n)
    dp = ad.mul(ad.matmul(Mp, col), 1.0 / tau)  # (p, 1)
    dn = ad.mul(ad.matmul(Mn, col), 1.0 / tau)  # (q, 1)
    shift = float(max(dp.data.max(), dn.data.max()))  # detached
    neg_mass = ad.tsum(ad.exp(ad.sub(dn, shift)))  # scalar
    lse = ad.log(ad.add(ad.exp(ad.sub(dp, shift)), neg_mass))  # (p, 1)
    out = ad.tmean(ad.sub(lse, ad.sub(dp, shift)))
    return out if tensor_in else float(out.data)
