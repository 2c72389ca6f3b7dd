"""Contrastive loss over backdoor membership vectors.

A sample is encoded as a 0/1 membership vector over the variables, so its
dot product with the score vector adds up the scores of its members.  Each
positive is contrasted against all negatives: the loss is the mean over
positives of ``-log softmax`` where the softmax runs over that positive plus
every negative at temperature tau.  Computed with max subtraction, and
invariant to shifting every dot product by a constant.  The gradient with
respect to the scores comes from the same pass, in closed form.

The dot products are segment sums over index arrays (``ContrastiveSets``,
built once per sample), so one pass computes the loss of many samples whose
scores lie side by side in one vector (``infonce_union``), as training's
disjoint union of graphs produces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..inputs import check_integer
from .model import SegmentIndex


@dataclass(frozen=True)
class ContrastiveSets:
    """One sample's positive and negative sets as index arrays over its variables.

    The sets come positives first, each as its distinct members in
    ascending order (a repeated index counts once).
    """

    member: SegmentIndex  # each member's variable
    set_of: SegmentIndex  # each member's set
    positive: np.ndarray  # (sets,) 1.0 for a positive set, 0.0 for a negative one

    @classmethod
    def of(
        cls, positives: Sequence[Iterable[int]], negatives: Sequence[Iterable[int]], num_vars: int
    ) -> "ContrastiveSets":
        """Raises ``ValueError`` for an index that is not an integer in ``[0, num_vars)``."""
        sets = list(positives) + list(negatives)
        members = [
            sorted({check_integer(j, f"sample {r}: variable index", 0, num_vars) for j in s})
            for r, s in enumerate(sets)
        ]
        sizes = [len(m) for m in members]
        return cls(
            member=SegmentIndex([j for m in members for j in m], num_vars),
            set_of=SegmentIndex(np.repeat(np.arange(len(sets)), sizes), len(sets)),
            positive=np.repeat([1.0, 0.0], [len(positives), len(negatives)]),
        )


def infonce_union(
    scores: np.ndarray, parts: Sequence[ContrastiveSets], tau: float, weight: float = 1.0
) -> tuple[float, np.ndarray]:
    """``weight`` times the summed InfoNCE of several samples, and its gradient
    with respect to ``scores``.

    ``scores`` holds each part's variables after those of the part before
    it.  Every part needs a positive and a negative set.
    """
    member, set_of = SegmentIndex.concat([[p.member for p in parts], [p.set_of for p in parts]])
    positive = np.concatenate([p.positive for p in parts])
    counts = [p.positive.size for p in parts]
    sample = SegmentIndex(np.repeat(np.arange(len(parts)), counts), len(parts))
    num_pos = sample.sum(positive)
    dots = set_of.sum(scores.take(member.index)) * (1.0 / tau)
    shift = sample.maximum(np.full(len(parts), -np.inf), dots)
    z = dots - shift.take(sample.index)
    ex = np.exp(z)
    negative = 1.0 - positive
    # Each positive's softmax denominator (negatives get one too, unused).
    total = ex + sample.sum(ex * negative).take(sample.index)
    per_sample = sample.sum(positive * (np.log(total) - z)) / num_pos
    loss = float(per_sample.sum()) * weight
    # d loss / d dp_i = (p_i - 1) / P and d loss / d dn_j = sum_i q_ij / P,
    # with p_i, q_ij the softmax weights of positive i and of negative j in it.
    per_set_pos = num_pos.take(sample.index)
    inv = positive / (per_set_pos * total)
    d_dots = ex * (inv + negative * sample.sum(inv).take(sample.index)) - positive / per_set_pos
    d_scores = member.sum(d_dots.take(set_of.index))
    d_scores *= weight / tau
    return loss, d_scores


def infonce_loss_and_grad(
    scores, positives: Sequence[Iterable[int]], negatives: Sequence[Iterable[int]], tau: float = 0.07
) -> tuple[float, np.ndarray]:
    """InfoNCE over variable-membership encodings, and its gradient with
    respect to ``scores``: :func:`infonce_union` of the one sample.

    ``positives`` and ``negatives`` are collections of variable-index
    collections.  An empty negative set yields exactly 0 with a zero
    gradient; an empty positive set is an error.
    """
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    if len(positives) == 0:
        raise ValueError("at least one positive sample is required")
    s = np.asarray(scores, dtype=float).reshape(-1)
    sets = ContrastiveSets.of(positives, negatives, s.size)
    if len(negatives) == 0:
        return 0.0, np.zeros_like(s)
    return infonce_union(s, [sets], tau)


def infonce_loss(
    scores, positives: Sequence[Iterable[int]], negatives: Sequence[Iterable[int]], tau: float = 0.07
) -> float:
    """The InfoNCE value of :func:`infonce_loss_and_grad`, as a float."""
    return infonce_loss_and_grad(scores, positives, negatives, tau)[0]
