"""Candidate-backdoor collection and contrastive labeling.

Two collectors produce size-K variable subsets: LP-biased random sampling
(weights proportional to root-LP fractionality) and a UCT tree search whose
states grow a subset one variable at a time and whose terminal reward is the
tree weight of a node-limited branch-and-bound probe restricted to the
subset.  ``label_samples`` then measures the true solving effort of each
candidate under branching priorities and splits them into positive samples
(faster than the default solve) and negative samples (slower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bnb import BnbConfig, backdoor_priorities, restricted_probe, solve_bnb
from .generators import _rng
from .milp import MilpInstance, fractionality
from .simplex import OPTIMAL as LP_OPTIMAL

POSITIVE = "POSITIVE"
NEGATIVE = "NEGATIVE"

UCT_EXPLORATION = math.sqrt(2.0)
_FRACTIONALITY_FLOOR = 1e-6


@dataclass(frozen=True)
class Backdoor:
    """A sorted, duplicate-free subset of binary variable indices."""

    vars: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("backdoor contains duplicate variables")
        if tuple(sorted(self.vars)) != self.vars:
            object.__setattr__(self, "vars", tuple(sorted(self.vars)))
        if not self.vars:
            raise ValueError("backdoor is empty")

    @property
    def size(self) -> int:
        return len(self.vars)


@dataclass(frozen=True)
class LabeledSample:
    backdoor: Backdoor
    effort: int
    label: str


@dataclass
class LabelResult:
    """Outcome of labeling one instance's candidates.

    ``skip_reason`` is set (and both sample lists empty) when no candidate
    was strictly better, or none strictly worse, than the baseline solve;
    such instances are excluded from training.
    """

    positives: list[LabeledSample]
    negatives: list[LabeledSample]
    baseline_effort: int
    efforts: list[int]
    skip_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None


def _sample_weights(inst: MilpInstance, why: str) -> tuple[np.ndarray, np.ndarray]:
    """The binary variables and their sampling weights from ``inst``'s root LP;
    ``why`` names the caller in the error raised when that LP is not OPTIMAL."""
    root_lp = inst.lp.solve()
    if root_lp.status != LP_OPTIMAL:
        raise ValueError(f"{why} needs an OPTIMAL root LP")
    pool = inst.arrays.binaries
    weights = fractionality(root_lp.x[pool]) + _FRACTIONALITY_FLOOR
    return pool, weights


def _weighted_draw(rng: np.random.Generator, pool, weights, need: int, taken=()) -> tuple[int, ...]:
    """``need`` variables of ``pool`` outside ``taken``, drawn without
    replacement with probability proportional to their ``weights``."""
    if taken:
        free = ~np.isin(pool, taken)
        pool, weights = pool[free], weights[free]
    chosen = rng.choice(pool, size=need, replace=False, p=weights / weights.sum())
    return tuple(int(j) for j in chosen)


def biased_sample(inst: MilpInstance, K: int, count: int, seed: int) -> list[Backdoor]:
    """Draw ``count`` size-K subsets weighted by root-LP fractionality.

    Each candidate is drawn without replacement with weight
    ``fractionality + 1e-6``, so an all-integral root LP degrades to uniform
    sampling and fractional variables dominate whenever they exist.
    Duplicates across candidates are allowed.
    """
    pool, weights = _sample_weights(inst, "biased sampling")
    if K > pool.size:
        raise ValueError(f"K={K} exceeds the {pool.size} binary variables")
    rng = _rng(seed)
    return [Backdoor(_weighted_draw(rng, pool, weights, K)) for _ in range(count)]


class _MctsNode:
    __slots__ = ("visits", "total", "untried", "children")

    def __init__(self, untried: list[int]):
        self.visits = 0
        self.total = 0.0
        self.untried = untried  # unexpanded actions, ascending variable index
        self.children: list[tuple[int, ...]] = []  # child states, in expansion order


def mcts_search(
    inst: MilpInstance,
    K: int,
    iteration_budget: int,
    *,
    probe_node_limit: int | None,
    seed: int,
    top_k: int,
    stats: dict | None = None,
) -> list[tuple[Backdoor, float]]:
    """UCT search over growing variable subsets; terminal reward = probe weight.

    States are canonical sorted tuples (transpositions merge); expansion
    takes unexpanded actions in ascending variable order, simulation
    completes a partial subset with fractionality-biased sampling, and every
    evaluated size-K subset is recorded.  The returned list holds distinct
    subsets ranked by reward (ties: fewer probe nodes, then lexicographic),
    truncated to ``top_k``.  A given ``stats`` dict receives the search's
    cost: ``probes`` (one per iteration), ``distinct_subsets`` (the probes
    that ran a branch and bound), ``probe_nodes`` (their nodes),
    ``selections`` (the iterations that ran the UCT selection step) and
    ``max_depth`` (the size of the deepest state expanded).
    """
    pool = inst.arrays.binaries.tolist()
    if K > len(pool):
        raise ValueError(f"K={K} exceeds the {len(pool)} binary variables")
    if iteration_budget < 1:
        raise ValueError("iteration budget exhausted before any terminal evaluation")
    bias_pool, bias_weights = _sample_weights(inst, "MCTS")
    rng = _rng(seed)
    selections = max_depth = 0

    tree: dict[tuple[int, ...], _MctsNode] = {(): _MctsNode(list(pool))}
    evaluated: dict[tuple[int, ...], tuple[float, int]] = {}

    def probe(subset: tuple[int, ...]) -> float:
        if subset not in evaluated:
            weight, nodes, _ = restricted_probe(inst, subset, probe_node_limit)
            evaluated[subset] = (weight, nodes)
        return evaluated[subset][0]

    def rollout(state: tuple[int, ...]) -> tuple[int, ...]:
        drawn = _weighted_draw(rng, bias_pool, bias_weights, K - len(state), state)
        return tuple(sorted(state + drawn))

    for _ in range(iteration_budget):
        state: tuple[int, ...] = ()
        path = [state]
        node = tree[state]
        while len(state) < K and not node.untried:
            if len(path) == 1:  # the iteration's first selection step
                selections += 1
            log_n = math.log(node.visits)
            best_child = None
            best_score = -math.inf
            for child_key in node.children:
                child = tree[child_key]
                score = child.total / child.visits + UCT_EXPLORATION * math.sqrt(
                    log_n / child.visits
                )
                if score > best_score + 1e-15:
                    best_score = score
                    best_child = child_key
            state = best_child
            path.append(state)
            node = tree[state]
        if len(state) < K:
            var = node.untried.pop(0)
            child_key = tuple(sorted(state + (var,)))
            if child_key not in tree:
                tree[child_key] = _MctsNode([v for v in pool if v not in child_key])
            node.children.append(child_key)
            state = child_key
            max_depth = max(max_depth, len(state))
            path.append(state)
        terminal = state if len(state) == K else rollout(state)
        reward = probe(terminal)
        for key in path:
            tree[key].visits += 1
            tree[key].total += reward
    if stats is not None:
        stats.update(
            probes=iteration_budget,
            distinct_subsets=len(evaluated),
            probe_nodes=sum(nodes for _, nodes in evaluated.values()),
            selections=selections,
            max_depth=max_depth,
        )

    ranked = sorted(
        evaluated.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0])
    )
    return [(Backdoor(sub), w) for sub, (w, _nodes) in ranked[:top_k]]


def label_samples(
    inst: MilpInstance,
    candidates: list[Backdoor],
    *,
    p: int,
    q: int,
    node_limit: int | None = None,
) -> LabelResult:
    """Measure candidate efforts and split into positive/negative samples.

    Every distinct candidate is solved with its backdoor priorities and the
    instance once more with default priorities (the baseline).  The up-to-p
    lowest efforts strictly below the baseline become positives, the up-to-q
    highest efforts strictly above it become negatives; if either side is
    empty the instance is skipped.
    """
    if not candidates:
        raise ValueError("no candidates to label")
    if p < 1 or q < 1:
        raise ValueError("p and q must be at least 1")
    seen = set()
    distinct: list[Backdoor] = []
    for cand in candidates:
        if cand.vars not in seen:
            seen.add(cand.vars)
            distinct.append(cand)
    baseline = solve_bnb(inst, BnbConfig(node_limit=node_limit))
    base_effort = baseline.nodes_processed
    efforts = []
    for cand in distinct:
        res = solve_bnb(
            inst, BnbConfig(priorities=backdoor_priorities(cand.vars), node_limit=node_limit)
        )
        efforts.append(res.nodes_processed)
    order = range(len(distinct))
    faster = sorted(
        (i for i in order if efforts[i] < base_effort), key=lambda i: (efforts[i], i)
    )
    slower = sorted(
        (i for i in order if efforts[i] > base_effort), key=lambda i: (-efforts[i], i)
    )
    if not faster or not slower:
        reason = "no candidate beat the baseline" if not faster else "no candidate lost to the baseline"
        return LabelResult([], [], base_effort, efforts, skip_reason=reason)

    return LabelResult(
        positives=[LabeledSample(distinct[i], efforts[i], POSITIVE) for i in faster[:p]],
        negatives=[LabeledSample(distinct[i], efforts[i], NEGATIVE) for i in slower[:q]],
        baseline_effort=base_effort,
        efforts=efforts,
    )
