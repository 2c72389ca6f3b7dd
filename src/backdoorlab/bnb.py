"""Branch-and-bound MILP solver with branching priorities and tree metrics.

The solver is the measurement engine of the whole package: solving effort is
its deterministic processed-node count, and every fathomed leaf contributes
``2**-depth`` to the tree weight, a [0, 1] score of how completely (and how
compactly) the search tree closed.  Branching can be steered two ways:

* ``priorities`` rank variables; among fractional binaries the solver always
  branches on one with the highest priority (then highest fractionality,
  then lowest index).
* ``allowed_branch_set`` restricts branching to a subset; a node whose
  fractional binaries all fall outside the subset is fathomed as a leaf.
  This is the probe used to score candidate backdoors.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .inputs import check_integer
from .milp import MilpInstance, fractionality
from .simplex import INFEASIBLE as LP_INFEASIBLE
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import UNBOUNDED as LP_UNBOUNDED

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
NODE_LIMIT = "NODE_LIMIT"

_INT_TOL = 1e-6
# A node is fathomed by bound when it cannot beat the incumbent by this much.
_GAP_TOL = 1e-6


@dataclass(frozen=True)
class BnbConfig:
    """Solver knobs; defaults reproduce the plain solver."""

    priorities: Mapping[int, int] | None = None
    allowed_branch_set: frozenset[int] | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if self.node_limit is not None and check_integer(self.node_limit, "node_limit") < 1:
            raise ValueError(f"node_limit must be None or at least 1, got {self.node_limit}")


# Why a node became a leaf; ``SolveResult.fathomed`` counts each.
FATHOM_REASONS = ("infeasible", "bound", "integral", "restricted")


@dataclass
class SolveResult:
    status: str
    objective: float | None
    incumbent: np.ndarray | None
    nodes_processed: int
    leaf_depths: tuple[int, ...]
    tree_weight: float
    # Leaves by fathom reason (``FATHOM_REASONS``): an infeasible LP, a bound
    # no better than the incumbent (when popped or after the LP solve), an
    # LP point integral on the binaries, or fractional binaries all outside
    # ``allowed_branch_set``.  The counts add up to ``len(leaf_depths)``.
    fathomed: dict[str, int] = field(default_factory=dict)


def tree_weight(leaf_depths: Iterable[int]) -> float:
    """Sum of 2**-depth over fathomed leaves; 1.0 for any completed tree."""
    depths = list(leaf_depths)
    if not depths:
        raise ValueError("tree weight of an empty leaf multiset is undefined")
    return float(sum(math.ldexp(1.0, -int(d)) for d in depths))


def select_branch_var(candidates, fractionality, priorities) -> int:
    """Pick the branching variable among ``candidates`` (variable indices).

    ``fractionality[i]`` and ``priorities[i]`` belong to ``candidates[i]``.
    Highest priority wins, then highest fractionality, then lowest index.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("no fractional variable to branch on")
    order = np.lexsort((candidates, -np.asarray(fractionality), -np.asarray(priorities)))
    return int(candidates[order[0]])


def _priority_array(inst: MilpInstance, cfg: BnbConfig) -> np.ndarray:
    prio = np.zeros(inst.num_vars, dtype=np.int64)
    if cfg.priorities:
        for j, p in cfg.priorities.items():
            if not 0 <= int(j) < inst.num_vars:
                raise ValueError(f"priority for unknown variable {j}")
            prio[int(j)] = int(p)
    return prio


def solve_bnb(inst: MilpInstance, cfg: BnbConfig | None = None) -> SolveResult:
    """Best-bound branch and bound over the binary variables of ``inst``.

    Each popped node re-solves its LP in ``inst.lp``, warm-started from the
    parent basis; children fix the chosen variable to 0 and to 1.  Every
    fractional LP point is also rounded on the binaries and kept as the
    incumbent when feasible and better.  Nodes are fathomed by
    infeasibility, integrality, bound (incumbent minus ``_GAP_TOL``), or by
    the ``allowed_branch_set`` restriction.  Fully deterministic.
    """
    cfg = cfg or BnbConfig()
    if cfg.allowed_branch_set is not None:
        extra = set(cfg.allowed_branch_set) - set(inst.binary_set)
        if extra:
            raise ValueError(f"allowed_branch_set outside binary set: {sorted(extra)}")
    ws = inst.lp
    n = inst.num_vars
    bin_idx = inst.arrays.binaries
    prio = _priority_array(inst, cfg)
    allowed_mask = None
    if cfg.allowed_branch_set is not None:
        allowed_mask = np.zeros(n, dtype=bool)
        allowed_mask[np.fromiter(cfg.allowed_branch_set, dtype=np.int64)] = True

    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    leaf_depths: list[int] = []
    fathomed = dict.fromkeys(FATHOM_REASONS, 0)
    nodes_processed = 0
    hit_limit = False
    seq = 0
    # Heap entries: (bound estimate, insertion order, depth, lo, up, warm basis).
    heap: list = [(-math.inf, seq, 0, inst.arrays.lower, inst.arrays.upper, None)]

    def try_round(x: np.ndarray) -> None:
        nonlocal incumbent, inc_obj
        xr = x.copy()
        xr[bin_idx] = np.round(xr[bin_idx])
        obj = inst.objective_value(xr)
        if obj >= inc_obj - _GAP_TOL:
            return
        if (ws.row_violation(xr) > _INT_TOL).any():
            return
        incumbent, inc_obj = xr, obj

    while heap:
        bound_est, _, depth, lo, up, start = heapq.heappop(heap)
        if bound_est >= inc_obj - _GAP_TOL:
            leaf_depths.append(depth)
            fathomed["bound"] += 1
            continue
        if cfg.node_limit is not None and nodes_processed >= cfg.node_limit:
            hit_limit = True
            break
        sol = ws.solve(lower=lo, upper=up, start=start)
        nodes_processed += 1
        if sol.status == LP_INFEASIBLE:
            leaf_depths.append(depth)
            fathomed["infeasible"] += 1
            continue
        if sol.status == LP_UNBOUNDED:
            raise ValueError("LP relaxation is unbounded; not a solvable MILP here")
        assert sol.status == LP_OPTIMAL
        if sol.objective >= inc_obj - _GAP_TOL:
            leaf_depths.append(depth)
            fathomed["bound"] += 1
            continue
        x = sol.x
        fr = fractionality(x[bin_idx])
        frac_pos = np.flatnonzero(fr > _INT_TOL)
        if frac_pos.size == 0:
            # Integral on the binaries: the LP point is MILP-feasible.
            incumbent, inc_obj = x.copy(), sol.objective
            leaf_depths.append(depth)
            fathomed["integral"] += 1
            continue
        try_round(x)
        frac_vars = bin_idx[frac_pos]
        if allowed_mask is not None:
            keep = allowed_mask[frac_vars]
            if not keep.any():
                leaf_depths.append(depth)
                fathomed["restricted"] += 1
                continue
            frac_vars = frac_vars[keep]
            frac_pos = frac_pos[keep]
        j = select_branch_var(frac_vars, fr[frac_pos], prio[frac_vars])
        warm = (sol.vstat, sol.basis)
        lo_hi = lo.copy()
        lo_hi[j] = 1.0
        up_lo = up.copy()
        up_lo[j] = 0.0
        seq += 1
        heapq.heappush(heap, (sol.objective, seq, depth + 1, lo, up_lo, warm))
        seq += 1
        heapq.heappush(heap, (sol.objective, seq, depth + 1, lo_hi, up, warm))

    weight = tree_weight(leaf_depths) if leaf_depths else 0.0
    if hit_limit:
        status = NODE_LIMIT
    elif incumbent is not None:
        status = OPTIMAL
    else:
        status = INFEASIBLE
    return SolveResult(
        status=status,
        objective=inc_obj if incumbent is not None else None,
        incumbent=incumbent,
        nodes_processed=nodes_processed,
        leaf_depths=tuple(sorted(leaf_depths)),
        tree_weight=weight,
        fathomed=fathomed,
    )


def backdoor_priorities(backdoor_vars: Iterable[int]) -> dict[int, int]:
    """Priority map that makes the solver branch on the backdoor first."""
    return {int(j): 1 for j in backdoor_vars}


def restricted_probe(
    inst: MilpInstance,
    subset: Iterable[int],
    node_limit: int | None = None,
) -> tuple[float, int, bool]:
    """Score a candidate backdoor: branch only inside ``subset``.

    Returns ``(tree_weight, nodes_processed, completed)``.  Nodes whose
    fractional binaries all avoid the subset fathom as leaves, so a completed
    probe has weight 1.0 and a node-limited one reports the explored share.
    """
    sub = frozenset(int(j) for j in subset)
    if not sub:
        raise ValueError("cannot probe an empty variable subset")
    res = solve_bnb(inst, BnbConfig(allowed_branch_set=sub, node_limit=node_limit))
    return res.tree_weight, res.nodes_processed, res.status != NODE_LIMIT
