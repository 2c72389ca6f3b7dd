"""Bipartite feature graph of a MILP plus its root-LP solution.

Variables and constraints form the two node sets; an edge joins variable j
and constraint i exactly where the coefficient matrix is nonzero.  The
feature lists below are this package's pinned contract (changing them is a
dataset-format version bump):

Variable features (15 columns):
  0  objective coefficient / max|c|
  1  is-binary flag
  2  is-continuous flag
  3  has-finite-lower flag
  4  has-finite-upper flag
  5  lower bound / max finite |bound|, clamped to [-1, 1]
  6  upper bound / max finite |bound|, clamped to [-1, 1] (+inf -> 1)
  7  root-LP value
  8  root-LP fractionality
  9  at-lower-bound flag
  10 at-upper-bound flag
  11 reduced cost / max|c|, clamped to [-1, 1]
  12 column nonzero count / m
  13 column mean |coefficient| / max|A|
  14 nonzero-objective flag

Constraint features (4 columns): rhs / max|b|, sense flags LE / GE / EQ.
Edge feature (1 column): coefficient / max|A|.

Any max-norm that would be zero is replaced by one, so degenerate inputs
stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .inputs import check_integer, check_number
from .milp import EQ, GE, INF, LE, MilpInstance, fractionality
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import LpSolution

NUM_VAR_FEATURES = 15
NUM_CONS_FEATURES = 4
NUM_EDGE_FEATURES = 1


# Each array's dtype and shape; the first array with a named count sets it.
_FORMAT = (
    ("var_feats", np.float64, ("n", NUM_VAR_FEATURES)),
    ("cons_feats", np.float64, ("m", NUM_CONS_FEATURES)),
    ("edges", np.int64, ("nnz", 2)),  # rows of (constraint index, variable index)
    ("edge_feats", np.float64, ("nnz", NUM_EDGE_FEATURES)),
    ("binary_mask", np.bool_, ("n",)),
)


@dataclass(frozen=True)
class BipartiteGraph:
    """Dense node features plus a sparse edge list, variable-order aligned.

    Construction keeps a read-only copy of each array in its ``_FORMAT`` dtype
    (so ``node_classes`` stays true to them) and raises ``ValueError`` naming
    the array unless the shapes are as there, the features finite numbers
    (``inputs.check_number``), every edge a pair of integers
    (``inputs.check_integer``) in ``[0, m) x [0, n)`` and every mask entry 0 or 1.
    """

    var_feats: np.ndarray
    cons_feats: np.ndarray
    edges: np.ndarray
    edge_feats: np.ndarray
    binary_mask: np.ndarray

    def __post_init__(self):
        counts: dict[str, int] = {}
        for name, dtype, shape in _FORMAT:
            value = getattr(self, name)
            if dtype is np.float64:
                check_number(value, f"graph {name}")
            else:
                check_integer(value, f"graph {name}", *((0, 2) if dtype is np.bool_ else ()), each=True)
            try:
                a = np.array(value, dtype=dtype)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"graph {name}: {exc}") from None
            if a.shape == (0,) and len(shape) == 2:
                a = a.reshape(0, shape[1])  # an empty table reads back from JSON as []
            if a.ndim != len(shape):
                raise ValueError(f"graph {name} has {a.ndim} dimensions, expected {len(shape)}")
            want = tuple(counts.setdefault(d, k) if isinstance(d, str) else d for d, k in zip(shape, a.shape))
            if a.shape != want:
                raise ValueError(f"graph {name} has shape {a.shape}, expected {want}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        for index, kind, count in zip(self.edges.T, ("constraint", "variable"), (counts["m"], counts["n"])):
            stray = index[(index < 0) | (index >= count)]
            if stray.size:
                raise ValueError(f"graph edges: {kind} index {stray[0]} outside [0, {count})")

    @property
    def num_vars(self) -> int:
        return self.var_feats.shape[0]

    @property
    def num_cons(self) -> int:
        return self.cons_feats.shape[0]

    @cached_property
    def node_classes(self):
        """The attention model's node classes (``gnn.model.NodeClasses``), built once per graph."""
        from .gnn.model import NodeClasses  # the gnn package imports this module

        return NodeClasses.of(self)


def _guard(norm: float) -> float:
    return norm if norm > 0.0 else 1.0


def featurize(inst: MilpInstance, root_lp: LpSolution) -> BipartiteGraph:
    """Build the feature graph from an instance and its OPTIMAL relaxation."""
    if root_lp.status != LP_OPTIMAL:
        raise ValueError("featurize needs an OPTIMAL root-LP solution")
    n, m = inst.num_vars, inst.num_cons
    view = inst.arrays
    c, lo, up, e_coef = view.objective, view.lower, view.upper, view.coef

    c_norm = _guard(float(np.max(np.abs(c))) if n else 0.0)
    a_norm = _guard(float(np.max(np.abs(e_coef))) if e_coef.size else 0.0)
    b_norm = _guard(float(np.max(np.abs(view.rhs))) if m else 0.0)
    finite = np.concatenate([lo[np.isfinite(lo)], up[np.isfinite(up)]])
    bound_norm = _guard(float(np.max(np.abs(finite))) if finite.size else 0.0)

    binary_mask = np.zeros(n, dtype=bool)
    binary_mask[view.binaries] = True

    col_count = np.bincount(view.col, minlength=n).astype(float)
    col_abs_sum = np.bincount(view.col, weights=np.abs(e_coef), minlength=n)
    col_mean = np.divide(col_abs_sum, col_count, out=np.zeros(n), where=col_count > 0)

    V = np.zeros((n, NUM_VAR_FEATURES))
    V[:, 0] = c / c_norm
    V[:, 1] = binary_mask
    V[:, 2] = ~binary_mask
    V[:, 3] = np.isfinite(lo)
    V[:, 4] = np.isfinite(up)
    V[:, 5] = np.clip(np.where(np.isfinite(lo), lo, -INF) / bound_norm, -1.0, 1.0)
    V[:, 6] = np.clip(np.where(np.isfinite(up), up, INF) / bound_norm, -1.0, 1.0)
    V[:, 7] = root_lp.x
    V[:, 8] = fractionality(root_lp.x)
    V[:, 9] = root_lp.at_lower
    V[:, 10] = root_lp.at_upper
    V[:, 11] = np.clip(root_lp.reduced_costs / c_norm, -1.0, 1.0)
    V[:, 12] = col_count / max(m, 1)
    V[:, 13] = col_mean / a_norm
    V[:, 14] = c != 0.0

    C = np.zeros((m, NUM_CONS_FEATURES))
    C[:, 0] = view.rhs / b_norm
    C[:, 1] = view.senses == LE
    C[:, 2] = view.senses == GE
    C[:, 3] = view.senses == EQ

    return BipartiteGraph(
        var_feats=V,
        cons_feats=C,
        edges=np.stack([view.row, view.col], axis=1),
        edge_feats=(e_coef / a_norm).reshape(-1, 1),
        binary_mask=binary_mask,
    )
