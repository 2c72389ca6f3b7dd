"""Bounded-variable dual simplex for LP relaxations, cold and warm.

The solver works on the computational form ``A x + s = b`` where each row's
slack carries the sense (``LE``: s >= 0, ``GE``: s <= 0, ``EQ``: s = 0).

Every solve runs one kernel, the bounded dual method.  A warm solve starts
from a caller-supplied basis, normally the optimal basis of a branch-and-bound
parent whose child changed one bound.  A cold solve starts from the slack
basis, whose inverse is the identity because the slack columns are unit
vectors.  Either start is made dual feasible by moving every column whose
reduced cost has the wrong sign to its other bound.  A column with no finite
bound on that side gets an artificial one (the dual phase 1 by artificial
bounds of Koberstein, "The dual simplex method, techniques for a fast and
stable implementation", PhD thesis, Paderborn 2005).  No optimum is reported
while a column sits at an artificial bound: when the columns held there still
improve the objective along a ray that meets no finite bound the LP is
UNBOUNDED, otherwise the artificial bounds move out and the run goes on from
its basis, for at most ``_ARTIFICIAL_ROUNDS`` rounds.

In each pivot the most infeasible basic variable leaves, and the
bound-flipping ratio test picks the entering column and moves the boxed
columns it passes to their other bound.  After a run of degenerate steps the
choices switch to Bland's rule, lowest column first.  These choices compare
values rounded to float32 or against fixed tolerances, so the last-bit
differences between two inverses of one basis do not change the path (short
of a value on a rounding boundary), and the optimal point is recomputed by an
LU solve on the final basis: a result depends on its inputs, not on which
inverse of the start basis the workspace held.

Every verdict carries a checked proof.  OPTIMAL has two halves.  The point
must lie within its bounds and agree with the carried basic values (the drift
guard), and ``_verify`` checks it against the rows.  Its optimality is the
dual bound ``b·y + Σ_j min(l_j d_j, u_j d_j)`` of ``y = c_B B^-1`` over the
real bounds (the safe bound of Neumaier and Shcherbina, Math. Programming 99,
2004), which must reach the objective within 1e-9 (1 + |objective|); it fails
when the carried reduced costs stopped the run short of optimal.  INFEASIBLE
stands only when the pivot row proves it (a Farkas certificate recomputed from
that row against the real bounds), and UNBOUNDED only on a free ray.  A point
or a bound that fails rebuilds an inverse that carried updates, at most once
per run, and the run goes on.  A warm start whose nonbasic columns do not sit
at finite bounds, an unproven verdict or a numerical failure (a point or bound
that fails with no update to blame, or fails again after its run's rebuild, is
one) is retried from the slack basis, counted in ``cold_retries``; the same
failure of a cold run raises :class:`SimplexNumericalError`.

The kernel is plain numpy over a dense explicit inverse: pricing, the ratio
test and the infeasibility scan are array operations over all columns or
rows, and only the ratio test's tie rules walk the few candidates left after
them.  An inversion sends only the basic structural columns to LAPACK: the
slack columns are unit vectors.

:class:`LpWorkspace` memoizes: a solve whose bounds and start basis repeat an
earlier one returns that solve's result.  It also keeps basis
inverses, as many as fit in ``_INVERSE_BUDGET`` floats (at least two; 17 at
m = 87, two from m = 210 on), least recently used evicted first: the final
inverse of every kernel run that ends optimal, so its children skip the
inversion, and every inverse computed for a start basis, so the second
sibling does too.  Each kept inverse carries its count of rank-one updates,
and a kernel rebuilds it once the count reaches ``_REFACTOR_EVERY`` or when
its final point breaks its bounds or disagrees with the carried one, or its
dual bound falls short of the objective (these last at most once per run).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .milp import GE, INF, LE, SENSES, MilpInstance

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
# The dual's ``side`` of a column by its ``vstat``: -1 at its lower bound, +1
# at its upper bound, 0 when basic.
_SIDE = np.array([-1.0, 1.0, 0.0])

# Primal (bound) and dual (reduced cost) feasibility tolerances.
_FTOL = 1e-7
_DTOL = 1e-9
_FTOL32 = np.float32(_FTOL)
_PIVOT_EPS = 1e-9
_REFACTOR_EVERY = 128
# Basis size from which a rank-one update may skip the rows it leaves alone.
_SPARSE_UPDATE_ROWS = 128
# Solves remembered per workspace (least recently used evicted first): 384
# and the root, which every branch and bound looks up first.
_SOLVE_MEMO_CAP = 385
# Floats of kept basis inverses per workspace (1 MB); at least two are kept.
_INVERSE_BUDGET = 1 << 17
# An artificial bound starts this far from the column's finite bound, and
# each round that ends on one moves every artificial bound _ARTIFICIAL_GROWTH
# times further out.
_ARTIFICIAL_WIDTH = 1e6
_ARTIFICIAL_GROWTH = 100.0
_ARTIFICIAL_ROUNDS = 3

# Dense workspace memory guard: (n+m) * m floats.
_MAX_DENSE_CELLS = 40_000_000


class SimplexIterationError(RuntimeError):
    """Iteration limit hit before a status could be proven."""


class SimplexNumericalError(RuntimeError):
    """The basis became numerically unusable at the requested tolerances."""


class _Unsettled(Exception):
    """A kernel run ended without a verdict; a run from the slack basis may give one."""


@dataclass
class LpSolution:
    """Result of one LP solve.

    ``reduced_costs``, ``at_lower`` and ``at_upper`` cover the structural
    variables only.  ``vstat``/``basis`` snapshot the final basis so a
    follow-up solve with modified bounds can warm start.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    reduced_costs: np.ndarray | None
    at_lower: np.ndarray | None
    at_upper: np.ndarray | None
    iterations: int
    vstat: np.ndarray | None = None
    basis: np.ndarray | None = None


def _snap(values: list[float]) -> list[float]:
    """``values`` rounded to float32, so values that differ only in their last
    float64 bits compare equal unless a float32 rounding boundary lies between."""
    return array("f", values).tolist()


def _replace_column(Binv: np.ndarray, w: np.ndarray, r: int, outer: np.ndarray | None = None) -> None:
    """Rank-one update of ``Binv`` in place when the column ``a`` with
    ``w = Binv a`` replaces basis position ``r``.

    The products ``w[i] * Binv[r, j] / w[r]`` come from one BLAS outer
    product, written into the leading rows of ``outer``, a scratch array
    shaped like ``Binv`` (made here if not given).  A nonzero product is
    rounded as an elementwise multiply rounds it, and a zero one is +0, so
    the rows where ``w`` is 0 keep their values bit for bit.  From
    ``_SPARSE_UPDATE_ROWS`` rows on, a ``w`` with fewer than half its entries
    nonzero updates only those rows; below it the gather and scatter cost
    more than the rows they skip.
    """
    if outer is None:
        outer = np.empty_like(Binv)
    br = Binv[r] / w[r]
    rows = w.nonzero()[0] if w.size >= _SPARSE_UPDATE_ROWS else None
    if rows is not None and 2 * rows.size < w.size:
        Binv[rows] -= np.dot(w.take(rows)[:, None], br[None, :], out=outer[: rows.size])
    else:
        Binv -= np.dot(w[:, None], br[None, :], out=outer)
    Binv[r] = br


def _dual_leaving_row(viol, basis, bland) -> int:
    """The dual's leaving row, or -1 when no violation exceeds ``_FTOL``.

    The row with the largest violation rounded to float32 leaves (any of the
    violated rows in Bland mode), ties to the lowest basic column.
    """
    if not bland and viol.size:
        v32 = viol.astype(np.float32)
        top = v32[v32.argmax()]
        # Rounding to float32 is monotone, so above the rounded tolerance
        # every row at ``top`` is violated and ``top`` is their maximum.
        if top > _FTOL32:
            rows = (v32 == top).nonzero()[0]
            return int(rows[0] if rows.size == 1 else rows[basis[rows].argmin()])
    rows = (viol > _FTOL).nonzero()[0]
    if not rows.size:
        return -1
    if rows.size > 1 and not bland:
        v = viol[rows].astype(np.float32)
        rows = rows[v == v.max()]
    return int(rows[basis[rows].argmin()])


class LpWorkspace:
    """Reusable dense workspace for repeated solves of one instance's LP relaxation.

    Branch-and-bound re-solves the same matrix thousands of times with only
    variable bounds changing, so the extended column matrix is built once.
    The instance's ``binary_set`` is ignored, and it is not validated here:
    ``MilpInstance.lp`` validates it once through ``lp_relaxation`` and
    builds the one workspace that all of that instance's solves share.  Solves
    go through a memo of the last ``_SOLVE_MEMO_CAP`` results, keyed exactly
    by the bounds and the start basis; a hit returns the earlier result.  The
    root LP (the cold solve at the base bounds) is one of them, and every
    branch and bound looks it up first, so it stays recently used.  Memoized
    results have read-only arrays.

    The workspace counts exactly what its solves did (see :meth:`counters`):
    ``memo_hits`` solves answered from the memo, ``cold_retries`` warm
    starts that were retried from the slack basis, ``kernel_runs`` the runs
    of the dual kernel, ``pivots`` every pivot they made (a run that raised
    included), ``inversions`` the ``np.linalg.inv`` calls (the slack basis's
    identity is not one), ``refactorizations`` those of them that rebuilt an
    inverse a kernel was carrying (after ``_REFACTOR_EVERY`` updates, or when
    the LU-resolved final point breaks its bounds or disagrees with the
    carried one, or its dual bound falls short), ``inverse_hits`` the warm
    starts whose inverse was kept, and ``uncertified`` the optima whose dual
    bound fell short of their objective (each one rebuilt, retried cold or
    refused, never reported).
    """

    COUNTERS = (
        "memo_hits", "cold_retries", "kernel_runs", "pivots", "inversions",
        "refactorizations", "inverse_hits", "uncertified",
    )

    def __init__(self, lp: MilpInstance):
        n, m = lp.num_vars, lp.num_cons
        if (n + m) * max(m, 1) > _MAX_DENSE_CELLS:
            raise ValueError(
                f"problem too large for the dense simplex ({n} vars, {m} rows)"
            )
        self.n = n
        self.m = m
        self._slack_key = np.arange(n, n + m, dtype=np.int64).tobytes()
        N = n + m
        view = lp.arrays
        self.WT = WT = np.zeros((N, m))
        WT[view.col, view.row] = view.coef
        np.fill_diagonal(WT[n:], 1.0)
        self.b = view.rhs
        self.c_ext = np.concatenate([view.objective, np.zeros(m)])
        bad = [s for s in lp.senses if s not in SENSES]
        if bad:
            raise ValueError(f"unknown sense {bad[0]!r}")
        self.slack_lo = np.where(view.senses == GE, -INF, 0.0)
        self.slack_up = np.where(view.senses == LE, INF, 0.0)
        # A solve's bounds table: rows lower, upper and 0, so that row
        # ``vstat[j]`` of column j is where a nonbasic column j sits (0 when
        # basic).  The slack columns' entries never change.
        self._bounds = np.zeros((3, N))
        self._bounds[0, n:] = self.slack_lo
        self._bounds[1, n:] = self.slack_up
        self._columns = np.arange(N)
        self.base_lower = _lower_bounds(view.lower, n)
        self.base_upper = _upper_bounds(view.upper, n)
        self._memo: OrderedDict[tuple, LpSolution] = OrderedDict()
        # Kept basis inverses: basis bytes -> (inverse, rank-one updates in it).
        self._inverses: OrderedDict[bytes, tuple[np.ndarray, int]] = OrderedDict()
        self._inverses_cap = max(2, _INVERSE_BUDGET // max(m * m, 1))
        self._outer = np.empty((m, m))  # the rank-one updates' scratch; untouched until a pivot
        self._iter_limit = 2000 + 50 * (n + 2 * m)
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def counters(self) -> dict[str, int]:
        """The solve counters by name."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def cold_start(self):
        """Slack basis with every structural at its lower bound."""
        n, m = self.n, self.m
        vstat = np.full(n + m, _AT_LOWER, dtype=np.int8)
        vstat[n:] = _BASIC
        basis = np.arange(n, n + m, dtype=np.int64)
        return vstat, basis

    def solve(
        self,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        start: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> LpSolution:
        """Solve with optionally overridden structural bounds and warm basis.

        Bounds that cross (a lower above its upper) are INFEASIBLE at once.
        """
        n = self.n
        lower = self.base_lower if lower is None else _lower_bounds(lower, n)
        upper = self.base_upper if upper is None else _upper_bounds(upper, n)
        if not _all(lower <= upper):
            return _read_only(LpSolution(INFEASIBLE, None, None, None, None, None, 0))
        # The slack bounds never change, so the structural ones identify the
        # bounds; the kernel is deterministic, so bit-identical inputs give the
        # earlier result.
        key = (lower.tobytes(), upper.tobytes())
        if start is not None:
            key += (start[0].tobytes(), start[1].tobytes())
        sol = self._memo.get(key)
        if sol is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return sol
        sol = self._memo[key] = _read_only(self._solve(lower, upper, start))
        if len(self._memo) > _SOLVE_MEMO_CAP:
            self._memo.popitem(last=False)
        return sol

    def _solve(self, lower, upper, start) -> LpSolution:
        """One counted kernel run from ``start``, or from the slack basis when
        it is None.  A run that the slack basis may rescue (a singular basis
        is one) is retried cold once, counted in ``cold_retries``."""
        n = self.n
        bounds = self._bounds.copy()
        bounds[0, :n] = lower
        bounds[1, :n] = upper
        vstat, basis = self.cold_start() if start is None else (start[0].copy(), start[1].copy())
        self.kernel_runs += 1
        try:
            return self._dual(bounds, vstat, basis)
        except (_Unsettled, np.linalg.LinAlgError):
            if start is None:
                raise SimplexNumericalError("simplex failed numerically from the slack basis") from None
        self.cold_retries += 1
        return self._solve(lower, upper, None)

    def _split(self, basis: np.ndarray):
        """The basis's structural columns and the slack-free block they fill.

        Returns the positions of the structural and of the slack columns in
        ``basis``, the rows of the basic slacks, the other rows, and the rows
        of ``WT`` for the structural columns.  A slack column is a unit
        vector, so the basis matrix is square and nonsingular exactly when the
        structural columns restricted to the other rows are.
        """
        struct = basis < self.n
        T = struct.nonzero()[0]
        S = (~struct).nonzero()[0]
        rs = basis[S] - self.n
        free = np.ones(self.m, dtype=bool)
        free[rs] = False
        return T, S, rs, free.nonzero()[0], self.WT[basis[T]]

    def _invert(self, basis: np.ndarray) -> np.ndarray:
        """A fresh inverse of the basis matrix, whose columns are ``WT[basis]``.

        Only the structural block goes to LAPACK: a basic slack's row of the
        inverse is its unit row minus its row's structural part.
        """
        self.inversions += 1
        T, S, rs, rf, At = self._split(basis)
        Minv = np.linalg.inv(At[:, rf].T)
        Binv = np.zeros((self.m, self.m))
        Binv[T[:, None], rf] = Minv
        Binv[S[:, None], rf] = -np.dot(At[:, rs].T, Minv)
        Binv[S, rs] = 1.0
        return Binv

    def _basic_values(self, basis: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The basic variables' values for ``B xB = rhs``, by an LU solve."""
        T, S, rs, rf, At = self._split(basis)
        xB = np.empty(self.m)
        xB[T] = xT = np.linalg.solve(At[:, rf].T, rhs[rf])
        xB[S] = rhs[rs] - np.dot(xT, At[:, rs])
        return xB

    def _start_inverse(self, basis: np.ndarray) -> tuple[np.ndarray, int]:
        """A private copy of ``basis``'s inverse and its update count.

        An inverse computed here is kept too: the sibling of a branch-and-bound
        child starts from the same basis.  The slack basis's inverse is the
        identity, since the slack columns of ``WT`` are unit vectors.
        """
        key = basis.tobytes()
        if key == self._slack_key:
            return np.eye(self.m), 0
        kept = self._inverses.get(key)
        if kept is None:
            kept = (self._invert(basis), 0)
            self._keep_inverse(basis, *kept)
        else:
            self._inverses.move_to_end(key)
            self.inverse_hits += 1
        return kept[0].copy(), kept[1]

    def _keep_inverse(self, basis: np.ndarray, Binv: np.ndarray, updates: int) -> None:
        key = basis.tobytes()
        self._inverses[key] = (Binv, updates)
        self._inverses.move_to_end(key)
        if len(self._inverses) > self._inverses_cap:
            self._inverses.popitem(last=False)

    def _dual(self, bounds, vstat, basis):
        """Bounded dual simplex from the basis ``(vstat, basis)``.

        ``bounds`` is the solve's bounds table (see ``__init__``); ``vstat``
        and ``basis`` are updated in place.  Returns the run's OPTIMAL,
        INFEASIBLE or UNBOUNDED solution; an optimum is reported only when
        its point passes its re-check and ``_verify`` and its dual bound
        (``_dual_bound``) reaches its objective, and then its final inverse
        is kept.  Raises :class:`SimplexIterationError` at the iteration
        limit and ``_Unsettled`` for a nonbasic column at an infinite bound,
        a final point or dual bound that fails with no update to blame or
        again after the one rebuild a run makes for either, an infeasible
        verdict that the pivot row does not prove, and an artificial bound
        still held after ``_ARTIFICIAL_ROUNDS`` rounds.  Each pivot is
        counted in ``pivots`` as it is made, each failed dual bound in
        ``uncertified``.
        """
        WT, b, c = self.WT, self.b, self.c_ext
        n, m = self.n, self.m
        dtol = _DTOL
        lo, up = bounds[0], bounds[1]
        # Each nonbasic column at its bound; basic entries are 0.
        z = bounds[vstat, self._columns]
        if not _all(np.isfinite(z)):
            raise _Unsettled
        Binv, updates = self._start_inverse(basis)
        # Per column: its side, reduced cost, bound width and pivot row
        # entry, in one array so that the ratio test gathers its candidates'
        # values in one step.  A column is dual feasible while side * d <= 0;
        # fixed columns have side 0.
        cols = np.empty((4, len(lo)))
        side, d, width, alpha = cols[0], cols[1], cols[2], cols[3]
        side[:] = _SIDE.take(vstat)
        np.subtract(up, lo, out=width)
        fixed = width <= 0.0
        side[fixed] = 0.0
        np.subtract(c, np.dot(WT, np.dot(c[basis], Binv)), out=d)
        # A column with the wrong reduced cost sign moves to its other bound.
        # Where that bound is infinite, the column gets an artificial one on
        # the side ``art_side`` (+1 upper, -1 lower) of working bound copies.
        wrong = (side * d > dtol).nonzero()[0]
        art = wrong[np.isinf(width[wrong])]
        art_side = -side[art]
        span = _ARTIFICIAL_WIDTH
        rounds = 0

        def box():
            """Artificial bounds ``span`` from the finite ones; the columns at
            them move with them."""
            rise = art_side > 0.0
            up[art] = np.where(rise, bounds[0, art] + span, bounds[1, art])
            lo[art] = np.where(rise, bounds[0, art], bounds[1, art] - span)
            width[art] = span
            held = art[side[art] == art_side]
            z[held] = np.where(side[held] > 0.0, up[held], lo[held])

        def flip(moved):
            """Nonbasic columns ``moved`` (none of them fixed) to their other bound."""
            side[moved] = -side[moved]
            rise = side[moved] > 0.0
            vstat[moved] = np.where(rise, _AT_UPPER, _AT_LOWER)
            z[moved] = np.where(rise, up[moved], lo[moved])

        def values():
            return np.dot(Binv, b - np.dot(z, WT)), lo[basis], up[basis]

        if art.size:
            lo, up = lo.copy(), up.copy()
            box()
        if wrong.size:
            flip(wrong)
        xB, loB, upB = values()

        iters = 0
        degen_run = 0
        bland = False
        rebuilt = False  # whether a failed exit check has rebuilt the inverse
        while iters < self._iter_limit:
            if updates >= _REFACTOR_EVERY:
                self.refactorizations += 1
                Binv = self._invert(basis)
                updates = 0
                xB, loB, upB = values()
                np.subtract(c, np.dot(WT, np.dot(c[basis], Binv)), out=d)

            viol = np.maximum(loB - xB, xB - upB)
            r = _dual_leaving_row(viol, basis, bland)
            if r < 0:
                held = art[side[art] == art_side]
                if held.size:
                    # An optimum on an artificial bound.  While the held
                    # columns gain together, they either prove a free ray (the
                    # way the optimum moves as the bounds move out) or need
                    # the bounds further out; the columns that no longer gain
                    # go back to their finite bound.
                    gain = side[held] * d[held] < -dtol
                    rate = np.dot(side[held], d[held])
                    if rate < -dtol and self._free_ray(Binv, basis, held, side[held], bounds):
                        return LpSolution(UNBOUNDED, None, None, None, None, None, iters)
                    if rounds == _ARTIFICIAL_ROUNDS:
                        raise _Unsettled
                    rounds += 1
                    flip(held[~gain])
                    if gain.any():
                        span *= _ARTIFICIAL_GROWTH
                        box()
                    xB, loB, upB = values()
                    continue
                # The point comes from the final basis alone, not from the
                # updates that led there, and it must agree with the carried
                # one: this check sees a drifted inverse.  (A pivot row and
                # column test would not: with an explicit inverse, both
                # products read the same ``Binv``.)
                xLU = self._basic_values(basis, b - np.dot(z, WT))
                off = _any(np.maximum(loB - xLU, xLU - upB) > _FTOL)
                if not (off or _any(np.abs(xLU - xB) > 1e-9 * (1.0 + np.abs(xB)))):
                    z[basis] = xLU
                    x = z[:n].clip(bounds[0, :n], bounds[1, :n])
                    self._verify(x, bounds[0, :n], bounds[1, :n])
                    objective = float(c[:n] @ x)
                    # The optimum's dual half: the bound of y = c_B B^-1 must
                    # reach the objective.  ``d`` is recomputed from y, so
                    # carried reduced costs that went wrong cannot pass.
                    y = np.dot(c[basis], Binv)
                    np.subtract(c, np.dot(WT, y), out=d)
                    bound = self._dual_bound(y, d, bounds[0], bounds[1])
                    if bound >= objective - 1e-9 * (1.0 + abs(objective)):
                        self._keep_inverse(basis, Binv, updates)
                        return LpSolution(
                            status=OPTIMAL,
                            x=x,
                            objective=objective,
                            reduced_costs=d[:n].copy(),  # not a view that keeps ``cols`` in the memo
                            at_lower=vstat[:n] == _AT_LOWER,
                            at_upper=vstat[:n] == _AT_UPPER,
                            iterations=iters,
                            vstat=vstat,
                            basis=basis,
                        )
                    self.uncertified += 1
                    z[basis] = 0.0
                # A point or a bound that fails: rebuild a carried inverse
                # once, and recompute from it.
                if updates == 0 or rebuilt:
                    raise _Unsettled
                rebuilt = True
                updates = _REFACTOR_EVERY
                continue

            x_r = float(xB[r])
            to_lower = x_r < loB[r]
            viol_r = float(viol[r])
            rho = Binv[r]
            np.dot(WT, rho, out=alpha)

            # Bound-flipping ratio test.  As the dual step grows, each
            # candidate's reduced cost falls to 0 at its breakpoint; past it the
            # column flips to its other bound, which cuts the row's violation
            # by |alpha| * width.  The entering column is the one whose flip
            # would use up what is left of the violation.
            key = side * alpha
            q = ((key > _PIVOT_EPS) if to_lower else (key < -_PIVOT_EPS)).nonzero()[0]
            sq, dq, wq, alq = cols.take(q, axis=1).tolist()
            # The candidates' |alpha| and breakpoints -side * d / |alpha|
            # (side * d <= 0 while a column is dual feasible).
            aq = [s * a if to_lower else -(s * a) for s, a in zip(sq, alq)]
            t = [-(s * v) / a if -(s * v) > dtol else 0.0 for s, v, a in zip(sq, dq, aq)]
            snapped = _snap(t + aq)
            # In breakpoint order, ties to the lowest column.
            cand = sorted(zip(snapped, q.tolist(), aq, snapped[len(t):], wq, t))
            # A violation used up to within tol counts as used up.
            tol = 1e-9 * max(1.0, viol_r)
            left = viol_r
            k = -1
            for i, (_, _, a, _, wd, _) in enumerate(cand):
                if left - a * wd <= tol:
                    k = i
                    break
                left -= a * wd
            if k < 0:
                # Every flip together leaves the row infeasible (then the row
                # must prove it) or feasible within ftol (the last one enters).
                if not cand or left > _FTOL:
                    if self._proves_infeasible(rho, alpha, bounds[0], bounds[1]):
                        return LpSolution(INFEASIBLE, None, None, None, None, None, iters)
                    # Unproven: an artificial bound may be what cuts the row off.
                    if not art.size or rounds == _ARTIFICIAL_ROUNDS:
                        raise _Unsettled
                    rounds += 1
                    span *= _ARTIFICIAL_GROWTH
                    box()
                    xB, loB, upB = values()
                    continue
                k = len(cand) - 1
                left += cand[k][2] * cand[k][4]
            pick = k
            if not bland:
                # Among the ties at this breakpoint that can take what is left
                # of the violation, the largest pivot; then the lowest column.
                t_k, best = cand[k][0], cand[k][3]
                for i in range(k + 1, len(cand)):
                    t_i, _, a, a32, wd, _ = cand[i]
                    if t_i != t_k:
                        break
                    if a32 > best and a * wd - left >= -tol:
                        pick, best = i, a32
            # The exact dual step is the entering column's breakpoint.
            t_snap, enter, _, _, _, t_step = cand[pick]

            w = np.dot(Binv, WT[enter])
            piv = float(w[r])
            if k:
                passed = np.array([cand[i][1] for i in range(k)])
                flip(passed)
                xB -= np.dot(Binv, np.dot(side[passed] * width[passed], WT[passed]))
                x_r = float(xB[r])

            bound = float(loB[r] if to_lower else upB[r])
            theta = (x_r - bound) / piv
            xB -= theta * w
            xB[r] = z[enter] + theta
            out = basis[r]
            vstat[out] = _AT_LOWER if to_lower else _AT_UPPER
            side[out] = 0.0 if fixed[out] else (-1.0 if to_lower else 1.0)
            z[out] = bound
            z[enter] = 0.0
            side[enter] = 0.0
            loB[r] = lo[enter]
            upB[r] = up[enter]
            _replace_column(Binv, w, r, self._outer)
            basis[r] = enter
            vstat[enter] = _BASIC
            updates += 1
            # The dual step moves the reduced costs along the pivot row.
            d += (t_step if to_lower else -t_step) * alpha
            d[enter] = 0.0

            if t_snap == 0.0:
                degen_run += 1
                if degen_run > 100 + 2 * m:
                    bland = True
            else:
                degen_run = 0
                bland = False
            iters += 1
            self.pivots += 1

        raise SimplexIterationError(
            f"simplex hit the iteration limit ({self._iter_limit}) without a verdict"
        )

    def _dual_bound(self, y, d, lo, up) -> float:
        """The safe bound ``b·y + Σ_j min(lo_j d_j, up_j d_j)`` over all columns,
        where ``d = c - W^T y``: no point within ``lo`` and ``up`` that meets
        the rows has a lower objective, whatever ``y`` is and whether or not
        its basis is optimal (Neumaier and Shcherbina, Math. Programming 99,
        2004).  A reduced cost within ``_DTOL`` counts as 0, as the kernel
        accepts; one beyond it on a side whose bound is infinite gives -inf.
        """
        # The bound each column's reduced cost meets: lower for d > 0, upper
        # for d < 0, and 0 where d counts as 0, so no infinite bound meets a
        # zero d.  Every infinite product is -inf (d > 0 times a lower bound
        # of -inf, d < 0 times an upper bound of +inf), and so is the sum.
        at = np.where(d > _DTOL, lo, np.where(d < -_DTOL, up, 0.0))
        return float(np.dot(self.b, y) + np.dot(d, at))

    def _free_ray(self, Binv, basis, cols, t, bounds) -> bool:
        """Whether columns ``cols`` can move together by ``t`` per unit, the
        basic variables by ``-B^-1 (t . a_cols)``, without ever meeting a
        finite bound."""
        delta = -np.dot(Binv, np.dot(t, self.WT[cols]))
        return not (
            _any((delta > _PIVOT_EPS) & (bounds[1, basis] < INF))
            or _any((delta < -_PIVOT_EPS) & (bounds[0, basis] > -INF))
        )

    def _proves_infeasible(self, rho, alpha, lo, up) -> bool:
        """Farkas check: every solution of ``W x = b`` has ``alpha . x = rho . b``
        with ``alpha = rho W``; true if no x within the bounds reaches it."""
        j = np.flatnonzero(np.abs(alpha) > _PIVOT_EPS)
        g = alpha[j]
        low = np.where(g > 0.0, g * lo[j], g * up[j]).sum()
        high = np.where(g > 0.0, g * up[j], g * lo[j]).sum()
        target = float(np.dot(rho, self.b))
        return target < low - _FTOL or target > high + _FTOL

    def row_violation(self, x: np.ndarray) -> np.ndarray:
        """Each row's violation at ``x``: how far ``A x`` lies above ``b`` on an
        LE or EQ row, or below it on a GE or EQ row (0 or less where it holds)."""
        s = self.b - x @ self.WT[: self.n]
        return np.maximum(self.slack_lo - s, s - self.slack_up)

    def _verify(self, x: np.ndarray, lo: np.ndarray, up: np.ndarray) -> None:
        """Never report a wrong OPTIMAL: a finite point, bounds within 1e-9,
        rows within 1e-7."""
        if not _all(np.isfinite(x)):
            raise SimplexNumericalError("optimal point is not finite")
        if _any(x < lo - 1e-9) or _any(x > up + 1e-9):
            raise SimplexNumericalError("optimal point violates variable bounds")
        bad = self.row_violation(x) > 1e-7
        if _any(bad):
            raise SimplexNumericalError(
                f"optimal point violates row {int(np.argmax(bad))}"
            )


def _any(mask: np.ndarray) -> bool:
    """``mask.any()``, without the Python layer of the ndarray reduction."""
    return np.count_nonzero(mask) > 0


def _all(mask: np.ndarray) -> bool:
    """``mask.all()``, without the Python layer of the ndarray reduction."""
    return np.count_nonzero(mask) == mask.size


def _read_only(sol: LpSolution) -> LpSolution:
    for arr in (sol.x, sol.reduced_costs, sol.at_lower, sol.at_upper, sol.vstat, sol.basis):
        if arr is not None:
            arr.setflags(write=False)
    return sol


def _bound_array(values, n: int, name: str) -> np.ndarray:
    bounds = np.asarray(values, dtype=float)
    if bounds.shape != (n,):
        raise ValueError(f"{name} bounds have shape {bounds.shape}, expected ({n},)")
    return bounds


def _lower_bounds(values, n: int) -> np.ndarray:
    lower = _bound_array(values, n, "lower")
    if not _all(np.isfinite(lower)):
        raise ValueError("the simplex needs a finite lower bound on every variable")
    return lower


def _upper_bounds(values, n: int) -> np.ndarray:
    upper = _bound_array(values, n, "upper")
    if _any(np.isnan(upper)):
        raise ValueError("an upper bound is NaN")
    return upper
