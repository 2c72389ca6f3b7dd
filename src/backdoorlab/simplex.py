"""Bounded-variable primal simplex for LP relaxations.

The solver works on the computational form ``A x + s = b`` where each row's
slack carries the sense (``LE``: s >= 0, ``GE``: s <= 0, ``EQ``: s = 0).
Phase 1 minimizes the total bound violation of the basic variables starting
from any basis (the slack basis cold, or a caller-supplied warm basis whose
bounds changed); phase 2 runs the usual bounded ratio test with bound flips.

Pivot selection is Dantzig's rule with lowest-index tie-breaks and an
automatic switch to Bland's rule after a run of degenerate steps, so repeated
solves of the same problem take the identical pivot path.  The dense kernel
is plain numpy: pricing, the ratio test and the infeasibility scan are array
operations over all columns or rows, and only the order-dependent tie rule
of the ratio test walks the few rows whose ratios tie with the minimum.

Because the kernel is deterministic, :class:`LpWorkspace` memoizes: a solve
whose bounds, start basis and iteration limit repeat an earlier one returns
that solve's result, and the inverse of the last warm start basis is kept
for the next solve that starts from the same basis (branching siblings).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .milp import EQ, GE, INF, LE, LpProblem

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

_ST_OPTIMAL = 0
_ST_INFEASIBLE = 1
_ST_UNBOUNDED = 2
_ST_ITER = 3
_ST_NUMERIC = 4

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_PIVOT_EPS = 1e-9
_TIE_EPS = 1e-12
_REFACTOR_EVERY = 128
# Solves remembered per workspace (least recently used evicted first).
_SOLVE_MEMO_CAP = 384

# Dense workspace memory guard: (n+m) * m floats.
_MAX_DENSE_CELLS = 40_000_000


class SimplexIterationError(RuntimeError):
    """Iteration limit hit before a status could be proven."""


class SimplexNumericalError(RuntimeError):
    """The basis became numerically unusable at the requested tolerances."""


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


def _basis_inverse(WT, basis):
    """Inverse of the basis matrix, whose columns are the rows ``WT[basis]``."""
    m = basis.size
    if np.array_equal(basis, np.arange(WT.shape[0] - m, WT.shape[0])):
        # The slack basis is the identity (LAPACK returns it bit for bit).
        return np.eye(m)
    return np.ascontiguousarray(np.linalg.inv(WT[basis].T))


def _nonbasic_values(vstat, lo, up):
    """Each nonbasic variable at its bound; basic entries are 0."""
    return np.where(vstat == _AT_LOWER, lo, np.where(vstat == _AT_UPPER, up, 0.0))


def _leaving_row(theta, pw, col, bland):
    """Position in ``theta`` of the leaving row and its ratio, or ``(-1, INF)``.

    ``theta`` holds the finite ratios of the eligible rows in row order, ``pw``
    their pivot magnitudes and ``col`` their basic columns.  The rule is a scan
    in row order: a ratio below the best by more than ``_TIE_EPS`` takes over,
    and one within ``_TIE_EPS`` of it wins on the lowest column (Bland) or the
    largest pivot.  Because the scan depends on visiting order it still runs,
    but only over the rows whose sorted ratios chain up from the minimum in
    steps that stay within reach of the tie window.  Past the first wider gap
    (tested with the scan's own float comparisons) a row can neither win nor
    change the scan's state: after any chain row the best ratio is at most the
    chain's top, which such a row cannot tie, and a chain row displaces any
    such row visited before it outright.
    """
    ratios = theta.tolist()
    v = sorted(ratios)
    cut = v[-1] if v else INF
    for lo_v, hi_v in zip(v, v[1:]):
        if hi_v > lo_v + _TIE_EPS and hi_v - _TIE_EPS > lo_v:
            cut = lo_v
            break
    theta_piv = INF
    leave = -1
    leave_pw = 0.0
    leave_col = -1
    for k, th in enumerate(ratios):
        if th > cut:
            continue
        p, cb = pw[k], col[k]
        if th < theta_piv - _TIE_EPS:
            theta_piv, leave, leave_pw, leave_col = th, k, p, cb
        elif th <= theta_piv + _TIE_EPS and leave >= 0:
            # Tie: take the lowest column in Bland mode (anti-cycling),
            # the largest pivot otherwise (stability).
            if cb < leave_col if bland else p > leave_pw:
                if th < theta_piv:
                    theta_piv = th
                leave, leave_pw, leave_col = k, p, cb
    return leave, theta_piv


def _kernel(WT, b, lo, up, c, vstat, basis, ftol, dtol, max_iter, Binv=None):
    """Two-phase bounded simplex on the transposed column matrix ``WT``.

    ``vstat`` and ``basis`` are updated in place, and so is ``Binv``, the
    start basis's inverse (computed here when not given).  Returns
    ``(status, iterations, xall, y)`` where ``xall`` holds all structural and
    slack values (``None`` unless optimal) and ``y`` the final dual vector.
    """
    N, m = WT.shape
    y = np.zeros(m)
    # Fixed variables (including EQ slacks) never enter the basis.
    movable = ~(up - lo <= 0.0)

    if Binv is None:
        Binv = _basis_inverse(WT, basis)
    z = _nonbasic_values(vstat, lo, up)
    xB = np.dot(Binv, b - np.dot(z, WT))

    phase = 1
    iters = 0
    degen_run = 0
    bland = False
    since_refactor = 0

    while iters < max_iter:
        if since_refactor >= _REFACTOR_EVERY:
            Binv = _basis_inverse(WT, basis)
            z = _nonbasic_values(vstat, lo, up)
            xB = np.dot(Binv, b - np.dot(z, WT))
            since_refactor = 0

        loB = lo[basis]
        upB = up[basis]
        below = xB < loB - ftol
        above = ~below & (xB > upB + ftol)
        worst = max(
            np.maximum.reduce(loB[below] - xB[below], initial=0.0),
            np.maximum.reduce(xB[above] - upB[above], initial=0.0),
        )
        if phase == 1 and worst == 0.0:
            phase = 2
        elif phase == 2 and worst > 10.0 * ftol:
            # Drift pushed a basic variable out of its bounds: repair first.
            phase = 1

        # score[j]: rate at which moving nonbasic column j off its bound
        # lowers the infeasibility sum (phase 1) or the objective (phase 2).
        at_lower = vstat == _AT_LOWER
        if phase == 1:
            dvec = np.zeros(m)
            dvec[below] = -1.0
            dvec[above] = 1.0
            y = np.dot(dvec, Binv)
            s = np.dot(WT, y)
            # The derivative of the infeasibility sum w.r.t. x_j is -s[j].
            score = np.where(at_lower, s, -s)
        else:
            y = np.dot(c[basis], Binv)
            d = c - np.dot(WT, y)
            score = np.where(at_lower, -d, d)
        cand = movable & (vstat != _BASIC) & (score > dtol)
        if not cand.any():
            if phase == 1:
                return _ST_INFEASIBLE, iters, None, y
            xall = _nonbasic_values(vstat, lo, up)
            xall[basis] = xB
            return _ST_OPTIMAL, iters, xall, y
        if bland:
            enter = int(np.argmax(cand))
        else:
            # argmax keeps the first of equal maxima: lowest-index tie-break.
            enter = int(np.argmax(np.where(cand, score, -INF)))
        t = 1.0 if at_lower[enter] else -1.0
        w = np.dot(Binv, WT[enter])

        # Ratio test.  In phase 1 an infeasible basic variable may move
        # toward (and stop at) the bound it violates.
        delta = -t * w
        pw = np.abs(w)
        rising = delta > 0.0
        if phase == 1:
            to_upper = above | (rising & ~below)
            reach = np.where(below, rising, np.where(above, delta < 0.0, True))
        else:
            to_upper = rising
            reach = True
        target = np.where(to_upper, upB, loB)
        rows = np.flatnonzero((pw > _PIVOT_EPS) & reach & (np.abs(target) < INF))
        theta = (target[rows] - xB[rows]) / delta[rows]
        theta = np.where(theta < 0.0, 0.0, theta)
        finite = np.isfinite(theta)
        rows, theta = rows[finite], theta[finite]
        k, theta_piv = _leaving_row(theta, pw[rows], basis[rows], bland)
        leave = int(rows[k]) if k >= 0 else -1

        theta_flip = up[enter] - lo[enter]
        if leave < 0 and theta_flip == INF:
            if phase == 1:
                return _ST_NUMERIC, iters, None, y
            return _ST_UNBOUNDED, iters, None, y

        if leave >= 0 and theta_piv <= theta_flip + _TIE_EPS:
            theta = theta_piv
            xB -= (t * theta) * w
            enter_val = t * theta + (lo[enter] if t > 0.0 else up[enter])
            out = basis[leave]
            vstat[out] = _AT_UPPER if to_upper[leave] else _AT_LOWER
            piv = w[leave]
            br = Binv[leave] / piv
            Binv -= w.reshape(m, 1) * br.reshape(1, m)
            Binv[leave] = br
            xB[leave] = enter_val
            basis[leave] = enter
            vstat[enter] = _BASIC
            since_refactor += 1
        else:
            theta = theta_flip
            xB -= (t * theta) * w
            vstat[enter] = _AT_UPPER if t > 0.0 else _AT_LOWER

        if theta <= _TIE_EPS:
            degen_run += 1
            if degen_run > 100 + 2 * m:
                bland = True
        else:
            degen_run = 0
            bland = False
        iters += 1

    return _ST_ITER, iters, None, y


class LpWorkspace:
    """Reusable dense workspace for repeated solves of one LP skeleton.

    Branch-and-bound re-solves the same matrix thousands of times with only
    variable bounds changing, so the extended column matrix is built once.
    The root LP (the cold solve at the base bounds) is solved once per
    workspace and handed out again on later calls.  Other solves go through
    a memo of the last ``_SOLVE_MEMO_CAP`` results, keyed exactly by the
    bounds, the start basis and ``max_iter``; a hit returns the earlier
    result.  Memoized results have read-only arrays.  ``memo_hits`` counts
    the solves answered from either memo and ``cold_retries`` the warm
    starts that failed numerically and were retried from the slack basis.
    """

    def __init__(self, lp: LpProblem):
        n, m = lp.num_vars, lp.num_cons
        if (n + m) * max(m, 1) > _MAX_DENSE_CELLS:
            raise ValueError(
                f"problem too large for the dense simplex ({n} vars, {m} rows)"
            )
        self.n = n
        self.m = m
        N = n + m
        WT = np.zeros((N, m))
        for r, row in enumerate(lp.rows):
            for j, a in row:
                WT[j, r] = a
            WT[n + r, r] = 1.0
        self.WT = WT
        self.b = np.asarray(lp.rhs, dtype=float)
        self.c_ext = np.zeros(N)
        self.c_ext[:n] = lp.objective
        slack_lo = np.zeros(m)
        slack_up = np.zeros(m)
        for r, sense in enumerate(lp.senses):
            if sense == LE:
                slack_lo[r], slack_up[r] = 0.0, INF
            elif sense == GE:
                slack_lo[r], slack_up[r] = -INF, 0.0
            elif sense == EQ:
                slack_lo[r], slack_up[r] = 0.0, 0.0
            else:
                raise ValueError(f"unknown sense {sense!r}")
        self.slack_lo = slack_lo
        self.slack_up = slack_up
        self.base_lower = _finite_lower(lp.lower)
        self.base_upper = np.asarray(lp.upper, dtype=float)
        self._root_bounds = (
            np.concatenate([self.base_lower, slack_lo]).tobytes(),
            np.concatenate([self.base_upper, slack_up]).tobytes(),
        )
        self._root: LpSolution | None = None
        self._memo: OrderedDict[tuple, LpSolution] = OrderedDict()
        # One-slot memo: (basis bytes, inverse) of the last warm start basis.
        self._inv_slot: tuple[bytes, np.ndarray] | None = None
        self.memo_hits = 0
        self.cold_retries = 0

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
        max_iter: int | None = None,
    ) -> LpSolution:
        """Solve with optionally overridden structural bounds and warm basis."""
        n, m = self.n, self.m
        lo = np.concatenate(
            [self.base_lower if lower is None else _finite_lower(lower), self.slack_lo]
        )
        up = np.concatenate(
            [self.base_upper if upper is None else upper, self.slack_up]
        )
        default_iter = 2000 + 50 * (n + 2 * m)
        if max_iter is None:
            max_iter = default_iter
        # The kernel is deterministic, so bit-identical inputs give the root.
        root = (
            start is None
            and max_iter == default_iter
            and (lo.tobytes(), up.tobytes()) == self._root_bounds
        )
        if root:
            if self._root is None:
                self._root = _read_only(self._solve(lo, up, start, max_iter))
            else:
                self.memo_hits += 1
            return self._root
        # The slack bounds never change, so the structural ones identify the bounds.
        key = (lo[:n].tobytes(), up[:n].tobytes(), max_iter)
        if start is not None:
            key += (start[0].tobytes(), start[1].tobytes())
        sol = self._memo.get(key)
        if sol is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return sol
        sol = self._memo[key] = _read_only(self._solve(lo, up, start, max_iter))
        if len(self._memo) > _SOLVE_MEMO_CAP:
            self._memo.popitem(last=False)
        return sol

    def _start_inverse(self, basis: np.ndarray) -> np.ndarray:
        """A fresh copy of ``basis``'s inverse, kept in the one-slot memo."""
        key = basis.tobytes()
        if self._inv_slot is None or self._inv_slot[0] != key:
            self._inv_slot = None
            self._inv_slot = (key, _basis_inverse(self.WT, basis))
        return self._inv_slot[1].copy()

    def _solve(self, lo, up, start, max_iter) -> LpSolution:
        n = self.n
        try:
            if start is None:
                vstat, basis = self.cold_start()
                Binv = None
            else:
                vstat, basis = start[0].copy(), start[1].copy()
                Binv = self._start_inverse(basis)
            status, iters, xall, y = _kernel(
                self.WT, self.b, lo, up, self.c_ext, vstat, basis, 1e-7, 1e-9, max_iter, Binv
            )
        except np.linalg.LinAlgError:
            status, iters, xall, y = _ST_NUMERIC, 0, None, None
        if status == _ST_NUMERIC and start is not None:
            # Warm basis went bad: retry cold before giving up.
            self.cold_retries += 1
            vstat, basis = self.cold_start()
            status, iters, xall, y = _kernel(
                self.WT, self.b, lo, up, self.c_ext, vstat, basis, 1e-7, 1e-9, max_iter
            )
        if status == _ST_ITER:
            raise SimplexIterationError(
                f"simplex hit the iteration limit ({max_iter}) without a verdict"
            )
        if status == _ST_NUMERIC:
            raise SimplexNumericalError("simplex basis became singular")
        if status == _ST_INFEASIBLE:
            return LpSolution(INFEASIBLE, None, None, None, None, None, iters)
        if status == _ST_UNBOUNDED:
            return LpSolution(UNBOUNDED, None, None, None, None, None, iters)
        x = np.clip(xall[:n], lo[:n] - 1e-7, up[:n] + 1e-7)
        x = np.clip(x, lo[:n], up[:n])
        self._verify(x, lo[:n], up[:n])
        reduced = self.c_ext[:n] - self.WT[:n] @ y
        return LpSolution(
            status=OPTIMAL,
            x=x,
            objective=float(self.c_ext[:n] @ x),
            reduced_costs=reduced,
            at_lower=vstat[:n] == _AT_LOWER,
            at_upper=vstat[:n] == _AT_UPPER,
            iterations=iters,
            vstat=vstat,
            basis=basis,
        )

    def _verify(self, x: np.ndarray, lo: np.ndarray, up: np.ndarray) -> None:
        """Never report a wrong OPTIMAL: bounds within 1e-9, rows within 1e-7."""
        if np.any(x < lo - 1e-9) or np.any(x > up + 1e-9):
            raise SimplexNumericalError("optimal point violates variable bounds")
        act = self.WT[: self.n].T @ x
        resid = act - self.b
        le = self.slack_up == INF
        ge = self.slack_lo == -INF
        bad = np.where(
            le, resid > 1e-7, np.where(ge, resid < -1e-7, np.abs(resid) > 1e-7)
        )
        if bad.any():
            raise SimplexNumericalError(
                f"optimal point violates row {int(np.argmax(bad))}"
            )


def _read_only(sol: LpSolution) -> LpSolution:
    for arr in (sol.x, sol.reduced_costs, sol.at_lower, sol.at_upper, sol.vstat, sol.basis):
        if arr is not None:
            arr.flags.writeable = False
    return sol


def _finite_lower(lower) -> np.ndarray:
    lower = np.asarray(lower, dtype=float)
    if not np.isfinite(lower).all():
        raise ValueError("the simplex needs a finite lower bound on every variable")
    return lower


def solve_lp(lp: LpProblem, max_iter: int | None = None) -> LpSolution:
    """Solve one LP from a cold start; see :class:`LpWorkspace` for re-solves."""
    return LpWorkspace(lp).solve(max_iter=max_iter)
