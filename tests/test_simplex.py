from itertools import combinations

import numpy as np
import pytest

from backdoorlab import simplex
from backdoorlab.bnb import BnbConfig, solve_bnb
from backdoorlab.generators import (
    gen_combinatorial_auction,
    gen_facility_location,
    gen_gisp,
    gen_mis,
    gen_setcover,
)
from backdoorlab.milp import INF, LpProblem, lp_relaxation, make_instance
from backdoorlab.search import label_samples, mcts_search
from backdoorlab.simplex import (
    _TIE_EPS,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpWorkspace,
    SimplexIterationError,
    SimplexNumericalError,
    _leaving_row,
    solve_lp,
)


def lp_of(objective, rows, rhs, senses, lower, upper):
    n = len(objective)
    inst = make_instance("lp", objective, rows, rhs, senses, lower, upper, [])
    return LpProblem(
        name=inst.name, num_vars=n, objective=inst.objective, rows=inst.rows,
        rhs=inst.rhs, senses=inst.senses, lower=inst.lower, upper=inst.upper,
    )


def test_box_maximum():
    sol = solve_lp(lp_of([-1.0], [], [], [], [0.0], [1.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(-1.0)


def test_infeasible_rows():
    sol = solve_lp(lp_of([0.0], [[(0, 1.0)]], [-1.0], ["LE"], [0.0], [1.0]))
    assert sol.status == INFEASIBLE


def test_unbounded_ray():
    sol = solve_lp(lp_of([-1.0], [], [], [], [0.0], [INF]))
    assert sol.status == UNBOUNDED


def test_equality_and_ge_rows():
    sol = solve_lp(
        lp_of(
            [1.0, 1.0],
            [[(0, 1.0), (1, 1.0)], [(0, 1.0), (1, -1.0)]],
            [1.0, 0.25],
            ["GE", "EQ"],
            [0.0, 0.0],
            [1.0, 1.0],
        )
    )
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [0.625, 0.375], atol=1e-9)


def random_box_lp(seed, n=6, m=4):
    r = np.random.default_rng(seed)
    c = r.normal(size=n).round(3)
    A = r.normal(size=(m, n)).round(3)
    x0 = r.uniform(0.2, 0.8, size=n)
    b = A @ x0 + r.uniform(0.0, 1.0, size=m)
    rows = [[(j, float(A[i, j])) for j in range(n)] for i in range(m)]
    return lp_of(c, rows, b, ["LE"] * m, [0.0] * n, [1.0] * n), A, np.asarray(b), c


def vertex_enumeration_optimum(A, b, c, n):
    """Check every intersection of n active constraints (rows or bounds)."""
    G = np.vstack([A, -np.eye(n), np.eye(n)])
    h = np.concatenate([b, np.zeros(n), np.ones(n)])
    best = np.inf
    for idx in combinations(range(len(h)), n):
        M = G[list(idx)]
        try:
            x = np.linalg.solve(M, h[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if np.all(G @ x <= h + 1e-9):
            best = min(best, float(c @ x))
    return best


def test_matches_vertex_enumeration_oracle():
    for seed in range(25):
        lp, A, b, c = random_box_lp(seed)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        oracle = vertex_enumeration_optimum(A, b, c, 6)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_weak_duality_against_random_roundings():
    rng = np.random.default_rng(42)
    for seed in range(10):
        lp, A, b, c = random_box_lp(seed)
        sol = solve_lp(lp)
        for _ in range(50):
            x = rng.random(6)
            if np.all(A @ x <= b + 1e-12):
                assert sol.objective <= c @ x + 1e-7


def test_resolve_is_deterministic():
    lp, *_ = random_box_lp(3)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status == OPTIMAL
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.at_lower, b.at_lower)
    np.testing.assert_array_equal(a.at_upper, b.at_upper)


def test_optimal_point_respects_tolerances():
    for seed in range(10):
        lp, A, b, _ = random_box_lp(seed)
        sol = solve_lp(lp)
        assert np.all(sol.x >= -1e-9) and np.all(sol.x <= 1 + 1e-9)
        assert np.all(A @ sol.x <= b + 1e-7)


def test_iteration_limit_raises_not_lies():
    lp, *_ = random_box_lp(0)
    with pytest.raises(SimplexIterationError):
        solve_lp(lp, max_iter=1)


def test_warm_start_matches_cold_solve():
    """Re-solving with tightened bounds from the parent basis must agree
    with a from-scratch solve of the same bounds."""
    inst = make_instance(
        "w", [-1.0, -2.0, 0.5],
        [[(0, 1.0), (1, 1.0)], [(1, 1.0), (2, -1.0)]],
        [1.5, 0.5], ["LE", "LE"], [0, 0, 0], [1, 1, 1], [0, 1, 2],
    )
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    lo = np.array(inst.lower)
    up = np.array(inst.upper)
    for j in range(3):
        for v in (0.0, 1.0):
            flo, fup = lo.copy(), up.copy()
            flo[j] = fup[j] = v
            warm = ws.solve(lower=flo, upper=fup, start=(root.vstat, root.basis))
            cold = ws.solve(lower=flo, upper=fup)
            assert warm.status == cold.status
            if warm.status == OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_zero_rows_zero_cost_vacuous():
    sol = solve_lp(lp_of([0.0, 0.0], [], [], [], [0.0, 0.0], [1.0, 1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == 0.0


def test_warm_solve_without_rows():
    ws = LpWorkspace(lp_of([-1.0, 1.0], [], [], [], [0.0, 0.0], [1.0, 1.0]))
    root = ws.solve()
    sol = ws.solve(upper=np.array([0.0, 1.0]), start=(root.vstat, root.basis))
    assert (sol.status, sol.objective, ws.dual_runs, ws.cold_retries) == (OPTIMAL, 0.0, 1, 0)


def test_non_finite_lower_bound_rejected():
    lp = lp_of([1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [1.0], ["LE"], [0.0, 0.0], [1.0, 1.0])
    free = LpProblem(
        name="free", num_vars=2, objective=lp.objective, rows=lp.rows, rhs=lp.rhs,
        senses=lp.senses, lower=(0.0, -INF), upper=lp.upper,
    )
    with pytest.raises(ValueError, match="finite lower bound"):
        LpWorkspace(free)
    with pytest.raises(ValueError, match="finite lower bound"):
        LpWorkspace(lp).solve(lower=np.array([0.0, -INF]))


def test_nan_upper_bound_rejected_cold_and_warm():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    upper = np.array(inst.upper, dtype=float)
    upper[3] = np.nan
    with pytest.raises(ValueError, match="upper bound is NaN"):
        ws.solve(upper=upper)
    with pytest.raises(ValueError, match="upper bound is NaN"):
        ws.solve(upper=upper, start=(root.vstat, root.basis))
    assert ws.kernel_runs == 1


def test_bounds_of_the_wrong_length_rejected():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    n = inst.num_vars
    with pytest.raises(ValueError, match=rf"lower bounds have shape \({n - 1},\), expected \({n},\)"):
        ws.solve(lower=np.zeros(n - 1))
    with pytest.raises(ValueError, match=rf"upper bounds have shape \({n + 1},\), expected \({n},\)"):
        ws.solve(upper=np.ones(n + 1))
    assert ws.kernel_runs == 0


def test_crossed_bounds_are_infeasible_without_a_kernel_run():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    lower = np.array(inst.lower, dtype=float)
    upper = np.array(inst.upper, dtype=float)
    lower[2], upper[2] = 1.0, 0.0
    for start in (None, (root.vstat, root.basis)):
        sol = ws.solve(lower=lower, upper=upper, start=start)
        assert (sol.status, sol.x, sol.objective, sol.iterations) == (INFEASIBLE, None, None, 0)
    assert ws.kernel_runs == 1


def test_verify_rejects_a_point_that_is_not_finite():
    ws = LpWorkspace(lp_of([1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [1.0], ["LE"], [0.0, 0.0], [1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(SimplexNumericalError, match="not finite"):
            ws._verify(np.array([0.0, bad]), np.zeros(2), np.array([1.0, np.inf]))


def test_verify_names_the_first_violated_row():
    ws = LpWorkspace(
        lp_of(
            [0.0, 0.0],
            [[(0, 1.0)], [(0, 1.0), (1, 1.0)], [(1, 1.0)], [(0, 1.0)]],
            [1.0, 0.5, 0.5, 1.0],
            ["LE", "EQ", "GE", "LE"],
            [0.0, 0.0],
            [1.0, 1.0],
        )
    )
    with pytest.raises(SimplexNumericalError, match="row 2$"):
        ws._verify(np.array([0.5, 0.0]), np.zeros(2), np.ones(2))
    with pytest.raises(SimplexNumericalError, match="row 1$"):
        ws._verify(np.array([1.0, 0.5]), np.zeros(2), np.ones(2))
    ws._verify(np.array([0.0, 0.5]), np.zeros(2), np.ones(2))


# Root LP and capped branch and bound of one small instance per generator.
# The root entries were recorded before the kernel was vectorized and the node
# counts when warm solves moved to the dual kernel: any change to the pivot
# path shows up as a different iteration count, objective bit pattern or node
# count.
PIVOT_PATH_CORPUS = [
    (lambda: gen_gisp(nodes=25, seed=2), 200,
     (42, "-0x1.3880000000000p+10", 51)),
    (lambda: gen_setcover(n_elements=40, n_sets=80, density=0.06, seed=0), 200,
     (49, "0x1.8f0f0f0f0f0f2p+3", 25)),
    (lambda: gen_combinatorial_auction(items=15, bids=60, seed=2), 200,
     (31, "-0x1.24f6a5982c0fbp+3", 59)),
    (lambda: gen_mis(nodes=80, avg_degree=5.0, seed=0), 60,
     (127, "-0x1.4000000000000p+5", 60)),
    (lambda: gen_facility_location(facilities=8, customers=12, seed=0), 200,
     (117, "0x1.019595ed657f8p+7", 19)),
]


@pytest.mark.parametrize("make, cap, expected", PIVOT_PATH_CORPUS)
def test_pivot_path_is_pinned(make, cap, expected):
    inst = make()
    root = LpWorkspace(lp_relaxation(inst)).solve()
    assert root.status == OPTIMAL
    res = solve_bnb(inst, BnbConfig(node_limit=cap))
    assert (root.iterations, root.objective.hex(), res.nodes_processed) == expected


def sequential_leaving_row(theta, pw, col, bland):
    """The ratio test's row scan as it ran before vectorization."""
    theta_piv = INF
    leave = -1
    leave_pw = 0.0
    for i in range(len(theta)):
        theta_i = theta[i]
        pw_i = pw[i]
        if theta_i < theta_piv - _TIE_EPS:
            theta_piv = theta_i
            leave = i
            leave_pw = pw_i
        elif theta_i <= theta_piv + _TIE_EPS and leave >= 0:
            better = col[i] < col[leave] if bland else pw_i > leave_pw
            if better:
                if theta_i < theta_piv:
                    theta_piv = theta_i
                leave = i
                leave_pw = pw_i
    return leave, theta_piv


@pytest.mark.parametrize("bland", [False, True])
def test_leaving_row_matches_sequential_scan(bland):
    rng = np.random.default_rng(7)
    offsets = np.array([0.0, 0.4, 0.9, 0.999, 1.0, 1.001, 1.1, 1.9, 2.0, 2.1, 3.0, 5.0]) * _TIE_EPS
    for trial in range(3000):
        size = int(rng.integers(1, 14))
        scale = [0.0, 1e-3, 1.0, 7.5, 1e3, 1e6][trial % 6]
        anchors = scale * rng.integers(1, 4, size=size)
        signs = rng.choice([-1.0, 1.0], size=size)
        theta = anchors + signs * rng.choice(offsets, size=size)
        theta = np.where(theta < 0.0, 0.0, theta)
        if trial % 5 == 0:
            # Chains of ties in steps just inside the tie window.
            theta = scale + 0.9 * _TIE_EPS * rng.integers(0, size + 1, size=size)
        pw = rng.choice([0.5, 1.0, 2.0, 3.0], size=size)
        col = rng.permutation(10 * size)[:size]
        want = sequential_leaving_row(theta, pw, col, bland)
        got = _leaving_row(theta, pw, col, bland)
        assert got[0] == want[0], (theta.tolist(), pw.tolist(), col.tolist())
        assert got[1] == want[1]
    assert _leaving_row(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64), bland) == (-1, INF)


def reference_dual_leaving_row(viol, basis, bland):
    """The dual's leaving-row rule as a scan: the largest float32-rounded
    violation above the tolerance (any in Bland mode), ties to the lowest
    basic column."""
    best = -1
    for i, v in enumerate(viol):
        if not v > simplex._FTOL:
            continue
        if best < 0:
            best = i
            continue
        v32, b32 = np.float32(v), np.float32(viol[best])
        if bland or v32 == b32:
            if basis[i] < basis[best]:
                best = i
        elif v32 > b32:
            best = i
    return best


@pytest.mark.parametrize("bland", [False, True])
def test_dual_leaving_row_matches_the_reference_rule(bland):
    rng = np.random.default_rng(11)
    ftol = simplex._FTOL
    # Values on both sides of the tolerance and of its float32 rounding.
    near = np.array([ftol, np.nextafter(ftol, 1.0), float(np.float32(ftol)),
                     float(np.nextafter(np.float32(ftol), np.float32(1.0))), 2 * ftol])
    for trial in range(2000):
        m = int(rng.integers(0, 12))
        pool = np.concatenate([near, [0.0, -1.0, 0.5, 0.5 + 1e-12, 0.25, np.nan]])
        viol = rng.choice(pool, size=m) if trial % 2 else rng.choice([0.0, 0.5, 1.0, 1e-8], size=m)
        basis = rng.permutation(3 * m)[:m].astype(np.int64)
        assert simplex._dual_leaving_row(viol, basis, bland) == reference_dual_leaving_row(viol, basis, bland), (
            viol.tolist(), basis.tolist())


def test_root_solution_is_memoized_read_only():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    assert ws.solve() is root
    assert ws.solve(lower=np.array(inst.lower, dtype=float), upper=np.array(inst.upper, dtype=float)) is root
    for arr in (root.x, root.reduced_costs, root.at_lower, root.at_upper, root.vstat, root.basis):
        assert not arr.flags.writeable
    capped = ws.solve(max_iter=10_000)
    assert capped is not root and capped.objective == root.objective
    tight = np.array(inst.upper, dtype=float)
    tight[0] = 0.0
    assert ws.solve(upper=tight) is not root


def test_shared_workspace_gives_same_bnb_result():
    inst = gen_gisp(nodes=20, seed=4)
    shared = LpWorkspace(lp_relaxation(inst))
    shared.solve()
    binaries = sorted(inst.binary_set)
    configs = [
        BnbConfig(),
        BnbConfig(node_limit=7),
        BnbConfig(priorities={binaries[0]: 1, binaries[3]: 1}),
        BnbConfig(allowed_branch_set=frozenset(binaries[:4]), node_limit=12),
    ]
    for cfg in configs:
        a = solve_bnb(inst, cfg, workspace=shared)
        b = solve_bnb(inst, cfg)
        assert (a.status, a.objective, a.nodes_processed, a.leaf_depths, a.tree_weight) == (
            b.status, b.objective, b.nodes_processed, b.leaf_depths, b.tree_weight
        )
        np.testing.assert_array_equal(a.incumbent, b.incumbent)


def recording(ws):
    """Log each ``ws.solve`` call's inputs and result."""
    calls = []
    solve = ws.solve

    def logged(lower=None, upper=None, start=None, max_iter=None):
        sol = solve(lower=lower, upper=upper, start=start, max_iter=max_iter)
        calls.append((lower, upper, start, max_iter, sol))
        return sol

    ws.solve = logged
    return calls


def test_memoized_solves_match_fresh_workspace_bit_for_bit():
    inst = gen_gisp(nodes=25, seed=2)
    lp = lp_relaxation(inst)
    ws = LpWorkspace(lp)
    calls = recording(ws)
    ranked = mcts_search(inst, K=4, iteration_budget=30, probe_node_limit=12, seed=0, top_k=12, workspace=ws)
    label_samples(inst, [bd for bd, _ in ranked], p=5, q=5, node_limit=3000, workspace=ws)
    assert ws.memo_hits > 0 and ws.cold_retries == 0
    for lower, upper, start, max_iter, got in calls:
        want = LpWorkspace(lp).solve(lower=lower, upper=upper, start=start, max_iter=max_iter)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        if want.status == OPTIMAL:
            assert got.objective.hex() == want.objective.hex()
            for a, b in ((got.x, want.x), (got.vstat, want.vstat), (got.basis, want.basis)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fixed_child(inst, root):
    """Bounds moving the first binary away from its root value."""
    lo = np.array(inst.lower, dtype=float)
    up = np.array(inst.upper, dtype=float)
    j = min(inst.binary_set)
    lo[j] = up[j] = 1.0 - round(root.x[j])
    return lo, up


def test_same_bounds_from_other_start_is_a_separate_entry():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    lo, up = fixed_child(inst, root)
    from_root = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    other = ws.solve(lower=lo, upper=up, start=ws.cold_start())
    assert other is not from_root and len(ws._memo) == 2
    assert ws.memo_hits == 0
    assert ws.solve(lower=lo.copy(), upper=up.copy(), start=(root.vstat, root.basis)) is from_root
    assert ws.solve(lower=lo, upper=up, start=ws.cold_start()) is other
    assert ws.memo_hits == 2
    # An equal basis under another dtype is another input, not a hit.
    ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis.astype(np.int32)))
    assert len(ws._memo) == 3 and ws.memo_hits == 2


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(simplex, "_SOLVE_MEMO_CAP", 4)
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    start = (root.vstat, root.basis)
    sols = []
    for j in sorted(inst.binary_set)[:7]:
        up = np.array(inst.upper, dtype=float)
        up[j] = 0.0
        sols.append((up, ws.solve(upper=up, start=start)))
        assert len(ws._memo) <= 4
    assert len(ws._memo) == 4
    # Least recently used first out: the last four stay, the first is gone.
    for up, sol in sols[3:]:
        assert ws.solve(upper=up, start=start) is sol
    assert ws.solve(upper=sols[0][0], start=start) is not sols[0][1]
    assert len(ws._memo) == 4


def test_memo_hit_arrays_are_read_only():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    lo, up = fixed_child(inst, root)
    first = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    hit = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert hit is first and ws.memo_hits == 1
    for arr in (hit.x, hit.reduced_costs, hit.at_lower, hit.at_upper, hit.vstat, hit.basis):
        assert not arr.flags.writeable


def test_singular_warm_start_retried_cold_leaves_inverse_slot_empty():
    """A singular start basis is retried cold and leaves no inverse behind."""
    inst = gen_gisp(nodes=12, seed=1)
    lp = lp_relaxation(inst)
    ws = LpWorkspace(lp)
    root = ws.solve()
    lo, up = fixed_child(inst, root)
    good = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert ws.inverse_hits == 1 and ws.inversions == 0
    basis = root.basis.copy()
    basis[1] = basis[0]
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, basis))
    assert ws.cold_retries == 1
    assert basis.tobytes() not in ws._inverses
    cold = LpWorkspace(lp).solve(lower=lo, upper=up)
    assert sol.status == cold.status == OPTIMAL
    assert (sol.iterations, sol.objective.hex()) == (cold.iterations, cold.objective.hex())
    assert sol.objective.hex() == good.objective.hex()
    # Without kept inverses the next warm start inverts afresh and gives the same answer.
    ws._memo.clear()
    ws._inverses.clear()
    again = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert ws.inversions == 2 and root.basis.tobytes() in ws._inverses
    assert (again.iterations, again.x.tobytes()) == (good.iterations, good.x.tobytes())


WARM_CORPUS = [
    (lambda: gen_gisp(nodes=25, seed=3), 60),
    (lambda: gen_setcover(n_elements=40, n_sets=80, density=0.06, seed=2), 60),
    (lambda: gen_combinatorial_auction(items=15, bids=60, seed=2), 60),
    (lambda: gen_mis(nodes=60, avg_degree=5.0, seed=1), 60),
    (lambda: gen_facility_location(facilities=8, customers=12, seed=0), 60),
]


@pytest.mark.parametrize("make, cap", WARM_CORPUS)
def test_warm_dual_solve_matches_cold_solve_on_every_node(make, cap):
    inst = make()
    lp = lp_relaxation(inst)
    ws = LpWorkspace(lp)
    calls = recording(ws)
    solve_bnb(inst, BnbConfig(node_limit=cap), workspace=ws)
    warm = [c for c in calls if c[2] is not None]
    assert len(warm) > 10 and ws.dual_runs == len(warm) - ws.memo_hits
    assert ws.cold_retries == 0
    for lower, upper, _, _, got in warm:
        want = LpWorkspace(lp).solve(lower=lower, upper=upper)
        assert got.status == want.status
        if want.status == OPTIMAL:
            assert got.objective == pytest.approx(want.objective, abs=1e-9)


def infeasible_child():
    """Root LP x0 = x1 = 0.75; fixing x0 to 0 leaves x1 >= 1.5, out of reach."""
    inst = make_instance(
        "inf", [1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [1.5], ["GE"],
        [0.0, 0.0], [1.0, 1.0], [0, 1],
    )
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    lo = np.zeros(2)
    up = np.ones(2)
    up[int(np.argmax(root.x))] = 0.0
    return ws, root, lo, up


def test_dual_infeasible_verdict_is_proven_by_the_pivot_row():
    ws, root, lo, up = infeasible_child()
    proofs = []
    check = ws._proves_infeasible

    def recorded(*args):
        proofs.append(check(*args))
        return proofs[-1]

    ws._proves_infeasible = recorded
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert sol.status == INFEASIBLE
    assert proofs == [True] and ws.cold_retries == 0 and ws.dual_runs == 1


def test_unproven_infeasible_verdict_is_rechecked_cold():
    ws, root, lo, up = infeasible_child()
    ws._proves_infeasible = lambda *args: False
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert sol.status == INFEASIBLE
    assert ws.cold_retries == 1 and ws.kernel_runs == 3


def test_forced_dual_failure_is_retried_cold_and_counted(monkeypatch):
    inst = gen_gisp(nodes=12, seed=1)
    lp = lp_relaxation(inst)
    ws = LpWorkspace(lp)
    root = ws.solve()
    lo, up = fixed_child(inst, root)
    monkeypatch.setattr(
        LpWorkspace, "_dual", lambda self, *args: (simplex._ST_NUMERIC, 0, None, None, None, 0)
    )
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    cold = LpWorkspace(lp).solve(lower=lo, upper=up)
    assert (ws.cold_retries, ws.dual_runs, ws.kernel_runs) == (1, 1, 3)
    assert (sol.status, sol.iterations, sol.x.tobytes()) == (cold.status, cold.iterations, cold.x.tobytes())


def test_carried_inverse_is_refactorized(monkeypatch):
    inst = gen_gisp(nodes=12, seed=1)
    lp = lp_relaxation(inst)
    ws = LpWorkspace(lp)
    root = ws.solve()
    _, carried = ws._inverses[root.basis.tobytes()]
    assert carried == root.iterations > 0 and ws.inversions == 0
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", carried)
    lo, up = fixed_child(inst, root)
    child = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    # The kept inverse was used, then rebuilt before its first pivot.
    assert ws.inverse_hits == 1 and ws.inversions == ws.refactorizations == 1
    assert ws._inverses[child.basis.tobytes()][1] == child.iterations < carried
    want = LpWorkspace(lp).solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert (child.iterations, child.x.tobytes()) == (want.iterations, want.x.tobytes())


def assert_kept_inverses_invert(ws):
    for key, (Binv, _) in ws._inverses.items():
        basis = np.frombuffer(key, dtype=np.int64)
        np.testing.assert_allclose(Binv @ ws.WT[basis].T, np.eye(ws.m), atol=1e-9)


def test_kept_inverses_fill_the_byte_budget():
    inst = gen_gisp(nodes=25, seed=4)
    ws = LpWorkspace(lp_relaxation(inst))
    solve_bnb(inst, BnbConfig(node_limit=80), workspace=ws)
    assert ws.m == 86 and simplex._INVERSE_BUDGET == 1 << 17
    assert len(ws._inverses) == ws._inverses_cap == (1 << 17) // 86**2 == 17
    assert_kept_inverses_invert(ws)


def test_kept_inverses_floor_is_two_at_large_m():
    inst = gen_gisp(nodes=60, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    solve_bnb(inst, BnbConfig(node_limit=8), workspace=ws)
    assert ws.m == 521 and 521**2 > simplex._INVERSE_BUDGET
    assert len(ws._inverses) == ws._inverses_cap == 2
    assert_kept_inverses_invert(ws)


@pytest.mark.parametrize("m, nonzero", [(87, 0.3), (87, 0.9), (521, 0.1), (521, 0.8)])
def test_replace_column_matches_the_literal_update_bit_for_bit(m, nonzero):
    rng = np.random.default_rng(m)
    for trial in range(5):
        Binv = rng.standard_normal((m, m))
        w = rng.standard_normal(m)
        w[rng.random(m) > nonzero] = 0.0
        r = int(np.flatnonzero(w)[trial])
        want = np.array([Binv[i] - w[i] * (Binv[r] / w[r]) for i in range(m)])
        want[r] = Binv[r] / w[r]
        simplex._replace_column(Binv, w, r)
        assert Binv.tobytes() == want.tobytes()


def test_solve_counters_are_pinned():
    inst = gen_setcover(n_elements=20, n_sets=40, density=0.1, seed=0)
    ws = LpWorkspace(lp_relaxation(inst))
    res = solve_bnb(inst, workspace=ws)
    assert (res.status, res.nodes_processed) == ("OPTIMAL", 6)
    # The cold root takes 28 primal pivots (21 in phase 1); the five warm
    # children take 15 dual pivots, each from a kept inverse.
    assert ws.counters() == {
        "memo_hits": 0, "cold_retries": 0, "kernel_runs": 6, "dual_runs": 5,
        "pivots": 43, "phase1_pivots": 21, "dual_pivots": 15, "inversions": 0,
        "refactorizations": 0, "inverse_hits": 5,
    }
    again = solve_bnb(inst, BnbConfig(node_limit=5), workspace=ws)
    assert again.nodes_processed == 5
    assert ws.memo_hits == 5 and ws.kernel_runs == 6
