import dataclasses
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
from backdoorlab.milp import INF, lp_relaxation, make_instance
from backdoorlab.search import label_samples, mcts_search
from backdoorlab.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpWorkspace,
    SimplexIterationError,
    SimplexNumericalError,
)


def lp_of(objective, rows, rhs, senses, lower, upper):
    return make_instance("lp", objective, rows, rhs, senses, lower, upper, [])


def test_box_maximum():
    sol = LpWorkspace(lp_of([-1.0], [], [], [], [0.0], [1.0])).solve()
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(-1.0)


def test_infeasible_rows():
    sol = LpWorkspace(lp_of([0.0], [[(0, 1.0)]], [-1.0], ["LE"], [0.0], [1.0])).solve()
    assert sol.status == INFEASIBLE


def test_unbounded_ray():
    sol = LpWorkspace(lp_of([-1.0], [], [], [], [0.0], [INF])).solve()
    assert sol.status == UNBOUNDED


def test_equality_and_ge_rows():
    sol = LpWorkspace(
        lp_of(
            [1.0, 1.0],
            [[(0, 1.0), (1, 1.0)], [(0, 1.0), (1, -1.0)]],
            [1.0, 0.25],
            ["GE", "EQ"],
            [0.0, 0.0],
            [1.0, 1.0],
        )
    ).solve()
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [0.625, 0.375], atol=1e-9)


def test_unboxed_column_with_a_free_ray_is_unbounded():
    # x0 improves without end; the basic x1 follows it upward.
    ws = LpWorkspace(lp_of([-1.0, 0.0], [[(0, 1.0), (1, -1.0)]], [1.0], ["LE"], [0.0, 0.0], [INF, INF]))
    assert ws.solve().status == UNBOUNDED
    # The first artificial bound on x0 leaves the row unmet; the bound moves
    # out before the ray is found.
    big = 2.0 * simplex._ARTIFICIAL_WIDTH
    assert LpWorkspace(lp_of([-1.0], [[(0, 1.0)]], [big], ["GE"], [0.0], [INF])).solve().status == UNBOUNDED
    # Each of x0 and x1 alone runs into a row; together they move freely.
    pair = lp_of([-1.0, -1.0], [[(0, 1.0), (1, -1.0)], [(0, -1.0), (1, 1.0)]], [1.0, 1.0], ["LE", "LE"],
                 [0.0, 0.0], [INF, INF])
    assert LpWorkspace(pair).solve().status == UNBOUNDED
    # With x1 boxed the same direction is cut off by x1's upper bound.
    sol = LpWorkspace(lp_of([-1.0, 0.0], [[(0, 1.0), (1, -1.0)]], [1.0], ["LE"], [0.0, 0.0], [INF, 2.0])).solve()
    assert (sol.status, sol.x.tolist(), sol.objective) == (OPTIMAL, [3.0, 2.0], -3.0)


def test_optimum_beyond_the_first_artificial_bound():
    far = 3.0 * simplex._ARTIFICIAL_WIDTH
    ws = LpWorkspace(lp_of([-1.0, -1.0], [[(0, 1.0), (1, 2.0)]], [far], ["LE"], [0.0, 0.0], [INF, INF]))
    sol = ws.solve()
    assert (sol.status, sol.x.tolist(), sol.objective) == (OPTIMAL, [far, 0.0], -far)
    # Nothing is left at an artificial bound: the basis warm starts a re-solve.
    assert not sol.at_upper.any() and ws.cold_retries == 0
    child = ws.solve(upper=np.array([far / 2, INF]), start=(sol.vstat, sol.basis))
    assert (child.status, child.objective, ws.cold_retries) == (OPTIMAL, -0.75 * far, 0)
    # Here the first artificial bound looks infeasible: the row x0 >= far
    # has no proof against the real bounds, so the bound moves out.
    sol = LpWorkspace(lp_of([-1.0], [[(0, 1.0)], [(0, 1.0)]], [far, 2 * far], ["GE", "LE"], [0.0], [INF])).solve()
    assert (sol.status, sol.x.tolist()) == (OPTIMAL, [2 * far])


def test_optimum_past_the_last_artificial_bound_raises_not_lies():
    last = simplex._ARTIFICIAL_WIDTH * simplex._ARTIFICIAL_GROWTH**simplex._ARTIFICIAL_ROUNDS
    lp = lp_of([-1.0], [[(0, 1.0)]], [10.0 * last], ["LE"], [0.0], [INF])
    with pytest.raises(SimplexNumericalError):
        LpWorkspace(lp).solve()


@pytest.mark.parametrize("upper", [[1.0, 1.0], [0.5, INF]])
def test_cold_infeasible_verdict_is_proven_by_its_farkas_row(upper):
    # x0 - x1 >= 1 is out of reach; x1 improves the objective, so an unboxed
    # x1 starts on an artificial bound, and the proof uses the real bounds.
    ws = LpWorkspace(lp_of([0.0, -1.0], [[(0, 1.0), (1, -1.0)]], [1.0 + upper[0]], ["GE"], [0.0, 0.0], upper))
    proofs = []
    check = ws._proves_infeasible

    def recorded(*args):
        proofs.append(check(*args))
        return proofs[-1]

    ws._proves_infeasible = recorded
    assert ws.solve().status == INFEASIBLE
    assert proofs == [True] and ws.kernel_runs == 1


def random_box_lp(seed, n=6, m=4):
    r = np.random.default_rng(seed)
    c = r.normal(size=n).round(3)
    A = r.normal(size=(m, n)).round(3)
    x0 = r.uniform(0.2, 0.8, size=n)
    b = A @ x0 + r.uniform(0.0, 1.0, size=m)
    rows = [[(j, float(A[i, j])) for j in range(n)] for i in range(m)]
    return lp_of(c, rows, b, ["LE"] * m, [0.0] * n, [1.0] * n), A, np.asarray(b), c


def vertex_enumeration_optimum(A, b, c, senses, upper):
    """Check every intersection of n active constraints: the rows by sense,
    the zero lower bounds and the finite upper bounds."""
    n = len(c)
    sign = {"LE": [1.0], "GE": [-1.0], "EQ": [1.0, -1.0]}
    rows = [(s * A[i], s * b[i]) for i, sense in enumerate(senses) for s in sign[sense]]
    rows += [(-np.eye(n)[j], 0.0) for j in range(n)]
    rows += [(np.eye(n)[j], upper[j]) for j in range(n) if upper[j] < INF]
    G = np.array([g for g, _ in rows])
    h = np.array([v for _, v in rows])
    best = np.inf
    for idx in combinations(range(len(h)), n):
        try:
            x = np.linalg.solve(G[list(idx)], h[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if np.all(G @ x <= h + 1e-9):
            best = min(best, float(c @ x))
    return best


def test_matches_vertex_enumeration_oracle():
    for seed in range(25):
        lp, A, b, c = random_box_lp(seed)
        sol = LpWorkspace(lp).solve()
        assert sol.status == OPTIMAL
        oracle = vertex_enumeration_optimum(A, b, c, ["LE"] * len(b), np.ones(6))
        assert sol.objective == pytest.approx(oracle, abs=1e-7)


def random_sense_lp(seed, n=5, m=3):
    """Random LE, GE and EQ rows around an interior point; two columns are
    unboxed with negative costs, held back only by a last LE row."""
    r = np.random.default_rng(seed)
    c = r.normal(size=n).round(3)
    c[:2] = -np.abs(c[:2]) - 0.1
    A = r.normal(size=(m, n)).round(3)
    x0 = r.uniform(0.2, 0.8, size=n)
    senses = list(r.choice(["LE", "GE", "EQ"], size=m))
    b = A @ x0 + np.select([np.array(senses) == "LE", np.array(senses) == "GE"],
                           [r.uniform(0.0, 1.0, size=m), -r.uniform(0.0, 1.0, size=m)], 0.0)
    A = np.vstack([A, [r.uniform(0.5, 2.0), r.uniform(0.5, 2.0)] + [0.0] * (n - 2)])
    b = np.append(b, 4.0)
    senses.append("LE")
    rows = [[(j, float(A[i, j])) for j in range(n) if A[i, j]] for i in range(m + 1)]
    upper = [INF, INF] + [1.0] * (n - 2)
    return lp_of(c, rows, b, senses, [0.0] * n, upper), A, b, senses, c, np.array(upper)


def test_eq_and_ge_rows_match_vertex_enumeration_oracle():
    solved = 0
    for seed in range(20):
        lp, A, b, senses, c, upper = random_sense_lp(seed)
        oracle = vertex_enumeration_optimum(A, b, c, senses, upper)
        sol = LpWorkspace(lp).solve()
        assert sol.status == OPTIMAL, seed
        assert sol.objective == pytest.approx(oracle, abs=1e-7), seed
        solved += "EQ" in senses
    assert solved >= 5


def test_weak_duality_against_random_roundings():
    rng = np.random.default_rng(42)
    for seed in range(10):
        lp, A, b, c = random_box_lp(seed)
        sol = LpWorkspace(lp).solve()
        for _ in range(50):
            x = rng.random(6)
            if np.all(A @ x <= b + 1e-12):
                assert sol.objective <= c @ x + 1e-7


def test_resolve_is_deterministic():
    lp, *_ = random_box_lp(3)
    a = LpWorkspace(lp).solve()
    b = LpWorkspace(lp).solve()
    assert a.status == b.status == OPTIMAL
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.at_lower, b.at_lower)
    np.testing.assert_array_equal(a.at_upper, b.at_upper)


def test_optimal_point_respects_tolerances():
    for seed in range(10):
        lp, A, b, _ = random_box_lp(seed)
        sol = LpWorkspace(lp).solve()
        assert np.all(sol.x >= -1e-9) and np.all(sol.x <= 1 + 1e-9)
        assert np.all(A @ sol.x <= b + 1e-7)


def test_iteration_limit_raises_not_lies():
    lp, *_ = random_box_lp(0)
    ws = LpWorkspace(lp)
    ws._iter_limit = 1
    with pytest.raises(SimplexIterationError, match=r"iteration limit \(1\)"):
        ws.solve()


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
    sol = LpWorkspace(lp_of([0.0, 0.0], [], [], [], [0.0, 0.0], [1.0, 1.0])).solve()
    assert sol.status == OPTIMAL
    assert sol.objective == 0.0


def test_warm_solve_without_rows():
    ws = LpWorkspace(lp_of([-1.0, 1.0], [], [], [], [0.0, 0.0], [1.0, 1.0]))
    root = ws.solve()
    sol = ws.solve(upper=np.array([0.0, 1.0]), start=(root.vstat, root.basis))
    assert (sol.status, sol.objective, ws.kernel_runs, ws.cold_retries) == (OPTIMAL, 0.0, 2, 0)


def test_non_finite_lower_bound_rejected():
    lp = lp_of([1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [1.0], ["LE"], [0.0, 0.0], [1.0, 1.0])
    free = dataclasses.replace(lp, lower=(0.0, -INF))
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


# Root LP and capped branch and bound of one small instance per generator,
# recorded when cold solves moved to the dual kernel: any change to the pivot
# path shows up as a different iteration count, objective bit pattern or node
# count.
PIVOT_PATH_CORPUS = [
    (lambda: gen_gisp(nodes=25, seed=2), 200,
     (29, "-0x1.3880000000000p+10", 51)),
    (lambda: gen_setcover(n_elements=40, n_sets=80, density=0.06, seed=0), 200,
     (69, "0x1.8f0f0f0f0f0f1p+3", 37)),
    (lambda: gen_combinatorial_auction(items=15, bids=60, seed=2), 200,
     (38, "-0x1.24f6a5982c0fbp+3", 57)),
    (lambda: gen_mis(nodes=80, avg_degree=5.0, seed=0), 60,
     (110, "-0x1.4000000000000p+5", 60)),
    (lambda: gen_facility_location(facilities=8, customers=12, seed=0), 200,
     (57, "0x1.019595ed6558cp+7", 19)),
]


@pytest.mark.parametrize("make, cap, expected", PIVOT_PATH_CORPUS)
def test_pivot_path_is_pinned(make, cap, expected):
    inst = make()
    root = LpWorkspace(lp_relaxation(inst)).solve()
    assert root.status == OPTIMAL
    res = solve_bnb(inst, BnbConfig(node_limit=cap))
    assert (root.iterations, root.objective.hex(), res.nodes_processed) == expected


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
    tight = np.array(inst.upper, dtype=float)
    tight[0] = 0.0
    assert ws.solve(upper=tight) is not root


def test_shared_workspace_gives_same_bnb_result():
    inst = gen_gisp(nodes=20, seed=4)
    inst.lp.solve()
    binaries = sorted(inst.binary_set)
    configs = [
        BnbConfig(),
        BnbConfig(node_limit=7),
        BnbConfig(priorities={binaries[0]: 1, binaries[3]: 1}),
        BnbConfig(allowed_branch_set=frozenset(binaries[:4]), node_limit=12),
    ]
    for cfg in configs:
        a = solve_bnb(inst, cfg)
        b = solve_bnb(dataclasses.replace(inst), cfg)
        assert (a.status, a.objective, a.nodes_processed, a.leaf_depths, a.tree_weight) == (
            b.status, b.objective, b.nodes_processed, b.leaf_depths, b.tree_weight
        )
        np.testing.assert_array_equal(a.incumbent, b.incumbent)


def recording(ws):
    """Log each ``ws.solve`` call's inputs and result."""
    calls = []
    solve = ws.solve

    def logged(lower=None, upper=None, start=None):
        sol = solve(lower=lower, upper=upper, start=start)
        calls.append((lower, upper, start, sol))
        return sol

    ws.solve = logged
    return calls


def test_memoized_solves_match_fresh_workspace_bit_for_bit():
    inst = gen_gisp(nodes=25, seed=2)
    ws = inst.lp
    calls = recording(ws)
    ranked = mcts_search(inst, K=4, iteration_budget=30, probe_node_limit=12, seed=0, top_k=12)
    label_samples(inst, [bd for bd, _ in ranked], p=5, q=5, node_limit=3000)
    assert ws.memo_hits > 0 and ws.cold_retries == 0
    for lower, upper, start, got in calls:
        want = LpWorkspace(inst).solve(lower=lower, upper=upper, start=start)
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
    # The root is in the memo too.
    assert other is not from_root and len(ws._memo) == 3
    assert ws.memo_hits == 0
    assert ws.solve(lower=lo.copy(), upper=up.copy(), start=(root.vstat, root.basis)) is from_root
    assert ws.solve(lower=lo, upper=up, start=ws.cold_start()) is other
    assert ws.memo_hits == 2
    # An equal basis under another dtype is another input, not a hit.
    ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis.astype(np.int32)))
    assert len(ws._memo) == 4 and ws.memo_hits == 2


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
    (lambda: gen_setcover(n_elements=40, n_sets=80, density=0.06, seed=3), 60),
    (lambda: gen_combinatorial_auction(items=15, bids=60, seed=2), 60),
    (lambda: gen_mis(nodes=60, avg_degree=5.0, seed=1), 60),
    (lambda: gen_facility_location(facilities=8, customers=12, seed=0), 60),
]


@pytest.mark.parametrize("make, cap", WARM_CORPUS)
def test_warm_dual_solve_matches_cold_solve_on_every_node(make, cap):
    inst = make()
    lp = lp_relaxation(inst)
    ws = inst.lp
    calls = recording(ws)
    solve_bnb(inst, BnbConfig(node_limit=cap))
    warm = [c for c in calls if c[2] is not None]
    assert len(warm) > 10 and ws.kernel_runs == 1 + len(warm) - ws.memo_hits
    assert ws.cold_retries == 0
    for lower, upper, _, got in warm:
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
    assert proofs == [True] and ws.cold_retries == 0 and ws.kernel_runs == 2


def test_unproven_infeasible_verdict_is_rechecked_cold():
    ws, root, lo, up = infeasible_child()
    check = ws._proves_infeasible
    proofs = []

    def fails_warm(*args):
        proofs.append(bool(proofs) and check(*args))
        return proofs[-1]

    ws._proves_infeasible = fails_warm
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert sol.status == INFEASIBLE and proofs == [False, True]
    assert ws.cold_retries == 1 and ws.kernel_runs == 3


def test_unproven_cold_infeasible_verdict_raises():
    ws, root, lo, up = infeasible_child()
    ws._proves_infeasible = lambda *args: False
    with pytest.raises(SimplexNumericalError):
        ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert ws.cold_retries == 1 and ws.kernel_runs == 3


def test_forced_dual_failure_is_retried_cold_and_counted(monkeypatch):
    inst = gen_gisp(nodes=12, seed=1)
    lp = lp_relaxation(inst)
    ws = LpWorkspace(lp)
    root = ws.solve()
    lo, up = fixed_child(inst, root)
    dual = LpWorkspace._dual
    starts = []

    def fails_warm(self, bounds, vstat, basis):
        starts.append(basis.tobytes() == self._slack_key)
        if not starts[-1]:
            raise simplex._Unsettled
        return dual(self, bounds, vstat, basis)

    monkeypatch.setattr(LpWorkspace, "_dual", fails_warm)
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    monkeypatch.undo()
    cold = LpWorkspace(lp).solve(lower=lo, upper=up)
    assert starts == [False, True]
    assert (ws.cold_retries, ws.kernel_runs) == (1, 3)
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


def test_pivots_of_a_run_that_fails_are_counted(monkeypatch):
    inst = gen_gisp(nodes=12, seed=1)
    lp = lp_relaxation(inst)
    ws = LpWorkspace(lp)
    root = ws.solve()
    _, carried = ws._inverses[root.basis.tobytes()]
    # The warm child pivots once on the kept inverse, then fails to rebuild it.
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", carried + 1)
    invert = ws._invert
    calls = []

    def fails_first(basis):
        calls.append(basis)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced")
        return invert(basis)

    ws._invert = fails_first
    lo, up = fixed_child(inst, root)
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert (len(calls), ws.cold_retries, ws.kernel_runs, ws.refactorizations) == (1, 1, 3, 1)
    assert ws.pivots == root.iterations + 1 + sol.iterations
    cold = LpWorkspace(lp).solve(lower=lo, upper=up)
    assert (sol.iterations, sol.x.tobytes()) == (cold.iterations, cold.x.tobytes())


class SkewedColumn(np.ndarray):
    """A ``WT`` whose next ``skews`` reads of one row, the way the kernel
    reads its entering column, come back scaled by 1.5: the update made with
    that column then leaves the carried point off the final basis's, as a
    drifted inverse would."""

    skews = 0

    def __getitem__(self, key):
        row = super().__getitem__(key)
        if type(key) is int and SkewedColumn.skews:
            SkewedColumn.skews -= 1
            return np.asarray(row) * 1.5
        return row


def skew_next_column(ws, monkeypatch):
    monkeypatch.setattr(SkewedColumn, "skews", 1)
    ws.WT = ws.WT.view(SkewedColumn)


def assert_same_optimum(sol, want, ws, lo, up):
    assert sol.status == want.status == OPTIMAL
    assert sol.objective.hex() == want.objective.hex()
    ws._verify(sol.x, lo, up)


def test_drifted_pivot_column_refactorizes_a_carried_inverse(monkeypatch):
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    assert ws._inverses[root.basis.tobytes()][1] > 0
    lo, up = fixed_child(inst, root)
    before = ws.counters()
    skew_next_column(ws, monkeypatch)
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert SkewedColumn.skews == 0
    after = ws.counters()
    assert after["refactorizations"] == before["refactorizations"] + 1
    assert after["cold_retries"] == before["cold_retries"]
    want = LpWorkspace(lp_relaxation(inst)).solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert_same_optimum(sol, want, ws, lo, up)


def test_drifted_pivot_column_of_a_fresh_inverse_refactorizes_at_the_exit(monkeypatch):
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    ws._inverses.clear()  # the warm start inverts afresh
    lo, up = fixed_child(inst, root)
    skew_next_column(ws, monkeypatch)
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    assert SkewedColumn.skews == 0
    # The skew shows only at the exit, after the pivots it spoiled, so the
    # inverse they updated is rebuilt rather than the run retried cold.
    assert (ws.cold_retries, ws.refactorizations, ws.inversions) == (0, 1, 2)
    want = LpWorkspace(lp_relaxation(inst)).solve(lower=lo, upper=up)
    assert_same_optimum(sol, want, ws, lo, up)


def test_drifted_kept_inverse_is_refactorized():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    lo, up = fixed_child(inst, root)
    want = LpWorkspace(lp_relaxation(inst)).solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    # Drift in one row of the kept inverse: both products of a pivot row and
    # column test would read it alike, the carried point does not.
    ws._inverses[root.basis.tobytes()][0][0] *= 1 + 1e-6
    before = ws.counters()
    sol = ws.solve(lower=lo, upper=up, start=(root.vstat, root.basis))
    after = ws.counters()
    assert after["inverse_hits"] == before["inverse_hits"] + 1
    assert after["refactorizations"] == before["refactorizations"] + 1
    assert after["cold_retries"] == before["cold_retries"]
    assert_same_optimum(sol, want, ws, lo, up)


def test_drifted_fresh_inverse_of_an_optimal_start_is_retried_cold():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    ws._memo.clear()
    ws._inverses.clear()
    invert = ws._invert

    def drifted(basis):
        Binv = invert(basis)
        if basis.tobytes() == root.basis.tobytes():
            Binv[2] *= 1 + 1e-6
        return Binv

    ws._invert = drifted
    # The root basis is optimal at once, so its point disagrees with the LU
    # one with no update made, and the run starts over from the slack basis.
    sol = ws.solve(start=(root.vstat, root.basis))
    assert (ws.cold_retries, ws.refactorizations, ws.inversions) == (1, 0, 1)
    assert sol.iterations == root.iterations
    assert_same_optimum(sol, root, ws, ws.base_lower, ws.base_upper)


def test_exit_check_that_fails_after_a_rebuild_is_retried_cold():
    inst = gen_gisp(nodes=12, seed=1)
    root = LpWorkspace(lp_relaxation(inst)).solve()
    ws = LpWorkspace(lp_relaxation(inst))
    invert = ws._invert

    def drifted(basis):
        Binv = invert(basis)
        Binv[1] *= 1 + 1e-6
        return Binv

    ws._invert = drifted
    # Every fresh inverse drifts, so the rebuilt one fails the exit check as
    # well: the run gives up after one rebuild instead of rebuilding until
    # the iteration limit, and the slack basis (the identity) settles it.
    sol = ws.solve(start=(root.vstat, root.basis))
    assert (ws.cold_retries, ws.refactorizations, ws.kernel_runs) == (1, 1, 2)
    assert_same_optimum(sol, root, ws, ws.base_lower, ws.base_upper)


def break_first_basic_values(ws):
    """Make the first LU-resolved point of ``ws`` break its lower bounds."""
    resolve = ws._basic_values
    calls = []

    def broken_first(basis, rhs):
        calls.append(basis.copy())
        xB = resolve(basis, rhs)
        return xB - 10.0 if len(calls) == 1 else xB

    ws._basic_values = broken_first
    return calls


def test_final_point_that_fails_its_recheck_refactorizes():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    calls = break_first_basic_values(ws)
    sol = ws.solve()
    assert len(calls) == 2 and sol.iterations > 0
    assert (ws.refactorizations, ws.inversions, ws.cold_retries) == (1, 1, 0)
    want = LpWorkspace(lp_relaxation(inst)).solve()
    assert_same_optimum(sol, want, ws, ws.base_lower, ws.base_upper)


def test_final_point_of_a_fresh_inverse_that_fails_its_recheck_is_retried_cold():
    inst = gen_gisp(nodes=12, seed=1)
    ws = LpWorkspace(lp_relaxation(inst))
    root = ws.solve()
    ws._memo.clear()
    ws._inverses.clear()
    calls = break_first_basic_values(ws)
    # The root basis is optimal at once from its fresh inverse, so the check
    # fails with no update made and the run starts over from the slack basis.
    sol = ws.solve(start=(root.vstat, root.basis))
    assert len(calls) == 2 and calls[0].tobytes() == root.basis.tobytes()
    assert (ws.cold_retries, ws.refactorizations) == (1, 0)
    assert_same_optimum(sol, root, ws, ws.base_lower, ws.base_upper)


def assert_kept_inverses_invert(ws):
    for key, (Binv, _) in ws._inverses.items():
        basis = np.frombuffer(key, dtype=np.int64)
        np.testing.assert_allclose(Binv @ ws.WT[basis].T, np.eye(ws.m), atol=1e-9)


def test_kept_inverses_fill_the_byte_budget():
    inst = gen_gisp(nodes=25, seed=4)
    solve_bnb(inst, BnbConfig(node_limit=80))
    ws = inst.lp
    assert ws.m == 86 and simplex._INVERSE_BUDGET == 1 << 17
    assert len(ws._inverses) == ws._inverses_cap == (1 << 17) // 86**2 == 17
    assert_kept_inverses_invert(ws)


def test_kept_inverses_floor_is_two_at_large_m():
    inst = gen_gisp(nodes=60, seed=1)
    solve_bnb(inst, BnbConfig(node_limit=8))
    ws = inst.lp
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
    res = solve_bnb(inst)
    ws = inst.lp
    assert (res.status, res.nodes_processed) == ("OPTIMAL", 4)
    # The cold root starts from the identity and the three warm children
    # from kept inverses: 22 pivots in all, no inversion.
    assert ws.counters() == {
        "memo_hits": 0, "cold_retries": 0, "kernel_runs": 4, "pivots": 22,
        "inversions": 0, "refactorizations": 0, "inverse_hits": 3,
    }
    again = solve_bnb(inst, BnbConfig(node_limit=3))
    assert again.nodes_processed == 3
    assert ws.memo_hits == 3 and ws.kernel_runs == 4
