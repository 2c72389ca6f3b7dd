import dataclasses
import heapq
import re
import types

import numpy as np
import pytest

from backdoorlab import bnb
from backdoorlab.bnb import (
    FATHOM_REASONS,
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    BnbConfig,
    backdoor_priorities,
    restricted_probe,
    select_branch_var,
    solve_bnb,
    tree_weight,
)
from backdoorlab.generators import gen_facility_location, gen_gisp
from backdoorlab.milp import INF, lp_relaxation, make_instance

from conftest import brute_force_solve, random_binary_instance


def test_packing_pair():
    inst = make_instance(
        "p", [-1.0, -1.0], [[(0, 1.0), (1, 1.0)]], [1.0], ["LE"], [0, 0], [1, 1], [0, 1]
    )
    res = solve_bnb(inst)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0)


def test_integral_root_is_single_node():
    inst = make_instance(
        "i", [1.0, 1.0], [[(0, 1.0)], [(1, 1.0)]], [1.0, 1.0], ["GE", "GE"],
        [0, 0], [1, 1], [0, 1],
    )
    res = solve_bnb(inst)
    assert res.status == OPTIMAL
    assert res.nodes_processed == 1
    assert res.tree_weight == 1.0


def with_binary_equalities(inst, seed):
    """``inst`` plus the rows ``2 x_a + x_b + x_c = 2`` and ``x_d + 2 x_e = 2``
    over random binaries, so that a rounded LP point can miss an equality
    from below or from above."""
    r = np.random.default_rng(seed)
    rows = []
    for coefs in ((2.0, 1.0, 1.0), (1.0, 2.0)):
        picked = r.choice(sorted(inst.binary_set), size=len(coefs), replace=False)
        rows.append(tuple(zip(picked.tolist(), coefs)))
    return make_instance(
        inst.name + "eq", inst.objective, inst.rows + tuple(rows), inst.rhs + (2.0, 2.0),
        inst.senses + ("EQ", "EQ"), inst.lower, inst.upper, inst.binary_set,
    )


def test_matches_brute_force_on_random_instances():
    for seed in range(30):
        base = random_binary_instance(seed, max_bin=9, max_rows=6)
        for inst in (base, with_binary_equalities(base, seed)):
            res = solve_bnb(inst)
            oracle = brute_force_solve(inst)
            if oracle is None:
                assert res.status == INFEASIBLE, inst.name
            else:
                assert res.status == OPTIMAL
                assert res.objective == pytest.approx(oracle, abs=1e-6), inst.name


def test_continuous_part_resolved():
    for seed in range(8):
        inst = random_binary_instance(seed + 500, max_bin=6, max_rows=5, continuous=2)
        res = solve_bnb(inst)
        oracle = brute_force_solve(inst)
        if oracle is None:
            assert res.status == INFEASIBLE
        else:
            assert res.objective == pytest.approx(oracle, abs=1e-6)


def test_incumbent_is_feasible_and_integral():
    for seed in range(10):
        inst = random_binary_instance(seed + 40)
        res = solve_bnb(inst)
        if res.status != OPTIMAL:
            continue
        x = res.incumbent
        for row, rhs, sense in zip(inst.rows, inst.rhs, inst.senses):
            act = sum(a * x[j] for j, a in row)
            if sense == "LE":
                assert act <= rhs + 1e-6
            elif sense == "GE":
                assert act >= rhs - 1e-6
            else:
                assert act == pytest.approx(rhs, abs=1e-6)
        for j in inst.binary_set:
            assert min(x[j], 1 - x[j]) <= 1e-6


def test_priority_invariance_of_objective():
    rng = np.random.default_rng(7)
    for seed in range(6):
        inst = random_binary_instance(seed + 70, max_bin=8, max_rows=5)
        base = solve_bnb(inst)
        if base.status != OPTIMAL:
            continue
        for _ in range(3):
            prio = {int(j): int(rng.integers(0, 4)) for j in inst.binary_set}
            res = solve_bnb(inst, BnbConfig(priorities=prio))
            assert res.objective == pytest.approx(base.objective, abs=1e-6)


def test_bound_trace_is_monotone(monkeypatch):
    """Best-bound order: the bounds of the nodes the solver pops never decrease."""
    popped = []

    def recording_pop(heap):
        entry = heapq.heappop(heap)
        popped.append(entry[0])
        return entry

    monkeypatch.setattr(bnb, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=recording_pop))
    for seed in range(6):
        popped.clear()
        inst = random_binary_instance(seed + 90, max_bin=9, max_rows=6)
        res = solve_bnb(inst)
        assert len(popped) >= res.nodes_processed
        assert np.all(np.diff(popped) >= -1e-9)


class TestSelectBranchVar:
    def test_priority_wins(self):
        assert select_branch_var([2, 5], [0.5, 0.1], [0, 1]) == 5

    def test_fractionality_breaks_equal_priority(self):
        assert select_branch_var([1, 4], [0.3, 0.5], [0, 0]) == 4

    def test_lowest_index_breaks_full_tie(self):
        assert select_branch_var([7, 3], [0.4, 0.4], [0, 0]) == 3

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            select_branch_var(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize(
    "objective, upper",
    [([float("nan"), -1.0], [1.0, 1.0]), ([-1.0, -1.0], [1.0, float("nan")])],
)
def test_nan_data_raises_instead_of_optimal(objective, upper):
    inst = make_instance(
        "t", objective, [[(0, 1.0), (1, 1.0)]], [1.0], ["LE"], [0.0, 0.0], upper, [0]
    )
    with pytest.raises(ValueError, match="invalid instance"):
        solve_bnb(inst)


@pytest.mark.parametrize("lower, upper", [(0.0, 5.0), (-1.0, 1.0), (0.0, INF)])
def test_binary_bounded_outside_the_unit_interval_raises(lower, upper):
    inst = make_instance(
        "t", [-1.0, -1.0], [[(0, 1.0), (1, 1.0)]], [3.5], ["LE"], [lower, 0.0], [upper, 1.0], [0]
    )
    message = re.escape(f"invalid instance: binary bound: column 0 has bounds [{lower}, {upper}]")
    with pytest.raises(ValueError, match=message):
        lp_relaxation(inst)
    with pytest.raises(ValueError, match=message):
        solve_bnb(inst)


class TestTreeWeight:
    def test_root_only(self):
        assert tree_weight([0]) == 1.0

    def test_complete_depth_two(self):
        assert tree_weight([2, 2, 2, 2]) == 1.0

    def test_mixed(self):
        assert tree_weight([1, 2]) == 0.75

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tree_weight([])


class TestRestrictedProbe:
    def test_full_subset_matches_unrestricted(self):
        inst = random_binary_instance(11, max_bin=7, max_rows=5)
        full = solve_bnb(inst)
        w, nodes, completed = restricted_probe(inst, inst.binary_set)
        assert completed
        assert w == pytest.approx(1.0)
        res = solve_bnb(inst, BnbConfig(allowed_branch_set=frozenset(inst.binary_set)))
        if full.status == OPTIMAL:
            assert res.objective == pytest.approx(full.objective, abs=1e-6)

    def test_empty_subset_raises(self):
        inst = random_binary_instance(12)
        with pytest.raises(ValueError):
            restricted_probe(inst, [])

    def test_probe_weight_in_unit_interval(self):
        for seed in range(8):
            inst = random_binary_instance(seed + 300, max_bin=8, max_rows=6)
            sub = sorted(inst.binary_set)[:2]
            w, _, _ = restricted_probe(inst, sub, node_limit=16)
            assert 0.0 < w <= 1.0

    def test_node_limit_censors(self):
        inst = random_binary_instance(13, max_bin=10, max_rows=6)
        full = solve_bnb(inst)
        if full.nodes_processed < 4:
            pytest.skip("instance closes too fast to censor")
        res = solve_bnb(inst, BnbConfig(node_limit=2))
        assert res.status == NODE_LIMIT
        assert res.nodes_processed == 2
        assert res.tree_weight < 1.0

    def test_allowed_set_outside_binaries_rejected(self):
        inst = random_binary_instance(14, max_bin=5)
        with pytest.raises(ValueError):
            solve_bnb(inst, BnbConfig(allowed_branch_set=frozenset({999})))


def test_backdoor_priorities_shape():
    assert backdoor_priorities([3, 1]) == {3: 1, 1: 1}


def test_deterministic_repeat():
    inst = random_binary_instance(21, max_bin=9, max_rows=6)
    a = solve_bnb(inst)
    b = solve_bnb(inst)
    assert a.status == b.status
    assert a.nodes_processed == b.nodes_processed
    assert a.leaf_depths == b.leaf_depths
    if a.status == OPTIMAL:
        assert a.objective == b.objective


@pytest.mark.parametrize(
    "make, restrict, expected",
    [
        (lambda: gen_facility_location(facilities=8, customers=12, seed=0), False,
         (19, {"infeasible": 1, "bound": 14, "integral": 1, "restricted": 0})),
        (lambda: gen_gisp(nodes=25, seed=2), True,
         (21, {"infeasible": 0, "bound": 3, "integral": 2, "restricted": 6})),
    ],
)
def test_fathom_reasons_are_pinned(make, restrict, expected):
    inst = make()
    allowed = frozenset(sorted(inst.binary_set)[:4]) if restrict else None
    res = solve_bnb(inst, BnbConfig(allowed_branch_set=allowed, node_limit=200))
    assert (res.nodes_processed, res.fathomed) == expected
    assert sum(res.fathomed.values()) == len(res.leaf_depths)


def test_fathom_reasons_add_up_to_the_leaves():
    for seed in range(40):
        inst = random_binary_instance(seed, continuous=seed % 3)
        for cfg in (BnbConfig(), BnbConfig(node_limit=4), BnbConfig(allowed_branch_set=frozenset(sorted(inst.binary_set)[:2]))):
            res = solve_bnb(inst, cfg)
            assert tuple(res.fathomed) == FATHOM_REASONS
            assert sum(res.fathomed.values()) == len(res.leaf_depths)


def test_repeat_solve_is_answered_from_the_instance_memo():
    inst = gen_gisp(nodes=15, seed=5)
    first = solve_bnb(inst)
    runs = inst.lp.kernel_runs
    hits = inst.lp.memo_hits
    again = solve_bnb(inst)
    assert (again.status, again.objective, again.nodes_processed, again.leaf_depths) == (
        first.status, first.objective, first.nodes_processed, first.leaf_depths
    )
    np.testing.assert_array_equal(again.incumbent, first.incumbent)
    assert inst.lp.kernel_runs == runs
    assert inst.lp.memo_hits == hits + again.nodes_processed
    copy = dataclasses.replace(inst)
    assert copy == inst and copy.lp is not inst.lp and copy.lp.kernel_runs == 0
    assert solve_bnb(copy).nodes_processed == first.nodes_processed
    assert copy.lp.kernel_runs == runs
