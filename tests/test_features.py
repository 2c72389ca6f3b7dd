import numpy as np
import pytest

from backdoorlab.features import NUM_CONS_FEATURES, NUM_VAR_FEATURES, BipartiteGraph, featurize
from backdoorlab.generators import gen_facility_location, gen_gisp
from backdoorlab.milp import make_instance
from backdoorlab.simplex import LpSolution

from conftest import random_binary_instance


def graph_of(inst):
    return featurize(inst, inst.lp.solve())


def test_shapes_match_nonzero_pattern():
    inst = random_binary_instance(1, max_bin=9, max_rows=6)
    g = graph_of(inst)
    nnz = sum(len(row) for row in inst.rows)
    assert g.var_feats.shape == (inst.num_vars, NUM_VAR_FEATURES)
    assert g.cons_feats.shape == (inst.num_cons, NUM_CONS_FEATURES)
    assert g.edges.shape == (nnz, 2)
    assert g.edge_feats.shape == (nnz, 1)
    pattern = {(r, j) for r, row in enumerate(inst.rows) for j, _ in row}
    assert {(int(a), int(b)) for a, b in g.edges} == pattern


def test_mixed_instance_masks():
    inst = gen_facility_location(facilities=3, customers=4, seed=0)
    g = graph_of(inst)
    assert g.binary_mask.sum() == 3
    assert np.all(g.var_feats[:3, 1] == 1.0)
    assert np.all(g.var_feats[3:, 2] == 1.0)


def permute_instance(inst, perm):
    """Relabel variables by x_new[perm[j]] = x_old[j]."""
    inv = np.argsort(perm)
    objective = [inst.objective[inv[k]] for k in range(inst.num_vars)]
    rows = [
        sorted((int(perm[j]), a) for j, a in row)
        for row in inst.rows
    ]
    lower = [inst.lower[inv[k]] for k in range(inst.num_vars)]
    upper = [inst.upper[inv[k]] for k in range(inst.num_vars)]
    binaries = [int(perm[j]) for j in inst.binary_set]
    return make_instance(
        inst.name + "_perm", objective, rows, inst.rhs, inst.senses, lower, upper, binaries
    )


def permute_solution(sol, perm):
    def due(arr):
        out = np.empty_like(arr)
        out[perm] = arr
        return out

    return LpSolution(
        status=sol.status, x=due(sol.x), objective=sol.objective,
        reduced_costs=due(sol.reduced_costs), at_lower=due(sol.at_lower),
        at_upper=due(sol.at_upper), iterations=sol.iterations,
    )


def test_variable_permutation_equivariance():
    """Relabeling variables permutes feature rows and edge endpoints alike.

    The root solution is permuted along with the instance: a fresh solve of
    the relabeled LP may sit at a different degenerate basis, which is a
    property of the solver path, not of the encoding.
    """
    inst = gen_gisp(nodes=10, seed=4)
    rng = np.random.default_rng(0)
    perm = rng.permutation(inst.num_vars)
    pinst = permute_instance(inst, perm)
    root = inst.lp.solve()
    g = featurize(inst, root)
    pg = featurize(pinst, permute_solution(root, perm))
    np.testing.assert_allclose(pg.var_feats[perm], g.var_feats, atol=1e-12)
    np.testing.assert_array_equal(pg.binary_mask[perm], g.binary_mask)
    orig = {(int(r), int(perm[j])): v for (r, j), v in zip(map(tuple, g.edges), g.edge_feats[:, 0])}
    perm_edges = {(int(r), int(j)): v for (r, j), v in zip(map(tuple, pg.edges), pg.edge_feats[:, 0])}
    assert orig.keys() == perm_edges.keys()
    for k in orig:
        assert orig[k] == pytest.approx(perm_edges[k], abs=1e-12)


def test_zero_objective_guard():
    inst = make_instance(
        "z", [0.0, 0.0], [[(0, 1.0), (1, 1.0)]], [1.0], ["LE"], [0, 0], [1, 1], [0, 1]
    )
    g = graph_of(inst)
    assert np.all(g.var_feats[:, 0] == 0.0)
    assert np.all(np.isfinite(g.var_feats))


def test_feature_ranges():
    """Everything except the raw LP value stays within [-1, 1]."""
    for seed in (3, 5, 9):
        inst = random_binary_instance(seed, max_bin=10, max_rows=7)
        g = graph_of(inst)
        bounded = np.delete(np.arange(NUM_VAR_FEATURES), 7)
        assert np.all(g.var_feats[:, bounded] >= -1.0 - 1e-12)
        assert np.all(g.var_feats[:, bounded] <= 1.0 + 1e-12)
        lo = np.array(inst.lower)
        up = np.array(inst.upper)
        assert np.all(g.var_feats[:, 7] >= lo - 1e-9)
        assert np.all(g.var_feats[:, 7] <= up + 1e-9)
        assert np.all(np.abs(g.cons_feats) <= 1.0 + 1e-12)
        assert np.all(np.abs(g.edge_feats) <= 1.0 + 1e-12)


def test_pure_function_bit_identical():
    inst = random_binary_instance(8)
    root = inst.lp.solve()
    a = featurize(inst, root)
    b = featurize(inst, root)
    np.testing.assert_array_equal(a.var_feats, b.var_feats)
    np.testing.assert_array_equal(a.cons_feats, b.cons_feats)
    np.testing.assert_array_equal(a.edge_feats, b.edge_feats)


def test_requires_optimal_root():
    inst = random_binary_instance(2)
    bad = LpSolution(
        status="INFEASIBLE", x=None, objective=None, reduced_costs=None,
        at_lower=None, at_upper=None, iterations=0,
    )
    with pytest.raises(ValueError):
        featurize(inst, bad)


def test_graph_arrays_are_read_only_copies():
    inst = random_binary_instance(3)
    g = graph_of(inst)
    with pytest.raises(ValueError, match="read-only"):
        g.var_feats[0, 0] = 1.0
    for name in ("var_feats", "cons_feats", "edges", "edge_feats", "binary_mask"):
        assert not getattr(g, name).flags.writeable
    feats = np.array(g.var_feats)
    copy = BipartiteGraph(feats, g.cons_feats, g.edges, g.edge_feats, g.binary_mask)
    feats[0, 0] = 7.0  # the caller's array stays the caller's
    np.testing.assert_array_equal(copy.var_feats, g.var_feats)


def test_graph_read_from_lists_takes_its_dtypes_and_empty_tables():
    g = BipartiteGraph(
        var_feats=[[0.0] * NUM_VAR_FEATURES], cons_feats=[], edges=[], edge_feats=[], binary_mask=[1]
    )
    assert (g.num_vars, g.num_cons) == (1, 0)
    assert g.cons_feats.shape == (0, NUM_CONS_FEATURES) and g.edges.shape == (0, 2)
    assert (g.var_feats.dtype, g.edges.dtype, g.binary_mask.dtype) == (np.float64, np.int64, np.bool_)
    with pytest.raises(ValueError, match=r"^graph edges has 1 dimensions, expected 2$"):
        BipartiteGraph(g.var_feats, g.cons_feats, [0, 0], [[1.0]], g.binary_mask)
    with pytest.raises(ValueError, match=r"^graph cons_feats: "):
        BipartiteGraph(g.var_feats, [[1.0, 0.0, 0.0, 1.0], [1.0]], g.edges, g.edge_feats, g.binary_mask)
