import numpy as np
import pytest

from backdoorlab import generators as g
from backdoorlab.milp import lp_relaxation, read_instance, validate_instance, write_instance
from backdoorlab.simplex import OPTIMAL, LpWorkspace


def test_gisp_same_seed_identical():
    assert g.gen_gisp(nodes=30, seed=11) == g.gen_gisp(nodes=30, seed=11)


def test_gisp_structural_counts():
    """#vars = |V| + |E2| and #cons = |E1| + |E2| by construction."""
    inst = g.gen_gisp(nodes=40, seed=5)
    n_y = inst.num_vars - 40
    assert n_y >= 0
    assert inst.num_cons >= n_y
    three_nz = sum(1 for row in inst.rows if len(row) == 3)
    assert three_nz == n_y  # removable rows carry the removal variable
    assert all(len(row) in (2, 3) for row in inst.rows)
    assert set(inst.binary_set) == set(range(inst.num_vars))


def test_gisp_objective_signs():
    inst = g.gen_gisp(nodes=20, seed=2, node_reward=100.0, edge_cost=1.0)
    c = np.array(inst.objective)
    assert np.all(c[:20] == -100.0)
    assert np.all(c[20:] == 1.0)


def test_setcover_dimensions_and_coverage():
    inst = g.gen_setcover(n_elements=60, n_sets=40, density=0.05, seed=9)
    assert inst.num_vars == 40
    assert inst.num_cons == 60
    assert all(len(row) >= 1 for row in inst.rows)
    assert all(s == "GE" for s in inst.senses)


def test_setcover_determinism():
    a = g.gen_setcover(n_elements=25, n_sets=20, seed=3)
    b = g.gen_setcover(n_elements=25, n_sets=20, seed=3)
    assert a == b


def test_combinatorial_auction_shape():
    inst = g.gen_combinatorial_auction(items=20, bids=50, seed=7)
    assert inst.num_vars == 50
    assert inst.num_cons <= 20
    assert all(len(row) >= 1 for row in inst.rows)
    assert np.all(np.array(inst.objective) < 0)  # stored negated


def test_combinatorial_auction_determinism():
    a = g.gen_combinatorial_auction(items=12, bids=30, seed=1)
    assert a == g.gen_combinatorial_auction(items=12, bids=30, seed=1)


def test_mis_no_self_loops_or_duplicates():
    inst = g.gen_mis(nodes=30, avg_degree=5, seed=4)
    pairs = set()
    for row in inst.rows:
        assert len(row) == 2
        (i, _), (j, _) = row
        assert i != j
        assert (i, j) not in pairs
        pairs.add((i, j))


def test_mis_expected_edge_count():
    """Mean edge count over seeds tracks nodes * avg_degree / 2."""
    counts = [g.gen_mis(nodes=60, avg_degree=4, seed=s).num_cons for s in range(20)]
    target = 60 * 4 / 2
    assert abs(np.mean(counts) - target) / target < 0.15


def test_mis_variable_count():
    assert g.gen_mis(nodes=50, avg_degree=4, seed=0).num_vars == 50


def test_facility_location_structure():
    inst = g.gen_facility_location(facilities=4, customers=6, seed=8)
    assert inst.num_vars == 4 + 24
    assert len(inst.binary_set) == 4
    assert inst.num_cons == 6 + 24 + 4
    assert inst.senses[:6] == ("EQ",) * 6
    # x variables are continuous in [0, 1]
    for j in range(4, inst.num_vars):
        assert inst.lower[j] == 0.0 and inst.upper[j] == 1.0
        assert j not in inst.binary_set


def test_facility_location_relaxation_feasible_across_seeds():
    for seed in range(6):
        inst = g.gen_facility_location(facilities=3, customers=6, seed=seed)
        sol = LpWorkspace(lp_relaxation(inst)).solve()
        assert sol.status == OPTIMAL, f"seed {seed}"


def test_facility_location_determinism():
    a = g.gen_facility_location(facilities=3, customers=4, seed=5)
    assert a == g.gen_facility_location(facilities=3, customers=4, seed=5)


def test_all_outputs_validate_and_serialize_identically(tmp_path):
    """Fixed (family, params, seed) gives byte-identical files across runs."""
    builds = [
        lambda: g.gen_gisp(nodes=18, seed=21),
        lambda: g.gen_setcover(n_elements=15, n_sets=12, seed=21),
        lambda: g.gen_combinatorial_auction(items=8, bids=14, seed=21),
        lambda: g.gen_mis(nodes=16, avg_degree=3, seed=21),
        lambda: g.gen_facility_location(facilities=3, customers=4, seed=21),
    ]
    for k, build in enumerate(builds):
        inst = build()
        assert validate_instance(inst).ok
        p1 = tmp_path / f"a{k}.bdmilp"
        p2 = tmp_path / f"b{k}.bdmilp"
        write_instance(inst, p1)
        write_instance(build(), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_instance(p1) == inst


def test_binary_only_ilp_families():
    for inst in (
        g.gen_gisp(nodes=15, seed=0),
        g.gen_setcover(n_elements=10, n_sets=8, seed=0),
        g.gen_combinatorial_auction(items=6, bids=10, seed=0),
        g.gen_mis(nodes=12, avg_degree=3, seed=0),
    ):
        assert set(inst.binary_set) == set(range(inst.num_vars))


def test_config_validation():
    with pytest.raises(ValueError):
        g.gen_gisp(nodes=1)
    with pytest.raises(ValueError):
        g.gen_setcover(density=0.0)
    with pytest.raises(ValueError):
        g.gen_mis(nodes=10, avg_degree=10)


@pytest.mark.parametrize("make, message", [
    (lambda: g.gen_gisp(nodes=5, edge_prob=2.0), "gisp edge_prob must lie in [0, 1], got 2.0"),
    (lambda: g.gen_gisp(nodes=5, edge_prob=-1.0), "gisp edge_prob must lie in [0, 1], got -1.0"),
    (lambda: g.gen_gisp(nodes=5, edge_prob=float("nan")), "gisp edge_prob must lie in [0, 1], got nan"),
    (lambda: g.gen_gisp(nodes=5, removable_frac=5.0), "gisp removable_frac must lie in [0, 1], got 5.0"),
    (lambda: g.gen_gisp(nodes=5, removable_frac=-0.1), "gisp removable_frac must lie in [0, 1], got -0.1"),
    (lambda: g.gen_mis(nodes=6, avg_degree=-1.0), "mis avg_degree must lie in [0, 5], got -1.0"),
    (lambda: g.gen_mis(nodes=6, avg_degree=5.5), "mis avg_degree must lie in [0, 5], got 5.5"),
    (lambda: g.gen_setcover(density=1.5), "setcover density must lie in (0, 1], got 1.5"),
], ids=[
    "gisp-edge-prob-above-1", "gisp-edge-prob-negative", "gisp-edge-prob-nan",
    "gisp-removable-frac-above-1", "gisp-removable-frac-negative",
    "mis-avg-degree-negative", "mis-avg-degree-above-nodes-minus-1", "setcover-density-above-1",
])
def test_a_probability_outside_the_unit_interval_is_rejected_naming_the_family(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: g.gen_setcover(n_elements=0), "setcover needs positive element and set counts"),
    (lambda: g.gen_setcover(n_sets=0), "setcover needs positive element and set counts"),
    (lambda: g.gen_combinatorial_auction(items=0), "combinatorial_auction needs positive items and bids"),
    (lambda: g.gen_combinatorial_auction(bids=0), "combinatorial_auction needs positive items and bids"),
    (lambda: g.gen_mis(nodes=1), "mis needs at least 2 nodes"),
    (lambda: g.gen_facility_location(facilities=0), "facility_location needs positive counts"),
    (lambda: g.gen_facility_location(customers=0), "facility_location needs positive counts"),
], ids=[
    "setcover-no-elements", "setcover-no-sets", "auction-no-items", "auction-no-bids",
    "mis-one-node", "facility-location-no-facilities", "facility-location-no-customers",
])
def test_a_size_below_its_minimum_is_rejected_naming_the_family(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_probabilities_at_the_ends_of_the_unit_interval_are_accepted():
    assert g.gen_gisp(nodes=5, edge_prob=0.0, seed=1).num_cons == 0
    complete = g.gen_gisp(nodes=5, edge_prob=1.0, removable_frac=0.0, seed=1)
    assert complete.num_vars == 5 and complete.num_cons == 10
    assert g.gen_gisp(nodes=5, edge_prob=1.0, removable_frac=1.0, seed=1).num_vars == 15
    assert g.gen_mis(nodes=6, avg_degree=5.0, seed=1).num_cons == 15
    assert g.gen_mis(nodes=6, avg_degree=0.0, seed=1).num_cons == 0
