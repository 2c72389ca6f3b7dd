"""Seeded random generators for five benchmark MILP families.

All families produce minimization instances (maximization objectives are
negated at build time).  Randomness comes from numpy's counter-based Philox
generator keyed by the 64-bit config seed, and every function documents its
draw order, so a fixed ``(family, params, seed)`` triple yields a
byte-identical serialized instance on any platform.

Families and their default sizes:

* ``gisp``   -- generalized independent set: node rewards minus removal
  costs on an Erdos-Renyi graph with a removable edge subset.
* ``setcover`` -- minimum set cover with fixed membership density.
* ``combinatorial_auction`` -- single-unit auction set packing.
* ``mis``    -- maximum independent set on an Erdos-Renyi graph.
* ``facility_location`` -- capacitated facility location with continuous
  assignment variables.
"""

from __future__ import annotations

import numpy as np

from .milp import MilpInstance, make_instance

# GISP graph density calibrated so 150-node instances average ~988 variables
# and ~3253 constraints (|E2| ~ 838, |E1|+|E2| ~ 3252).
GISP_EDGE_PROB = 0.291
GISP_REMOVABLE_FRAC = 0.257
GISP_NODE_REWARD = 100.0
GISP_EDGE_COST = 1.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _erdos_renyi(nodes: int, edge_prob: float, rng: np.random.Generator):
    """Edges (i, j) with i < j in lexicographic pair order, one uniform each."""
    iu, ju = np.triu_indices(nodes, k=1)
    keep = rng.random(iu.size) < edge_prob
    return list(zip(iu[keep].tolist(), ju[keep].tolist()))


def gen_gisp(
    nodes: int = 150,
    edge_prob: float = GISP_EDGE_PROB,
    removable_frac: float = GISP_REMOVABLE_FRAC,
    node_reward: float = GISP_NODE_REWARD,
    edge_cost: float = GISP_EDGE_COST,
    seed: int = 0,
) -> MilpInstance:
    """Generalized independent set on G(nodes, edge_prob).

    Draw order: one uniform per node pair (lexicographic) for edge presence,
    then one uniform per existing edge for removability.  Variables are the
    node picks followed by one removal variable per removable edge; rows are
    the non-removable pair constraints followed by the removable ones.
    """
    if nodes < 2:
        raise ValueError("gisp needs at least 2 nodes")
    for name, prob in (("edge_prob", edge_prob), ("removable_frac", removable_frac)):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"gisp {name} must lie in [0, 1], got {prob}")
    rng = _rng(seed)
    edges = _erdos_renyi(nodes, edge_prob, rng)
    removable = rng.random(len(edges)) < removable_frac
    e1 = [e for e, rem in zip(edges, removable) if not rem]
    e2 = [e for e, rem in zip(edges, removable) if rem]
    n = nodes + len(e2)
    objective = [-float(node_reward)] * nodes + [float(edge_cost)] * len(e2)
    rows = [[(i, 1.0), (j, 1.0)] for i, j in e1]
    rows += [
        [(i, 1.0), (j, 1.0), (nodes + k, -1.0)] for k, (i, j) in enumerate(e2)
    ]
    m = len(rows)
    return make_instance(
        name=f"gisp_n{nodes}_s{seed}",
        objective=objective,
        rows=rows,
        rhs=[1.0] * m,
        senses=["LE"] * m,
        lower=[0.0] * n,
        upper=[1.0] * n,
        binary_set=range(n),
    )


def gen_setcover(
    n_elements: int = 1200,
    n_sets: int = 1000,
    density: float = 0.05,
    seed: int = 0,
) -> MilpInstance:
    """Minimum set cover: one >=1 row per element over the sets containing it.

    Draw order: an (elements x sets) uniform matrix row-major for membership,
    then one integer per still-uncovered element (ascending) patching it into
    a uniformly random set.
    """
    if n_elements < 1 or n_sets < 1:
        raise ValueError("setcover needs positive element and set counts")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"setcover density must lie in (0, 1], got {density}")
    rng = _rng(seed)
    member = rng.random((n_elements, n_sets)) < density
    for i in range(n_elements):
        if not member[i].any():
            member[i, int(rng.integers(0, n_sets))] = True
    rows = [[(j, 1.0) for j in np.flatnonzero(member[i])] for i in range(n_elements)]
    return make_instance(
        name=f"setcover_e{n_elements}_s{seed}",
        objective=[1.0] * n_sets,
        rows=rows,
        rhs=[1.0] * n_elements,
        senses=["GE"] * n_elements,
        lower=[0.0] * n_sets,
        upper=[1.0] * n_sets,
        binary_set=range(n_sets),
    )


def gen_combinatorial_auction(
    items: int = 150,
    bids: int = 750,
    seed: int = 0,
) -> MilpInstance:
    """Single-unit combinatorial auction: pick bids, each item sold once.

    Draw order: per-item base values (uniform [0,1]), then per bid a bundle
    size 1 + Binomial(items-1, 3/items), a uniform bundle without
    replacement, and a price noise uniform in [0, 0.1 x bundle value].
    Items appearing in no bundle produce no row.
    """
    if items < 1 or bids < 1:
        raise ValueError("combinatorial_auction needs positive items and bids")
    rng = _rng(seed)
    base = rng.random(items)
    prices = np.empty(bids)
    bundles = []
    for i in range(bids):
        size = 1 + int(rng.binomial(items - 1, min(1.0, 3.0 / items)))
        bundle = np.sort(rng.choice(items, size=size, replace=False))
        value = float(base[bundle].sum())
        prices[i] = value + rng.uniform(0.0, 0.1 * value)
        bundles.append(bundle)
    item_rows: dict[int, list[tuple[int, float]]] = {}
    for i, bundle in enumerate(bundles):
        for j in bundle.tolist():
            item_rows.setdefault(j, []).append((i, 1.0))
    rows = [item_rows[j] for j in sorted(item_rows)]
    return make_instance(
        name=f"ca_i{items}_b{bids}_s{seed}",
        objective=(-prices).tolist(),
        rows=rows,
        rhs=[1.0] * len(rows),
        senses=["LE"] * len(rows),
        lower=[0.0] * bids,
        upper=[1.0] * bids,
        binary_set=range(bids),
    )


def gen_mis(nodes: int = 1250, avg_degree: float = 4.0, seed: int = 0) -> MilpInstance:
    """Maximum independent set on G(nodes, avg_degree / (nodes - 1))."""
    if nodes < 2:
        raise ValueError("mis needs at least 2 nodes")
    if not 0.0 <= avg_degree <= nodes - 1:  # the edge probability lies in [0, 1]
        raise ValueError(f"mis avg_degree must lie in [0, {nodes - 1}], got {avg_degree}")
    rng = _rng(seed)
    edges = _erdos_renyi(nodes, avg_degree / (nodes - 1), rng)
    rows = [[(i, 1.0), (j, 1.0)] for i, j in edges]
    return make_instance(
        name=f"mis_n{nodes}_s{seed}",
        objective=[-1.0] * nodes,
        rows=rows,
        rhs=[1.0] * len(rows),
        senses=["LE"] * len(rows),
        lower=[0.0] * nodes,
        upper=[1.0] * nodes,
        binary_set=range(nodes),
    )


def gen_facility_location(
    facilities: int = 100,
    customers: int = 200,
    seed: int = 0,
) -> MilpInstance:
    """Capacitated facility location with continuous assignment fractions.

    Variables: one binary open flag per facility, then assignment fractions
    ``x[i, j]`` in [0, 1] laid out facility-major.  Rows: one assignment
    equality per customer, one linking row per (facility, customer), one
    capacity row per facility.

    Draw order: facility points (uniform unit square, x then y per point),
    customer points, opening costs uniform [1, 100], demands uniform [5, 35],
    raw capacities uniform [10, 100] rescaled so total capacity >= twice
    total demand.
    """
    if facilities < 1 or customers < 1:
        raise ValueError("facility_location needs positive counts")
    rng = _rng(seed)
    fpts = rng.random((facilities, 2))
    cpts = rng.random((customers, 2))
    open_cost = rng.uniform(1.0, 100.0, size=facilities)
    demand = rng.uniform(5.0, 35.0, size=customers)
    cap_raw = rng.uniform(10.0, 100.0, size=facilities)
    scale = max(1.0, 2.0 * demand.sum() / cap_raw.sum())
    capacity = cap_raw * scale
    dist = np.sqrt(((fpts[:, None, :] - cpts[None, :, :]) ** 2).sum(axis=2))
    serve_cost = 10.0 * dist

    def xvar(i: int, j: int) -> int:
        return facilities + i * customers + j

    n = facilities + facilities * customers
    objective = np.concatenate([open_cost, serve_cost.ravel()])
    rows: list[list[tuple[int, float]]] = []
    rhs: list[float] = []
    senses: list[str] = []
    for j in range(customers):
        rows.append([(xvar(i, j), 1.0) for i in range(facilities)])
        rhs.append(1.0)
        senses.append("EQ")
    for i in range(facilities):
        for j in range(customers):
            rows.append([(i, -1.0), (xvar(i, j), 1.0)])
            rhs.append(0.0)
            senses.append("LE")
    for i in range(facilities):
        row = [(i, -float(capacity[i]))]
        row += [(xvar(i, j), float(demand[j])) for j in range(customers)]
        rows.append(row)
        rhs.append(0.0)
        senses.append("LE")
    return make_instance(
        name=f"fc_f{facilities}_c{customers}_s{seed}",
        objective=objective.tolist(),
        rows=rows,
        rhs=rhs,
        senses=senses,
        lower=[0.0] * n,
        upper=[1.0] * n,
        binary_set=range(facilities),
    )


# Each family's generator; its keyword arguments other than ``seed`` are the
# family's size parameters.
GENERATORS = {
    "gisp": gen_gisp,
    "setcover": gen_setcover,
    "combinatorial_auction": gen_combinatorial_auction,
    "mis": gen_mis,
    "facility_location": gen_facility_location,
}
