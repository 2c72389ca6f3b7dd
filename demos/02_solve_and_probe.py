"""Solve instances with branch and bound and read the tree instrumentation.

Solving effort is the number of processed nodes (deterministic, unlike wall
clock) and every fathomed leaf contributes 2**-depth to the tree weight, so
a finished tree always weighs exactly 1.0 and an interrupted one reports the
share of the tree it closed.
"""

import numpy as np

from backdoorlab import BnbConfig, gen_gisp, restricted_probe, solve_bnb
from backdoorlab.bnb import backdoor_priorities

inst = gen_gisp(nodes=25, seed=2)
print(f"instance {inst.name}: {inst.num_vars} vars, {inst.num_cons} rows")

# ``inst.lp`` is the instance's LP workspace: every solve below reuses it.
root = inst.lp.solve()
print(f"root LP objective {root.objective:.1f}")

res = solve_bnb(inst)
print(
    f"default solve: status={res.status} objective={res.objective:.1f} "
    f"nodes={res.nodes_processed} tree_weight={res.tree_weight}"
)

# Branching priorities change the effort but never the optimum.
rng = np.random.default_rng(0)
print("\nrandom 4-variable priority sets:")
for trial in range(5):
    chosen = rng.choice(sorted(inst.binary_set), size=4, replace=False)
    guided = solve_bnb(inst, BnbConfig(priorities=backdoor_priorities(chosen)))
    assert abs(guided.objective - res.objective) < 1e-6
    print(
        f"  vars {np.sort(chosen).tolist()}: {guided.nodes_processed:3d} nodes "
        f"(baseline {res.nodes_processed})"
    )

# A restricted probe only branches inside the subset and fathoms stalled
# nodes, which is the cheap reward used by the subset search.
print("\nnode-limited probes of the same subsets:")
for trial in range(3):
    chosen = rng.choice(sorted(inst.binary_set), size=4, replace=False)
    weight, nodes, completed = restricted_probe(inst, chosen, node_limit=12)
    print(
        f"  vars {np.sort(chosen).tolist()}: weight={weight:.3f} "
        f"nodes={nodes} completed={completed}"
    )
