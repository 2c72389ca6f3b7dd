"""Collect candidate backdoors two ways and label them by measured effort.

The UCT search grows variable subsets one element at a time, scoring
terminal subsets with node-limited probes; biased sampling draws subsets
weighted by root-LP fractionality.  Labeling then solves the instance once
per candidate under branching priorities: candidates strictly faster than
the default solve become positives, strictly slower ones negatives.
"""

from backdoorlab import biased_sample, gen_gisp, label_samples, mcts_search

inst = gen_gisp(nodes=25, seed=3)
root = inst.lp.solve()

frac = sorted(
    ((min(x % 1, 1 - x % 1), j) for j, x in enumerate(root.x)), reverse=True
)
print(f"{inst.name}: most fractional root-LP variables: {[j for _, j in frac[:6]]}")

sampled = biased_sample(inst, K=4, count=8, seed=0)
print("\nbiased samples:", [list(b.vars) for b in sampled[:4]], "...")

ranked = mcts_search(
    inst, K=4, iteration_budget=40, probe_node_limit=12, seed=0,
    top_k=10,
)
print("\nsearch-ranked candidates (tree weight is the probe reward):")
for bd, weight in ranked[:5]:
    print(f"  {list(bd.vars)}  weight={weight:.3f}")

result = label_samples(inst, [bd for bd, _ in ranked], p=3, q=3)
print(f"\nbaseline effort: {result.baseline_effort} nodes")
if result.skipped:
    print(f"instance skipped: {result.skip_reason}")
else:
    for s in result.positives:
        print(f"  POSITIVE {list(s.backdoor.vars)}: {s.effort} nodes")
    for s in result.negatives:
        print(f"  NEGATIVE {list(s.backdoor.vars)}: {s.effort} nodes")
