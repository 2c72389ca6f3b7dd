"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The end-to-end criterion (9) trains a model on 100 tiny instances
and is the slowest piece; the whole module finishes in a few minutes.
"""

import itertools
import math
import time

import numpy as np
import pytest

from backdoorlab.bnb import BnbConfig, restricted_probe, solve_bnb, tree_weight
from backdoorlab.features import featurize
from backdoorlab.generators import (
    gen_facility_location,
    gen_gisp,
    gen_mis,
    gen_setcover,
)
from backdoorlab.gnn import (
    TrainConfig,
    TrainSample,
    gat_forward,
    greedy_select,
    infonce_loss,
    load_model,
    save_model,
    train,
)
from backdoorlab.gnn.model import GatParameters, score_graph
from backdoorlab.gnn.training import batch_gradient
from backdoorlab.milp import write_instance
from backdoorlab.pipeline import (
    CollectConfig,
    collect_dataset,
    evaluate,
    report,
    train_from_file,
)
from backdoorlab.search import mcts_search

from conftest import brute_force_solve, random_binary_instance
from test_training import planted_dataset


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_bnb_oracle_equivalence():
    """solve_bnb matches brute-force enumeration on 100 random instances."""
    t0 = time.time()
    agree = 0
    for seed in range(100):
        if seed % 10 < 3:
            inst = random_binary_instance(seed, max_bin=8, max_rows=8, continuous=2)
        else:
            inst = random_binary_instance(seed, max_bin=12, max_rows=8)
        res = solve_bnb(inst)
        oracle = brute_force_solve(inst)
        if oracle is None:
            agree += res.status == "INFEASIBLE"
        else:
            agree += res.status == "OPTIMAL" and abs(res.objective - oracle) <= 1e-6
    elapsed = time.time() - t0
    _verdict(
        1,
        agree == 100 and elapsed < 60.0,
        f"oracle agreement {agree}/100 in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_priority_invariance():
    """Any priority vector leaves the optimal objective unchanged."""
    rng = np.random.default_rng(123)
    pairs = ok = 0
    seed = 0
    while pairs < 100:
        inst = random_binary_instance(1000 + seed, max_bin=10, max_rows=7)
        seed += 1
        base = solve_bnb(inst)
        if base.status != "OPTIMAL":
            continue
        for _ in range(5):
            prio = {int(j): int(rng.integers(0, 5)) for j in inst.binary_set}
            res = solve_bnb(inst, BnbConfig(priorities=prio))
            ok += res.status == "OPTIMAL" and abs(res.objective - base.objective) <= 1e-6
            pairs += 1
    _verdict(2, ok == 100, f"objective agreement {ok}/100 priority pairs")


def _pre_activations(params: GatParameters, graph, pos, neg) -> list[np.ndarray]:
    """Every array a relu or leaky relu sees in one forward pass and loss.

    The embedding and output MLPs and the three head transforms of each
    attention round all go through ``model.leaky_relu_values`` (a relu is
    its slope-0 case).
    """
    from backdoorlab.gnn import model as model_mod

    seen: list[np.ndarray] = []
    orig_leaky = model_mod.leaky_relu_values

    def rec_leaky(x, slope):
        seen.append(x)
        return orig_leaky(x, slope)

    model_mod.leaky_relu_values = rec_leaky
    try:
        scores, _, _ = score_graph(params.arrays, graph)
        infonce_loss(scores, pos, neg, 0.07)
    finally:
        model_mod.leaky_relu_values = orig_leaky
    return seen


def _kink_margin(params: GatParameters, graph, pos, neg) -> float:
    """Smallest |pre-activation| any relu/leaky-relu sees in the forward pass.

    Central differences are only valid where the composition is smooth, so
    the gradient check below skips configurations whose margin is inside the
    differencing step's reach.
    """
    return min(float(np.abs(x).min()) for x in _pre_activations(params, graph, pos, neg) if x.size)


def test_criterion_3_kink_filter_sees_every_pre_activation():
    """The filter gets all ten arrays: four MLP hidden layers and the three
    head transforms of each attention round."""
    inst = gen_mis(nodes=5, avg_degree=3.0, seed=0)
    graph = featurize(inst, inst.lp.solve())
    params = GatParameters.init(seed=0, L=6, H=2, hidden=5)
    seen = _pre_activations(params, graph, [(0, 1)], [(2, graph.num_vars - 1), (1, 2)])
    nc = graph.node_classes
    var_rows, cons_rows, edge_rows = (x.shape[0] for x in (nc.var_rows, nc.cons_rows, nc.edge_rows))
    assert [x.shape for x in seen] == [
        (var_rows, 5), (cons_rows, 5), (edge_rows, 5),  # embedding MLPs
        (2, cons_rows, 6), (2, var_rows, 6), (2, edge_rows, 6),  # round 1: receivers, senders, edges
        (2, var_rows, 6), (2, nc.round1.recv.size, 6), (2, edge_rows, 6),  # round 2
        (nc.round2.recv.size, 5),  # output MLP
    ]


def test_criterion_3_gradient_fidelity():
    """Training's attention+loss gradients vs central differences, 10 graphs.

    Candidate seeds whose activations sit within the differencing step's
    reach of a relu kink are excluded (the usual gradcheck validity
    condition); everything else must match to 1e-4 relative.
    """
    h = 1e-5
    worst = 0.0
    checked = 0
    for seed in range(30):
        if checked == 10:
            break
        inst = gen_mis(nodes=5 + seed % 3, avg_degree=3.0, seed=seed)
        graph = featurize(inst, inst.lp.solve())
        params = GatParameters.init(seed=seed, L=6, H=2, hidden=5)
        n = graph.num_vars
        pos = [(0, 1)]
        neg = [(2, n - 1), (1, 2)]
        if _kink_margin(params, graph, pos, neg) < 1e-3:
            continue
        checked += 1

        def loss_of(p: GatParameters) -> float:
            scores, _, _ = score_graph(p.arrays, graph)
            return infonce_loss(scores, pos, neg, 0.07)

        # The gradient that training computes, for a batch of this one sample.
        _, flat = batch_gradient(params, [TrainSample(graph, tuple(pos), tuple(neg))], 0.07)
        for name, g in params.views(flat).items():
            arr = params.arrays[name]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                fp = loss_of(params)
                arr[idx] = orig - h
                fm = loss_of(params)
                arr[idx] = orig
                fd = (fp - fm) / (2 * h)
                # Central differences at step h carry ~1e-9 absolute noise in
                # double precision, so the relative-error denominator is
                # floored where gradients drop below 1e-5.
                rel = abs(fd - g[idx]) / max(1e-5, abs(fd), abs(g[idx]))
                worst = max(worst, rel)
    _verdict(
        3,
        checked == 10 and worst < 1e-4,
        f"{checked} graphs checked, max relative gradient error {worst:.2e} (< 1e-4)",
    )


def test_criterion_4_attention_normalization():
    """Every attention neighborhood sums to 1 within 1e-9 (>= 1000 of them)."""
    neighborhoods = 0
    worst = 0.0
    seed = 0
    while neighborhoods < 1000:
        inst = gen_mis(nodes=10 + seed % 7, avg_degree=4.0, seed=seed)
        graph = featurize(inst, inst.lp.solve())
        params = GatParameters.init(seed=seed, L=8, H=4, hidden=6)
        _, recs = gat_forward(params, graph, collect_attention=True)
        for rec in recs:
            sums = rec.alpha_self.copy()
            if rec.receiver_of_edge.size:
                np.add.at(sums, (slice(None), rec.receiver_of_edge), rec.alpha_edge)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
            neighborhoods += sums.size
        seed += 1
    _verdict(
        4,
        worst <= 1e-9,
        f"{neighborhoods} neighborhoods, max |sum - 1| = {worst:.2e} (<= 1e-9)",
    )


def test_criterion_5_infonce_closed_forms():
    empty = infonce_loss(np.array([0.4, 0.9, 0.2]), [(0,), (1, 2)], [])
    sym = infonce_loss(np.array([0.5, 0.5]), [(0,)], [(1,)], tau=0.07)
    ok = empty == 0.0 and abs(sym - math.log(2.0)) <= 1e-12
    _verdict(
        5,
        ok,
        f"empty negatives -> {empty!r}, symmetric pair -> ln2 + {sym - math.log(2.0):.1e}",
    )


def test_criterion_6_mcts_oracle():
    """Exhaustive-budget search ties the brute-force best; quarter budget
    stays within 10% on at least 8 of 10 crafted instances."""
    K, limit = 3, 8
    full_hits = quarter_hits = 0
    for seed in range(10):
        inst = gen_mis(nodes=8, avg_degree=6.0, seed=seed)
        subsets = list(itertools.combinations(sorted(inst.binary_set), K))
        best = max(
            restricted_probe(inst, s, node_limit=limit)[0]
            for s in subsets
        )
        ranked = mcts_search(
            inst, K=K, iteration_budget=5 * len(subsets), probe_node_limit=limit,
            seed=seed, top_k=50,
        )
        full_hits += abs(ranked[0][1] - best) < 1e-12
        quarter = mcts_search(
            inst, K=K, iteration_budget=len(subsets) // 4, probe_node_limit=limit,
            seed=seed, top_k=50,
        )
        quarter_hits += quarter[0][1] >= 0.9 * best
    _verdict(
        6,
        full_hits == 10 and quarter_hits >= 8,
        f"exhaustive top-1 = best on {full_hits}/10, quarter within 10% on {quarter_hits}/10",
    )


def test_criterion_7_tree_weight_laws():
    complete = all(
        tree_weight([d] * (2**d)) == 1.0 for d in (1, 2, 3)
    )
    ok = tree_weight([0]) == 1.0 and complete and tree_weight([1, 2]) == 0.75
    _verdict(7, ok, "root=1, complete depths 1-3 = 1, {1,2} = 0.75 (exact)")


@pytest.mark.slow
def test_criterion_8_learning_signal():
    """Planted-structure run: loss halves and the planted set is recovered."""
    t0 = time.time()
    ds = planted_dataset(count=50)
    params, curve = train(ds, TrainConfig(epochs=100, seed=0))
    recall = 0.0
    for s in ds:
        scores = gat_forward(params, s.graph)
        top3 = set(greedy_select(scores, s.graph.binary_mask, 3).vars)
        recall += len(top3 & {0, 1, 2}) / 3.0
    recall /= len(ds)
    elapsed = time.time() - t0
    ok = curve[-1] <= 0.5 * curve[0] and recall >= 0.8 and elapsed < 600.0
    _verdict(
        8,
        ok,
        f"loss {curve[0]:.3f} -> {curve[-1]:.4f}, planted recall {recall:.2f}, "
        f"{elapsed:.0f}s (< 600s)",
    )


@pytest.mark.slow
def test_criterion_9_end_to_end_gisp(tmp_path):
    """Desk-scale analogue of the headline result: on 50 held-out 25-node
    instances, model-picked backdoors (the default configuration, model
    trained on 100 instances) win strictly more often than they lose, with
    median improvement >= 0."""
    train_dir = tmp_path / "train"
    test_dir = tmp_path / "test"
    train_dir.mkdir()
    test_dir.mkdir()
    for s in range(100):
        inst = gen_gisp(nodes=25, seed=s)
        write_instance(inst, train_dir / f"{inst.name}.bdmilp")
    for s in range(1000, 1050):
        inst = gen_gisp(nodes=25, seed=s)
        write_instance(inst, test_dir / f"{inst.name}.bdmilp")
    collect_dataset(train_dir, tmp_path / "ds.jsonl", CollectConfig(seed=0), workers=2)
    params, _ = train_from_file(tmp_path / "ds.jsonl", TrainConfig(seed=0))
    records, summary = evaluate(params, test_dir)
    ok = (
        len(records) == 50
        and summary["wins"] > summary["losses"]
        and summary["median_improvement_pct"] >= 0.0
    )
    _verdict(
        9,
        ok,
        f"W/T/L {summary['wins']}/{summary['ties']}/{summary['losses']}, "
        f"median improvement {summary['median_improvement_pct']:.1f}%",
    )


def test_criterion_10_artifact_determinism(tmp_path):
    """collect (workers 1 vs 4), train, and evaluate are byte-reproducible."""
    inst_dir = tmp_path / "inst"
    inst_dir.mkdir()
    for s in range(6):
        inst = gen_gisp(nodes=22, seed=s)
        write_instance(inst, inst_dir / f"{inst.name}.bdmilp")
    cfg = CollectConfig(
        K=3, top_k=8, p=3, q=3, mcts_budget=20, probe_node_limit=10,
        label_node_limit=2000, seed=0,
    )
    d1, d4 = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
    collect_dataset(inst_dir, d1, cfg, workers=1)
    collect_dataset(inst_dir, d4, cfg, workers=4)
    datasets_equal = d1.read_bytes() == d4.read_bytes()

    tcfg = TrainConfig(epochs=5, seed=7, L=8, H=2, hidden=6, batch_size=8)
    p1, _ = train_from_file(d1, tcfg)
    p2, _ = train_from_file(d1, tcfg)
    save_model(p1, tmp_path / "m1.ckpt")
    save_model(p2, tmp_path / "m2.ckpt")
    ckpts_equal = (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    model = load_model(tmp_path / "m1.ckpt")
    r1, _ = evaluate(model, inst_dir, K=3, node_cap=2000)
    r2, _ = evaluate(model, inst_dir, K=3, node_cap=2000)
    report(r1, tmp_path / "e1")
    report(r2, tmp_path / "e2")
    csvs_equal = (tmp_path / "e1" / "results.csv").read_bytes() == (
        tmp_path / "e2" / "results.csv"
    ).read_bytes()
    _verdict(
        10,
        datasets_equal and ckpts_equal and csvs_equal,
        f"dataset workers 1==4: {datasets_equal}, checkpoints: {ckpts_equal}, "
        f"eval CSVs: {csvs_equal}",
    )


def test_criterion_11_generator_calibration():
    nv, nc = [], []
    for s in range(20):
        inst = gen_gisp(seed=s)
        nv.append(inst.num_vars)
        nc.append(inst.num_cons)
    var_dev = abs(np.mean(nv) - 988) / 988
    cons_dev = abs(np.mean(nc) - 3253) / 3253
    sc = gen_setcover()
    fc = gen_facility_location()
    fc_bin = len(fc.binary_set)
    fc_cont = fc.num_vars - fc_bin
    ok = (
        var_dev <= 0.10
        and cons_dev <= 0.10
        and (sc.num_vars, sc.num_cons) == (1000, 1200)
        and (fc_bin, fc_cont) == (100, 20000)
    )
    _verdict(
        11,
        ok,
        f"gisp means {np.mean(nv):.0f}/{np.mean(nc):.0f} vars/cons "
        f"(dev {100*var_dev:.1f}%/{100*cons_dev:.1f}%), sc {sc.num_vars}x{sc.num_cons}, "
        f"fc {fc_bin}+{fc_cont}",
    )
