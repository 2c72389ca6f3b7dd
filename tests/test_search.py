import itertools

import numpy as np
import pytest

from backdoorlab.bnb import restricted_probe
from backdoorlab.generators import gen_gisp, gen_mis
from backdoorlab.milp import fractionality, make_instance
from backdoorlab.search import (
    Backdoor,
    biased_sample,
    label_samples,
    mcts_search,
)

from conftest import random_binary_instance


def fractional_fixture():
    """3 binaries with root-LP values 0.5, 0.25, 0.25 and 2 integral ones."""
    # min -x0 -x1 -x2 s.t. 2x0 <= 1, 4x1 <= 1, 4x2 <= 1; x3, x4 free-to-1.
    inst = make_instance(
        "frac",
        [-1.0, -1.0, -1.0, -1.0, -1.0],
        [[(0, 2.0)], [(1, 4.0)], [(2, 4.0)]],
        [1.0, 1.0, 1.0],
        ["LE", "LE", "LE"],
        [0] * 5,
        [1] * 5,
        range(5),
    )
    return inst, inst.lp.solve()


class TestBackdoorType:
    def test_sorts_and_rejects_duplicates(self):
        assert Backdoor((3, 1, 2)).vars == (1, 2, 3)
        with pytest.raises(ValueError):
            Backdoor((1, 1))
        with pytest.raises(ValueError):
            Backdoor(())

    def test_size(self):
        assert Backdoor((4, 7)).size == 2


class TestBiasedSample:
    def test_integral_root_reduces_to_uniform(self):
        inst = make_instance(
            "unif", [1.0] * 6, [], [], [], [0] * 6, [1] * 6, range(6)
        )
        root = inst.lp.solve()
        assert np.all(fractionality(root.x) == 0.0)
        draws = biased_sample(inst, K=1, count=6000, seed=1)
        counts = np.bincount([b.vars[0] for b in draws], minlength=6)
        assert np.all(np.abs(counts / 6000 - 1 / 6) < 0.03)

    def test_fractional_vars_dominate(self):
        inst, root = fractional_fixture()
        fr = fractionality(root.x)
        k_frac = int(np.sum(fr > 0))
        draws = biased_sample(inst, K=k_frac, count=1000, seed=2)
        frac_set = set(np.flatnonzero(fr > 0).tolist())
        hits = sum(1 for b in draws if set(b.vars) == frac_set)
        assert hits == 1000

    def test_pick_frequencies_match_weights(self):
        inst, root = fractional_fixture()
        draws = biased_sample(inst, K=1, count=10000, seed=3)
        counts = np.bincount([b.vars[0] for b in draws], minlength=5)
        freq = counts / 10000
        fr = fractionality(root.x)
        probs = (fr + 1e-6) / (fr + 1e-6).sum()
        assert np.all(np.abs(freq - probs) < 0.03)

    def test_k_too_large(self):
        inst, root = fractional_fixture()
        with pytest.raises(ValueError):
            biased_sample(inst, K=6, count=1, seed=0)


class TestMcts:
    def test_five_vars_pairs_enumerated(self):
        """|I|=5, K=2 with budget past full enumeration ties the best pair."""
        inst = gen_mis(nodes=5, avg_degree=3.0, seed=1)
        limit = 4
        pairs = list(itertools.combinations(range(5), 2))
        best = max(
            restricted_probe(inst, s, node_limit=limit)[0]
            for s in pairs
        )
        ranked = mcts_search(
            inst, K=2, iteration_budget=5 * len(pairs), probe_node_limit=limit,
            seed=0, top_k=50,
        )
        assert ranked[0][1] == pytest.approx(best, abs=1e-12)
        assert len(ranked) == len(pairs)  # everything evaluated

    def test_exhaustive_budget_finds_best(self):
        for seed in range(4):
            inst = gen_mis(nodes=7, avg_degree=4.0, seed=seed)
            K, limit = 2, 6
            subs = list(itertools.combinations(range(7), K))
            best = max(
                restricted_probe(inst, s, node_limit=limit)[0]
                for s in subs
            )
            ranked = mcts_search(
                inst, K=K, iteration_budget=6 * len(subs),
                probe_node_limit=limit, seed=seed, top_k=50,
            )
            assert ranked[0][1] == pytest.approx(best, abs=1e-12)

    def test_fixed_seed_identical_ranking(self):
        inst = gen_mis(nodes=8, avg_degree=4.0, seed=2)
        a = mcts_search(inst, K=3, iteration_budget=40, probe_node_limit=8, seed=5, top_k=50)
        b = mcts_search(inst, K=3, iteration_budget=40, probe_node_limit=8, seed=5, top_k=50)
        assert a == b

    def test_outputs_distinct_correct_size(self):
        inst = gen_mis(nodes=9, avg_degree=4.0, seed=3)
        ranked = mcts_search(inst, K=3, iteration_budget=60, probe_node_limit=8, seed=1, top_k=50)
        seen = set()
        for bd, w in ranked:
            assert bd.size == 3
            assert bd.vars not in seen
            seen.add(bd.vars)
            assert 0.0 <= w <= 1.0

    def test_rewards_reproducible_by_independent_probe(self):
        inst = gen_mis(nodes=8, avg_degree=4.0, seed=4)
        limit = 8
        ranked = mcts_search(inst, K=2, iteration_budget=50, probe_node_limit=limit, seed=2, top_k=50)
        for bd, w in ranked[:5]:
            w2, _, _ = restricted_probe(inst, bd.vars, node_limit=limit)
            assert w2 == w

    def test_dominates_biased_sampling_with_full_budget(self):
        for seed in range(3):
            inst = gen_mis(nodes=8, avg_degree=5.0, seed=seed + 10)
            limit = 6
            ranked = mcts_search(
                inst, K=2, iteration_budget=200, probe_node_limit=limit,
                seed=seed, top_k=50,
            )
            sampled = biased_sample(inst, K=2, count=20, seed=seed)
            best_sampled = max(
                restricted_probe(inst, b.vars, node_limit=limit)[0]
                for b in sampled
            )
            assert ranked[0][1] >= best_sampled - 1e-12

    @pytest.mark.parametrize("budget", [30, 200])
    def test_stats_count_selections_and_depth(self, budget):
        """The root holds one untried action per binary, so the first
        ``n`` iterations each expand a root child and select nothing; every
        later iteration selects a root child and expands below it."""
        for seed in range(4):
            inst = gen_gisp(nodes=25, seed=seed)
            n = len(inst.binary_set)
            stats = {}
            mcts_search(inst, K=4, iteration_budget=budget, probe_node_limit=12, seed=seed, top_k=50, stats=stats)
            assert stats["selections"] == max(0, budget - n)
            assert stats["max_depth"] == (1 if budget <= n else 2)

    def test_zero_budget_signaled(self):
        inst = gen_mis(nodes=6, avg_degree=3.0, seed=0)
        with pytest.raises(ValueError, match="budget"):
            mcts_search(inst, K=2, iteration_budget=0, probe_node_limit=4, seed=0, top_k=50)

    def test_k_too_large(self):
        inst = gen_mis(nodes=6, avg_degree=3.0, seed=0)
        with pytest.raises(ValueError):
            mcts_search(inst, K=7, iteration_budget=5, probe_node_limit=4, seed=0, top_k=50)


class TestLabelSamples:
    @staticmethod
    def _fake_solver(efforts, baseline):
        class R:
            def __init__(self, nodes):
                self.nodes_processed = nodes

        def fake_solve(inst_, cfg=None):
            if cfg is not None and cfg.priorities:
                key = tuple(sorted(cfg.priorities))
                return R(efforts[key])
            return R(baseline)

        return fake_solve

    def test_ordering_example(self, monkeypatch):
        """Efforts [8,9,12,18,22,40] around baseline 15 with p=q=2."""
        inst = random_binary_instance(200, max_bin=8, max_rows=5)
        cands = [Backdoor((i,)) for i in range(6)]
        efforts = {(0,): 8, (1,): 9, (2,): 12, (3,): 18, (4,): 22, (5,): 40}
        monkeypatch.setattr(
            "backdoorlab.search.solve_bnb", self._fake_solver(efforts, 15)
        )
        res = label_samples(inst, cands, p=2, q=2)
        assert [s.effort for s in res.positives] == [8, 9]
        assert [s.effort for s in res.negatives] == [40, 22]
        assert all(s.label == "POSITIVE" for s in res.positives)
        assert all(s.label == "NEGATIVE" for s in res.negatives)
        assert res.baseline_effort == 15

    def test_single_sided_example(self, monkeypatch):
        """Efforts [10, 20, 30] around baseline 15 with p=q=1."""
        inst = random_binary_instance(203, max_bin=8, max_rows=5)
        efforts = {(0,): 10, (1,): 20, (2,): 30}
        monkeypatch.setattr(
            "backdoorlab.search.solve_bnb", self._fake_solver(efforts, 15)
        )
        res = label_samples(inst, [Backdoor((i,)) for i in range(3)], p=1, q=1)
        assert [s.effort for s in res.positives] == [10]
        assert [s.effort for s in res.negatives] == [30]

    def test_skip_when_nothing_beats_baseline(self, monkeypatch):
        inst = random_binary_instance(201, max_bin=8, max_rows=5)
        efforts = {(0,): 10, (1,): 12}
        monkeypatch.setattr(
            "backdoorlab.search.solve_bnb", self._fake_solver(efforts, 5)
        )
        res = label_samples(inst, [Backdoor((0,)), Backdoor((1,))], p=1, q=1)
        assert res.skipped
        assert "beat" in res.skip_reason

    def test_skip_when_nothing_loses(self, monkeypatch):
        inst = random_binary_instance(204, max_bin=8, max_rows=5)
        efforts = {(0,): 2, (1,): 3}
        monkeypatch.setattr(
            "backdoorlab.search.solve_bnb", self._fake_solver(efforts, 5)
        )
        res = label_samples(inst, [Backdoor((0,)), Backdoor((1,))], p=1, q=1)
        assert res.skipped
        assert res.positives == [] and res.negatives == []

    def test_disjoint_and_bounded(self):
        for seed in (2, 3, 5):
            inst = gen_mis(nodes=10, avg_degree=4.0, seed=seed)
            cands = biased_sample(inst, K=3, count=12, seed=seed)
            res = label_samples(inst, cands, p=3, q=3)
            if res.skipped:
                continue
            pos = {s.backdoor.vars for s in res.positives}
            neg = {s.backdoor.vars for s in res.negatives}
            assert not pos & neg
            assert len(pos) <= 3 and len(neg) <= 3
            for s in res.positives:
                assert s.effort < res.baseline_effort
            for s in res.negatives:
                assert s.effort > res.baseline_effort

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 0)])
    def test_p_or_q_below_one_rejected(self, p, q):
        inst = random_binary_instance(202)
        with pytest.raises(ValueError, match="p and q must be at least 1"):
            label_samples(inst, [Backdoor((0,))], p=p, q=q)

    def test_empty_candidates_rejected(self):
        inst = random_binary_instance(202)
        with pytest.raises(ValueError):
            label_samples(inst, [], p=1, q=1)
