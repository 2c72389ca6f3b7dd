import numpy as np
import pytest

from backdoorlab.features import featurize
from backdoorlab.generators import gen_gisp
from backdoorlab.gnn import (
    GatParameters,
    TrainConfig,
    TrainSample,
    gat_forward,
    greedy_select,
    score_graph,
    train,
)
from backdoorlab.gnn import autodiff as ad
from backdoorlab.gnn.loss import infonce_loss_and_grad
from backdoorlab.gnn.optim import _BLOCK
from backdoorlab.gnn.training import _norm, batch_gradient
from backdoorlab.milp import make_instance

from test_gat import per_edge_scores, tape_tensors
from test_loss import tape_infonce


def planted_instance(seed, n=8, m=5):
    """Variables 0..2 carry negative objective weight; the rest positive.

    The contrastive labels always mark supersets of {0,1,2} positive, so a
    model that reads the objective-coefficient feature can recover them.
    """
    r = np.random.default_rng(seed)
    c = np.concatenate([-r.uniform(0.5, 1.5, size=3), r.uniform(0.5, 1.5, size=n - 3)])
    rows, rhs = [], []
    for _ in range(m):
        nz = np.sort(r.choice(n, size=3, replace=False))
        rows.append([(int(j), 1.0) for j in nz])
        rhs.append(2.0)
    return make_instance(
        f"planted{seed}", c.round(3), rows, rhs, ["LE"] * m, [0] * n, [1] * n, range(n)
    )


def planted_dataset(count=50, base_seed=0, n=8):
    ds = []
    rng = np.random.default_rng(base_seed + 999)
    for i in range(count):
        inst = planted_instance(base_seed + i, n=n)
        graph = featurize(inst, inst.lp.solve())
        pos = tuple(
            tuple(sorted((0, 1, 2, int(rng.integers(3, n))))) for _ in range(3)
        )
        neg = tuple(
            tuple(sorted(rng.choice(np.arange(3, n), size=4, replace=False).tolist()))
            for _ in range(3)
        )
        ds.append(TrainSample(graph=graph, positives=pos, negatives=neg))
    return ds


SMALL = dict(L=8, H=2, hidden=8)


def test_curve_has_one_entry_per_epoch():
    ds = planted_dataset(count=6)
    _, curve = train(ds, TrainConfig(epochs=4, seed=0, **SMALL))
    assert len(curve) == 4


def test_same_seed_reproduces_parameters():
    ds = planted_dataset(count=6)
    cfg = TrainConfig(epochs=3, seed=11, **SMALL)
    p1, c1 = train(ds, cfg)
    p2, c2 = train(ds, cfg)
    assert c1 == c2
    for k in p1.arrays:
        np.testing.assert_array_equal(p1.arrays[k], p2.arrays[k])


def test_planted_signal_is_learned():
    ds = planted_dataset(count=25)
    params, curve = train(ds, TrainConfig(epochs=25, seed=0, batch_size=16, **SMALL))
    assert curve[-1] <= 0.5 * curve[0]
    hits = 0
    for s in ds:
        scores = gat_forward(params, s.graph)
        if set(greedy_select(scores, s.graph.binary_mask, 3).vars) == {0, 1, 2}:
            hits += 1
    assert hits / len(ds) >= 0.8


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], TrainConfig(epochs=1, **SMALL))


def test_one_sided_sample_rejected():
    ds = planted_dataset(count=2)
    with pytest.raises(ValueError):
        broken = [TrainSample(graph=ds[0].graph, positives=ds[0].positives, negatives=())]
        train(broken, TrainConfig(epochs=1, **SMALL))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(tau=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("field, value, message", [
    ("tau", float("nan"), "temperature must be positive and finite, got nan"),
    ("tau", float("inf"), "temperature must be positive and finite, got inf"),
    ("learning_rate", float("nan"), "learning rate must be positive and finite, got nan"),
    ("weight_decay", float("inf"), "weight decay must be finite and not negative, got inf"),
])
def test_a_non_finite_rate_is_rejected(field, value, message):
    # The command line refuses these tokens first; a caller in Python reaches this check.
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["L", "H", "hidden"])
def test_model_sizes_below_one_rejected(field):
    with pytest.raises(ValueError, match="must be positive"):
        TrainConfig(**{field: 0})


def gisp_samples(count, nodes=25):
    """GISP graphs with 5 + 5 seeded size-4 subsets of their binaries."""
    out = []
    for seed in range(count):
        inst = gen_gisp(nodes=nodes, seed=seed)
        graph = featurize(inst, inst.lp.solve())
        rng = np.random.default_rng(seed)
        binaries = np.flatnonzero(graph.binary_mask)
        sets = [tuple(sorted(rng.choice(binaries, 4, replace=False).tolist())) for _ in range(10)]
        out.append(TrainSample(graph, tuple(sets[:5]), tuple(sets[5:])))
    return out


def test_per_sample_backward_matches_whole_batch_mean():
    batch = gisp_samples(3)
    for H in (1, 8):  # the default single head, and the multi-head paths
        _check_batch_mean(GatParameters.init(seed=3, H=H), batch)


def _check_batch_mean(params, batch):
    loss, flat = batch_gradient(params, batch, 0.07)
    grads = params.views(flat)

    # The whole batch on the autodiff tape: mean of the per-sample losses.
    tensors = tape_tensors(params)
    total = None
    for s in batch:
        scores, _ = per_edge_scores(tensors, s.graph)
        term = tape_infonce(scores, s.positives, s.negatives, 0.07)
        total = term if total is None else ad.add(total, term)
    mean = ad.mul(total, 1.0 / len(batch))
    names = sorted(tensors)
    ref = dict(zip(names, ad.grad(mean, [tensors[k] for k in names])))

    assert loss == pytest.approx(float(mean.data), rel=1e-12)
    assert sorted(grads) == names
    # The absolute bound scales with the largest entry of the whole gradient:
    # the output bias gradient is a nearly cancelling sum, small against it.
    scale = max(np.abs(ref[k]).max() for k in names)
    for k in names:
        assert np.abs(ref[k]).max() > 0.0
        np.testing.assert_allclose(grads[k], ref[k], rtol=1e-12, atol=1e-12 * scale, err_msg=k)


def test_batch_gradient_equals_summed_per_sample_gradients_bitwise():
    """Accumulating into one buffer equals summing per-sample buffers, bit for bit.

    That part checks only the accumulation: both sides run ``score_graph``'s
    backward.  The same per-sample sum, taken over per-sample gradients on
    the autodiff tape, is the independent reference; it differs from the
    numpy backward in float order only, so it is held to rtol 1e-12.
    """
    batch = gisp_samples(3)
    for H in (1, 8):  # the default single head, and the multi-head paths
        _check_summed_per_sample(GatParameters.init(seed=5, H=H), batch)


def _check_summed_per_sample(params, batch):
    _, flat = batch_gradient(params, batch, 0.07)
    names = sorted(params.arrays)
    total = tape_total = None
    for s in batch:
        scores, _, backward = score_graph(params.arrays, s.graph)
        _, d_scores = infonce_loss_and_grad(scores, s.positives, s.negatives, 0.07)
        own = np.zeros_like(params.vector)
        backward(d_scores * (1.0 / len(batch)), params.views(own))
        total = own if total is None else total + own

        tensors = tape_tensors(params)
        tape_scores, _ = per_edge_scores(tensors, s.graph)
        term = ad.mul(tape_infonce(tape_scores, s.positives, s.negatives, 0.07), 1.0 / len(batch))
        gs = ad.grad(term, [tensors[k] for k in names])
        tape_total = gs if tape_total is None else [a + b for a, b in zip(tape_total, gs)]
    np.testing.assert_array_equal(flat, total)
    grads = params.views(flat)
    # The output bias's gradient sums terms that nearly cancel (to about
    # 1e-4 of the largest gradient entry), so the absolute bound scales with
    # the whole gradient rather than with each array.
    scale = max(np.abs(ref).max() for ref in tape_total)
    for k, ref in zip(names, tape_total):
        np.testing.assert_allclose(grads[k], ref, rtol=1e-12, atol=1e-12 * scale, err_msg=k)


def test_epoch_log_records_time_and_gradient_norm():
    ds = planted_dataset(count=6)
    cfg = TrainConfig(epochs=3, seed=2, batch_size=4, **SMALL)
    log = []
    p1, c1 = train(ds, cfg, epoch_log=log)
    p2, c2 = train(ds, cfg)
    assert c1 == c2
    for k in p1.arrays:
        np.testing.assert_array_equal(p1.arrays[k], p2.arrays[k])
    assert len(log) == 3
    for entry in log:
        assert set(entry) == {"seconds", "grad_norm"}
        assert entry["seconds"] > 0.0
        assert np.isfinite(entry["grad_norm"]) and entry["grad_norm"] > 0.0


@pytest.mark.parametrize("size", [5, _BLOCK, 3 * _BLOCK + 123])
def test_blocked_gradient_norm_matches_numpy(size):
    vector = np.random.default_rng(size).normal(size=size) * 1e3
    scratch = np.empty(min(size, _BLOCK))
    np.testing.assert_allclose(_norm(vector, scratch), np.linalg.norm(vector), rtol=1e-12)


def test_training_and_inference_build_no_tensor(monkeypatch):
    """The training and inference paths run without the autodiff tape."""
    built = []
    original = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    ds = planted_dataset(count=4)
    params, _ = train(ds, TrainConfig(epochs=2, seed=0, batch_size=2, **SMALL))
    gat_forward(params, ds[0].graph, collect_attention=True)
    assert built == []
