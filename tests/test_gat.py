import dataclasses
import hashlib
import json
import pickle
import struct

import numpy as np
import pytest

from backdoorlab.features import BipartiteGraph, featurize
from backdoorlab.generators import gen_facility_location, gen_gisp, gen_mis
from backdoorlab.gnn import (
    GatParameters,
    ModelFormatError,
    gat_forward,
    greedy_select,
    load_model,
    save_model,
    score_graph,
)
from backdoorlab.gnn.model import SegmentIndex, _product, leaky_relu_slopes
from backdoorlab.milp import make_instance

from reference import central_difference_check, per_edge_scores
from test_features import permute_instance, permute_solution


def small_graph(seed=0, nodes=7):
    inst = gen_mis(nodes=nodes, avg_degree=3.0, seed=seed)
    return featurize(inst, inst.lp.solve())


def small_params(seed=0):
    return GatParameters.init(seed=seed, L=8, H=2, hidden=6)


def test_scores_strictly_inside_unit_interval():
    g = small_graph()
    scores = gat_forward(small_params(), g)
    assert scores.shape == (g.num_vars,)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_attention_rows_sum_to_one():
    g = small_graph(3)
    _, recs = gat_forward(small_params(1), g, collect_attention=True)
    for rec in recs:
        sums = rec.alpha_self.copy()
        if rec.receiver_of_edge.size:
            np.add.at(sums, (slice(None), rec.receiver_of_edge), rec.alpha_edge)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_single_neighbor_gives_two_point_distribution():
    # one variable, one constraint, one edge
    inst = make_instance(
        "one", [-1.0], [[(0, 2.0)]], [1.0], ["LE"], [0.0], [1.0], [0]
    )
    g = featurize(inst, inst.lp.solve())
    _, recs = gat_forward(small_params(2), g, collect_attention=True)
    var_round = recs[1]
    assert var_round.alpha_self.shape == (2, 1)
    assert var_round.alpha_edge.shape == (2, 1)
    np.testing.assert_allclose(
        var_round.alpha_self[:, 0] + var_round.alpha_edge[:, 0], 1.0, atol=1e-12
    )
    assert np.all(var_round.alpha_self > 0) and np.all(var_round.alpha_edge > 0)


def test_zero_weights_give_uniform_scores():
    g = small_graph(4)
    params = small_params()
    for view in params.arrays.values():
        view[...] = 0.0
    scores = gat_forward(params, g)
    np.testing.assert_allclose(scores, scores[0])
    assert scores[0] == pytest.approx(0.5)  # sigmoid of zero output bias


def test_forward_permutation_equivariance():
    inst = gen_mis(nodes=9, avg_degree=3.0, seed=5)
    root = inst.lp.solve()
    rng = np.random.default_rng(8)
    perm = rng.permutation(inst.num_vars)
    pinst = permute_instance(inst, perm)
    params = small_params(3)
    s = gat_forward(params, featurize(inst, root))
    ps = gat_forward(params, featurize(pinst, permute_solution(root, perm)))
    np.testing.assert_allclose(ps[perm], s, atol=1e-10)


def test_forward_handles_edgeless_graph():
    inst = make_instance("free", [-1.0, 1.0], [], [], [], [0, 0], [1, 1], [0, 1])
    g = featurize(inst, inst.lp.solve())
    scores = gat_forward(small_params(), g)
    assert scores.shape == (2,)
    assert np.all((scores > 0) & (scores < 1))


def graph_of(inst):
    return featurize(inst, inst.lp.solve())


def all_distinct_graph():
    mis = graph_of(gen_mis(nodes=12, avg_degree=3.0, seed=2))
    feats = np.random.default_rng(5).normal(size=mis.edge_feats.shape)
    return dataclasses.replace(mis, edge_feats=feats)


def repeated_pair_graph():
    """MIS graph plus a second (constraint, variable) edge on its first pair, with its own feature."""
    mis = graph_of(gen_mis(nodes=12, avg_degree=3.0, seed=2))
    return dataclasses.replace(
        mis,
        edges=np.vstack([mis.edges, mis.edges[:1]]),
        edge_feats=np.vstack([mis.edge_feats, [[0.5]]]),
    )


def hand_graph(var_feats, cons_feats, edges, coefs):
    """A graph built straight from feature rows and (constraint, variable) edges with coefficients."""
    return BipartiteGraph(
        var_feats=np.asarray(var_feats, dtype=float),
        cons_feats=np.asarray(cons_feats, dtype=float),
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        edge_feats=np.asarray(coefs, dtype=float).reshape(-1, 1),
        binary_mask=np.ones(len(var_feats), dtype=bool),
    )


def apart_graph():
    """Variables 0 and 1 have equal rows and one unit edge each, to constraints
    with equal rows; only constraint 0's second edge, to variable 2, tells
    them apart, two hops away."""
    f, g = np.random.default_rng(3).normal(size=(2, 15))
    return hand_graph([f, f, g], [[1.0, 1, 0, 0]] * 2, [(0, 0), (1, 1), (0, 2)], [1.0, 1.0, 1.0])


def reordered_graph():
    """Constraint 0 lists (row a, coefficient 1), (row b, 2); constraint 1
    lists the same pairs the other way round, through variables 3 and 2."""
    a, b = np.random.default_rng(4).normal(size=(2, 15))
    return hand_graph(
        [a, b, a, b], [[1.0, 1, 0, 0]] * 2, [(0, 0), (0, 1), (1, 3), (1, 2)], [1.0, 2.0, 2.0, 1.0]
    )


# name: (graph builder, distinct edge-feature rows)
EDGE_CASES = {
    "gisp25": (lambda: graph_of(gen_gisp(nodes=25, seed=0)), 2),
    "facility": (lambda: graph_of(gen_facility_location(facilities=10, customers=20, seed=0)), 32),
    "all_distinct": (all_distinct_graph, 28),  # one row per edge
    "one_edge": (
        lambda: graph_of(make_instance("one", [-1.0], [[(0, 2.0)]], [1.0], ["LE"], [0.0], [1.0], [0])),
        1,
    ),
    "repeated_pair": (repeated_pair_graph, 2),
    "apart": (apart_graph, 1),
    "reordered": (reordered_graph, 2),
    "isolated_nodes": (  # variable 1 and constraint 1 have no edges
        lambda: graph_of(make_instance(
            "iso", [-1.0, 1.0, -2.0], [[(0, 1.0), (2, 3.0)], []], [1.0, 0.0], ["LE", "LE"],
            [0, 0, 0], [1, 1, 1], [0, 1, 2],
        )),
        2,
    ),
    "edgeless": (
        lambda: graph_of(make_instance("free", [-1.0, 1.0], [], [], [], [0, 0], [1, 1], [0, 1])),
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_distinct_edge_rows_match_per_edge_reference(name):
    """Scores and expanded attention records of the class path match the
    per-node, per-edge reference, and its gradients match central differences
    of that reference."""
    build, distinct = EDGE_CASES[name]
    graph = build()
    assert np.unique(graph.edge_feats).size == distinct
    params = GatParameters.init(seed=6, L=16, H=4, hidden=12)
    weights = np.random.default_rng(1).normal(size=graph.num_vars)

    s_new, records, backward = score_graph(params.arrays, graph, collect_attention=True)
    rec_new = [(r.alpha_self, r.alpha_edge, r.receiver_of_edge) for r in records]
    g_new = params.views(np.zeros_like(params.vector))
    backward(weights, g_new)

    s_ref, rec_ref = per_edge_scores(params.arrays, graph)
    np.testing.assert_allclose(s_new, s_ref, rtol=1e-12, atol=0.0)
    for (self_new, edge_new, recv_new), (self_ref, edge_ref, recv_ref) in zip(rec_new, rec_ref):
        np.testing.assert_allclose(self_new, self_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(edge_new, edge_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(recv_new, recv_ref)
    central_difference_check(lambda p: per_edge_scores(p.arrays, graph)[0] @ weights, params, g_new)
    if distinct == 0:
        assert not g_new["att1_theta_e"].any() and not g_new["emb_edge_w1"].any()
    else:
        assert np.abs(g_new["att1_theta_e"]).max() > 0.0


def test_central_difference_check_fails_a_gradient_with_one_array_off():
    graph = apart_graph()
    params = GatParameters.init(seed=6, L=16, H=4, hidden=12)
    weights = np.random.default_rng(1).normal(size=graph.num_vars)
    _, _, backward = score_graph(params.arrays, graph)
    grads = params.views(np.zeros_like(params.vector))
    backward(weights, grads)

    def f(p):
        return per_edge_scores(p.arrays, graph)[0] @ weights

    assert central_difference_check(f, params, grads) <= 1e-7
    grads["att1_w"] *= 1.01
    with pytest.raises(AssertionError, match="^att1_w: error"):
        central_difference_check(f, params, grads)


def test_equal_variables_with_different_neighborhoods_stay_apart():
    graph = apart_graph()
    classes = graph.node_classes
    assert classes.round1.node_class.tolist() == [0, 1]
    assert classes.round2.node_class.tolist() == [0, 1, 2]
    scores = gat_forward(GatParameters.init(seed=6, L=16, H=4, hidden=12), graph)
    assert scores[0] != scores[1]


def test_constraints_with_one_edge_multiset_in_another_order_merge():
    graph = reordered_graph()
    classes = graph.node_classes
    assert classes.round1.node_class.tolist() == [0, 0]
    assert classes.round1.recv.size == 1 and classes.round1.recv.index.size == 2
    assert classes.round2.node_class.tolist() == [0, 1, 0, 1]
    scores = gat_forward(GatParameters.init(seed=6, L=16, H=4, hidden=12), graph)
    assert scores[0] == scores[2] and scores[1] == scores[3]


def test_gisp25_class_counts_and_identical_member_scores():
    graph = graph_of(gen_gisp(nodes=25, seed=0))
    classes = graph.node_classes
    counts = {
        "vars": graph.num_vars, "var_rows": classes.var_rows.shape[0], "round2": classes.round2.recv.size,
        "cons": graph.num_cons, "cons_rows": classes.cons_rows.shape[0], "round1": classes.round1.recv.size,
        "edges": graph.edges.shape[0],
        "round1_edges": classes.round1.recv.index.size, "round2_edges": classes.round2.recv.index.size,
    }
    assert counts == {
        "vars": 47, "var_rows": 11, "round2": 41,
        "cons": 80, "cons_rows": 1, "round1": 43,
        "edges": 182, "round1_edges": 102, "round2_edges": 176,
    }
    assert graph.node_classes is classes  # built once per graph
    scores = gat_forward(GatParameters.init(seed=2, L=16, H=4, hidden=12), graph)
    var_class = classes.round2.node_class
    for k in range(classes.round2.recv.size):
        members = scores[var_class == k]
        assert np.all(members == members[0])
    assert np.unique(scores).size == classes.round2.recv.size


def test_all_singleton_classes_skip_identity_gathers():
    classes = EDGE_CASES["facility"][0]().node_classes
    assert classes.var_class is None and classes.round2.own is None
    assert classes.round1.recv.size == classes.round1.node_class.size  # every constraint its own class


# Index maps with repeats, with every segment hit or with some left empty,
# present in unsorted and in sorted order, and sorted with empty segments 1
# and 4.  The last three have at most two entries per segment, where the
# pairwise sums of ``reduceat`` and the sequential ``np.add.at`` round alike.
SEGMENT_CASES = [
    (np.array([3, 0, 3, 1, 0, 3, 1]), 5),
    (np.array([2]), 4),
    (np.zeros(0, dtype=np.int64), 3),
    (np.array([2, 0, 1, 2, 0, 1]), 3),
    (np.array([0, 0, 1, 2, 2, 3]), 4),
    (np.array([0, 0, 2, 3, 3]), 5),
]


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("index,size", SEGMENT_CASES)
def test_sorted_segment_ops_match_scatter_reference(index, size, axis):
    rng = np.random.default_rng(4)
    shape = [2, 3, 4]
    shape[axis] = index.size
    x = rng.normal(size=shape)
    out_shape = list(shape)
    out_shape[axis] = size
    sel = (slice(None),) * axis + (index,)
    ref_sum = np.zeros(out_shape)
    np.add.at(ref_sum, sel, x)
    floor = rng.normal(size=out_shape)
    ref_max = floor.copy()
    np.maximum.at(ref_max, sel, x)

    seg = SegmentIndex(index, size)
    assert seg.full == (index.size > 0 and np.unique(index).size == size)
    assert (seg.order is None) == bool(np.all(np.diff(index) >= 0))
    np.testing.assert_allclose(seg.sum(x, axis), ref_sum, rtol=1e-14, atol=0)
    top = seg.maximum(floor, x, axis)
    assert top.dtype == np.float64 and top.tobytes() == ref_max.tobytes()
    # Small integers sum exactly in any order, so with them every segment's
    # sum must match ``np.add.at`` bit for bit, and come back as float64.
    ints = rng.integers(-50, 50, size=shape)
    ref_int = np.zeros(out_shape)
    np.add.at(ref_int, sel, ints)
    for values in (ints, ints.astype(np.float64)):
        out = seg.sum(values, axis)
        assert out.dtype == np.float64 and out.tobytes() == ref_int.tobytes()


def test_segment_index_rejects_bad_indices():
    with pytest.raises(IndexError):
        SegmentIndex(np.array([0, 3]), 3)
    with pytest.raises(IndexError):
        SegmentIndex(np.array([-1, 0]), 3)


def test_outer_product_and_leaky_relu_gradients_are_exact():
    """A contracted size of 1 (the attention logits' input gradient) runs as
    a broadcast multiply; it must give the gemm's values bit for bit."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5, 4))
    wt = rng.normal(size=(3, 1, 4))
    g = rng.normal(size=(3, 5, 1))
    np.testing.assert_array_equal(_product(g, wt), np.matmul(g, wt))
    np.testing.assert_array_equal(leaky_relu_slopes(x, 0.3), np.where(x > 0.0, 1.0, 0.3))


class TestGreedySelect:
    def test_picks_top_scores(self):
        bd = greedy_select(np.array([0.9, 0.1, 0.5]), np.ones(3, dtype=bool), 2)
        assert bd.vars == (0, 2)

    def test_full_binary_set(self):
        bd = greedy_select(np.array([0.2, 0.4, 0.3]), np.ones(3, dtype=bool), 3)
        assert bd.vars == (0, 1, 2)

    def test_ties_take_lowest_indices(self):
        bd = greedy_select(np.full(6, 0.7), np.ones(6, dtype=bool), 3)
        assert bd.vars == (0, 1, 2)

    def test_mask_respected(self):
        mask = np.array([True, False, True, True])
        bd = greedy_select(np.array([0.1, 0.99, 0.5, 0.2]), mask, 2)
        assert bd.vars == (2, 3)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            greedy_select(np.ones(3), np.ones(3, dtype=bool), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            greedy_select(np.array([0.5, bad, 0.9, 0.1]), np.ones(4, dtype=bool), 2)

    @pytest.mark.parametrize("K", [0, -1])
    def test_k_below_one(self, K):
        with pytest.raises(ValueError, match="at least 1"):
            greedy_select(np.ones(4), np.ones(4, dtype=bool), K)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        params = small_params(9)
        path = tmp_path / "m.ckpt"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.L == params.L and loaded.H == params.H
        assert set(loaded.arrays) == set(params.arrays)
        for k in params.arrays:
            np.testing.assert_array_equal(loaded.arrays[k], params.arrays[k])
            assert loaded.arrays[k].base is loaded.vector
        np.testing.assert_array_equal(loaded.vector, params.vector)
        save_model(loaded, tmp_path / "m2.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_wrong_version_byte(self, tmp_path):
        params = small_params()
        path = tmp_path / "v.ckpt"
        save_model(params, path)
        raw = bytearray(path.read_bytes())
        raw[6] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("damage", ["missing", "transposed", "both", "unknown", "sizes"])
    def test_array_names_and_shapes_checked(self, tmp_path, damage):
        params = small_params()
        if damage in ("missing", "both"):
            del params.arrays["out_b2"]
        if damage in ("transposed", "both"):
            params.arrays["att1_w"] = params.arrays["att1_w"].T.copy()
        if damage == "unknown":
            params.arrays["extra"] = np.zeros(3)
        if damage == "sizes":
            params.L = 9  # the arrays keep L=8
        path = tmp_path / "d.ckpt"
        save_model(params, path)
        with pytest.raises(ModelFormatError, match="out_b2|att1_w|extra|shape"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [
        ("H", "1"), ("H", True), ("H", 1.9), ("H", 0), ("L", 8.0), ("arrays", "float-shape"),
    ])
    def test_header_value_that_is_not_a_positive_integer(self, tmp_path, key, value):
        """Each of these read as the saved H 1 or L 8 before the header's integers were checked."""
        path = tmp_path / "h.ckpt"
        save_model(GatParameters.init(seed=0, L=8, H=1, hidden=6), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 7)
        header = json.loads(raw[11 : 11 + hlen])
        if value == "float-shape":
            header["arrays"][0][1] = [float(d) for d in header["arrays"][0][1]]
        else:
            header[key] = value
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:7] + struct.pack("<I", len(blob)) + blob + raw[11 + hlen :])
        with pytest.raises(ModelFormatError, match="corrupted checkpoint header"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        params = small_params()
        path = tmp_path / "t.ckpt"
        save_model(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(ModelFormatError, match="truncated|incomplete"):
            load_model(path)

    def test_a_checkpoint_of_the_first_format_loads_bit_for_bit(self, tmp_path):
        """The digests pin the file ``save_model`` has written for these
        parameters since the format's first version, and the parameters."""
        params = GatParameters.init(seed=0, L=8, H=1, hidden=6)
        assert hashlib.sha256(params.vector.tobytes()).hexdigest() == (
            "b484aca437012d1d0440adabee71c5b6a0603e0e405b7cdaa1e6f912f760ab4c"
        )
        path = tmp_path / "g.ckpt"
        save_model(params, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "717ee029dfe785da8339c23090f79a49ca4def215fd83f09f3449df561892fd5"
        )
        assert load_model(path).vector.tobytes() == params.vector.tobytes()

    @pytest.mark.parametrize("rewrite", [
        lambda h: json.dumps(h, sort_keys=True),
        lambda h: json.dumps(dict(reversed(h.items())), separators=(",", ":")),
        lambda h: json.dumps({**h, "arrays": h["arrays"][::-1]}, sort_keys=True, separators=(",", ":")),
    ], ids=["other-separators", "other-key-order", "other-array-order"])
    def test_a_header_with_the_same_content_in_other_bytes_is_refused(self, tmp_path, rewrite):
        path = tmp_path / "h.ckpt"
        save_model(GatParameters.init(seed=0, L=8, H=1, hidden=6), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 7)
        blob = rewrite(json.loads(raw[11 : 11 + hlen])).encode()
        path.write_bytes(raw[:7] + struct.pack("<I", len(blob)) + blob + raw[11 + hlen :])
        with pytest.raises(ModelFormatError, match="not the one save_model writes for L=8, H=1, hidden=6"):
            load_model(path)

    @pytest.mark.parametrize("damage", [
        lambda raw, header: b"NOTAMODEL",
        lambda raw, header: raw[:6],
        lambda raw, header: raw[:6] + b"\x63" + raw[7:],
        lambda raw, header: "{",
        lambda raw, header: {k: v for k, v in header.items() if k != "L"},
        lambda raw, header: {**header, "H": "1"},
        lambda raw, header: {**header, "L": 9},
        lambda raw, header: raw[:-64],
        lambda raw, header: raw + bytes(8),
    ], ids=[
        "not-a-checkpoint", "magic-only", "version", "not-json", "missing-size", "string-size",
        "other-sizes", "truncated", "trailing-bytes",
    ])
    def test_every_refusal_starts_with_the_path(self, tmp_path, damage):
        """``damage`` returns the file's bytes, the header's JSON text, or the
        header as a dict."""
        path = tmp_path / "r.ckpt"
        save_model(small_params(), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 7)
        damaged = damage(raw, json.loads(raw[11 : 11 + hlen]))
        if isinstance(damaged, dict):
            damaged = json.dumps(damaged, sort_keys=True, separators=(",", ":"))
        if isinstance(damaged, str):
            damaged = raw[:7] + struct.pack("<I", len(damaged)) + damaged.encode() + raw[11 + hlen :]
        path.write_bytes(damaged)
        with pytest.raises(ModelFormatError) as refusal:
            load_model(path)
        assert str(refusal.value).startswith(f"{path}: ")


def test_arrays_are_views_of_one_vector():
    params = small_params(3)
    sizes = [a.size for a in params.arrays.values()]
    assert params.vector.shape == (sum(sizes),) and params.vector.flags.c_contiguous
    for view in params.arrays.values():
        assert view.base is params.vector
    params.arrays["att2_w"][0, 1] = 7.5
    pos = np.cumsum([0] + sizes)[list(params.arrays).index("att2_w")]
    assert params.vector[pos + 1] == 7.5
    flat = np.arange(params.vector.size, dtype=float)
    for name, view in params.views(flat).items():
        assert view.base is flat and view.shape == params.arrays[name].shape


def test_pickle_keeps_the_arrays_views_of_one_vector():
    """A pool worker's copy is bit-equal, its arrays see writes to its vector,
    and the pickle holds the vector's bytes once."""
    params = small_params(3)
    blob = pickle.dumps(params)
    assert len(blob) < 1.1 * params.vector.nbytes
    copy = pickle.loads(blob)
    assert (copy.L, copy.H, copy.hidden) == (params.L, params.H, params.hidden)
    assert copy.vector.tobytes() == params.vector.tobytes()
    assert list(copy.arrays) == list(params.arrays)
    copy.vector[:] = -1.0
    for name, view in copy.arrays.items():
        assert view.base is copy.vector and np.all(view == -1.0), name
    assert not np.any(params.vector == -1.0)


def test_init_matches_the_per_array_draw():
    """The vector's arrays equal a literal copy of the per-array draw loop."""
    from backdoorlab.gnn.model import _glorot, _layout

    seed, L, H, hidden = 7, 8, 2, 6
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    old = {}
    w_limit = np.sqrt(6.0 / (3 * L + 1))
    for name, shape in _layout(L, H, hidden).items():
        if len(shape) == 1:  # biases
            old[name] = np.zeros(shape)
        elif name in ("att1_w", "att2_w"):
            old[name] = rng.uniform(-w_limit, w_limit, size=shape)
        else:
            old[name] = _glorot(rng, shape)
    params = GatParameters.init(seed=seed, L=L, H=H, hidden=hidden)
    assert list(params.arrays) == list(old)
    for k in old:
        np.testing.assert_array_equal(params.arrays[k], old[k], err_msg=k)


def test_init_is_seed_deterministic():
    a = GatParameters.init(seed=4, L=8, H=2, hidden=6)
    b = GatParameters.init(seed=4, L=8, H=2, hidden=6)
    for k in a.arrays:
        np.testing.assert_array_equal(a.arrays[k], b.arrays[k])
    c = GatParameters.init(seed=5, L=8, H=2, hidden=6)
    assert any(not np.array_equal(a.arrays[k], c.arrays[k]) for k in a.arrays)
