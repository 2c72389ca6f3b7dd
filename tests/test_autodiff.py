import numpy as np
import pytest

from backdoorlab.gnn import autodiff as ad
from backdoorlab.gnn.autodiff import Tensor, grad


def fd_check(f, x0, h=1e-6, atol=1e-6):
    """Central finite differences against reverse-mode for f: R^k -> R."""
    x = Tensor(x0)
    out = f(x)
    (g,) = grad(out, [x])
    num = np.zeros_like(x0)
    flat = x0.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(x0)).data)
        flat[i] = orig - h
        fm = float(f(Tensor(x0)).data)
        flat[i] = orig
        num.reshape(-1)[i] = (fp - fm) / (2 * h)
    np.testing.assert_allclose(g, num, atol=atol)


def test_square_at_three():
    x = Tensor(3.0)
    y = ad.mul(x, x)
    (g,) = grad(y, [x])
    assert g == pytest.approx(6.0)


def test_sigmoid_derivative_at_zero():
    x = Tensor(0.0)
    (g,) = grad(ad.sigmoid(x), [x])
    assert g == pytest.approx(0.25)


def test_each_primitive_against_finite_differences():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(4, 3)) + 2.5  # keep log's domain positive
    fd_check(lambda x: ad.tsum(ad.mul(x, x)), x0.copy())
    fd_check(lambda x: ad.tsum(ad.relu(ad.sub(x, 2.5))), x0.copy(), atol=1e-4)
    fd_check(lambda x: ad.tsum(ad.leaky_relu(ad.sub(x, 2.5), 0.2)), x0.copy(), atol=1e-4)
    fd_check(lambda x: ad.tsum(ad.sigmoid(x)), x0.copy())
    fd_check(lambda x: ad.tsum(ad.exp(ad.mul(x, 0.3))), x0.copy())
    fd_check(lambda x: ad.tsum(ad.log(x)), x0.copy())
    fd_check(lambda x: ad.tmean(ad.div(x, 2.0)), x0.copy())
    w = np.arange(12.0).reshape(3, 4) / 10
    fd_check(lambda x: ad.tsum(ad.matmul(x, w)), x0.copy())
    fd_check(lambda x: ad.tsum(ad.gather(x, np.array([2, 0, 2]), axis=0)), x0.copy())
    fd_check(
        lambda x: ad.tsum(ad.mul(ad.segment_sum(x, np.array([1, 0, 1, 0]), 2, axis=0),
                                 np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))),
        x0.copy(),
    )
    fd_check(lambda x: ad.tsum(ad.reshape(x, (2, 6))), x0.copy())


def test_matmul_stacked_broadcast():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 3))
    B0 = rng.normal(size=(2, 3, 3))

    def f(b):
        return ad.tsum(ad.matmul(Tensor(A), b))

    fd_check(f, B0.copy())


def test_outer_product_and_leaky_relu_gradients_are_exact():
    # A contracted size of 1 (the attention logits' input gradient) runs as a
    # broadcast multiply; it must give the gemm's values bit for bit.
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 5, 4)))
    w = Tensor(rng.normal(size=(3, 4, 1)))
    g = rng.normal(size=(3, 5, 1))
    gx, gw = grad(ad.tsum(ad.mul(ad.matmul(x, w), g)), [x, w])
    np.testing.assert_array_equal(gx, np.matmul(g, np.swapaxes(w.data, -1, -2)))
    np.testing.assert_array_equal(gw, np.matmul(np.swapaxes(x.data, -1, -2), g))

    (gl,) = grad(ad.tsum(ad.mul(ad.leaky_relu(x, 0.3), g[..., :1])), [x])
    np.testing.assert_array_equal(gl, g[..., :1] * np.where(x.data > 0.0, 1.0, 0.3))


def test_broadcast_add_bias():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))

    def f(b):
        return ad.tsum(ad.mul(ad.add(Tensor(x), b), ad.add(Tensor(x), b)))

    fd_check(f, rng.normal(size=(3,)))


def test_gather_segment_are_adjoint():
    """<gather(x), y> == <x, segment_sum(y)> for matching index maps."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(7, 2))
    idx = rng.integers(0, 5, size=7)
    lhs = float(np.sum(np.take(x, idx, axis=0) * y))
    scat = np.zeros((5, 2))
    np.add.at(scat, idx, y)
    rhs = float(np.sum(x * scat))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_grad_accumulates_shared_subexpression():
    x = Tensor(2.0)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
    (g,) = grad(y, [x])
    assert g == pytest.approx(5.0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def test_unreachable_param_gets_zero_gradient():
    x = Tensor(1.0)
    z = Tensor(1.0)
    y = ad.mul(x, 3.0)
    gx, gz = grad(y, [x, z])
    assert gx == pytest.approx(3.0)
    assert gz == pytest.approx(0.0)


def test_repeated_backward_does_not_leak_state():
    x = Tensor(4.0)
    (g1,) = grad(ad.mul(x, x), [x])
    (g2,) = grad(ad.mul(x, x), [x])
    assert g1 == g2 == pytest.approx(8.0)


# (index, number of segments): unsorted with repeats and empty segments 2 and
# 4, a single entry, and no entries at all (an edgeless graph).
SEGMENT_CASES = [
    (np.array([3, 0, 3, 1, 0, 3, 1]), 5),
    (np.array([2]), 4),
    (np.zeros(0, dtype=np.int64), 3),
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

    seg = ad.SegmentIndex(index, size)
    np.testing.assert_allclose(seg.sum(x, axis), ref_sum, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(seg.maximum(floor, x, axis), ref_max)
    for segments in (index, seg):
        out = ad.segment_sum(Tensor(x), segments, size, axis=axis)
        np.testing.assert_allclose(out.data, ref_sum, rtol=1e-14, atol=0)

    # gather's backward is the same scatter-add of the upstream gradient.
    a0 = rng.normal(size=out_shape)
    for segments in (index, seg):
        a = Tensor(a0)
        picked = ad.gather(a, segments, axis=axis)
        np.testing.assert_array_equal(picked.data, np.take(a0, index, axis=axis))
        (g,) = grad(ad.tsum(ad.mul(picked, x)), [a])
        np.testing.assert_allclose(g, ref_sum, rtol=1e-14, atol=0)


def test_segment_index_rejects_bad_indices():
    with pytest.raises(IndexError):
        ad.SegmentIndex(np.array([0, 3]), 3)
    with pytest.raises(IndexError):
        ad.SegmentIndex(np.array([-1, 0]), 3)
    with pytest.raises(ValueError):
        ad.gather(Tensor(np.ones(4)), ad.SegmentIndex(np.array([0, 1]), 3))


def _row_sum_feeds_two_consumers(x):
    s = ad.tsum(x, axis=1, keepdims=True)
    return ad.tsum(ad.add(ad.mul(s, 2.0), ad.mul(s, s)))


def test_lazy_gradients_with_shared_subexpressions():
    x0 = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]])
    row_sums = x0.sum(axis=1, keepdims=True)
    cases = [
        (lambda x: ad.tsum(ad.add(x, x)), np.full_like(x0, 2.0)),
        (lambda x: ad.tsum(ad.add(ad.mul(x, x), x)), 2.0 * x0 + 1.0),
        # tsum's read-only broadcast gradient meets a second consumer of x.
        (lambda x: ad.add(ad.tsum(x), ad.tsum(ad.mul(x, 3.0))), np.full_like(x0, 4.0)),
        (_row_sum_feeds_two_consumers, np.broadcast_to(2.0 + 2.0 * row_sums, x0.shape)),
    ]
    x = Tensor(x0.copy())
    for build, expected in cases:
        (g1,) = grad(build(x), [x])
        np.testing.assert_allclose(g1, expected, rtol=1e-15)
        assert g1.flags.writeable
        kept = g1.copy()
        (g2,) = grad(build(x), [x])
        g2 += 1.0
        np.testing.assert_array_equal(g1, kept)  # later calls leave it alone
        np.testing.assert_array_equal(x.data, x0)


def test_returned_gradients_are_not_shared():
    """add() hands one upstream array to both parents; grad() copies it."""
    x, y = Tensor(np.ones(3)), Tensor(np.full(3, 2.0))
    gx, gy = grad(ad.tsum(ad.add(x, y)), [x, y])
    gx[0] = 7.0
    np.testing.assert_array_equal(gy, np.ones(3))


def test_constants_receive_no_gradient():
    """Arrays passed to ops are constants: no gradient flows into them."""
    w = Tensor(np.array([[1.0], [2.0]]))
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    hidden = ad.matmul(feats, w)
    out = ad.tsum(ad.mul(hidden, 0.5))
    (gw,) = grad(out, [w])
    np.testing.assert_allclose(gw, 0.5 * feats.sum(axis=0, keepdims=True).T)
    const = hidden._parents[0]
    assert not const.requires_grad and const.grad is None
    assert not ad.tsum(ad.exp(feats)).requires_grad
