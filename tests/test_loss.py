import math

import numpy as np
import pytest

from backdoorlab.gnn import infonce_loss
from backdoorlab.gnn.loss import infonce_loss_and_grad

from reference import infonce_value


@pytest.mark.parametrize("bad", [-1, 4])
def test_an_out_of_range_index_is_rejected(bad):
    with pytest.raises(ValueError, match=f"index {bad} outside"):
        infonce_loss(np.zeros(4), [(0, bad)], [(1,)])


@pytest.mark.parametrize("bad", [1.9, True, "2"])
def test_an_index_that_is_not_an_integer_is_rejected(bad):
    """``int()`` read 1.9 as 1, ``True`` as 1 and ``"2"`` as 2."""
    with pytest.raises(ValueError, match=r"sample 0: variable index .* is not an integer"):
        infonce_loss(np.array([0.1, 0.9, 0.3]), [(bad,)], [(0,)])


def test_empty_negatives_is_exactly_zero():
    scores = np.array([0.9, 0.2, 0.7])
    assert infonce_loss(scores, [(0,), (1, 2)], []) == 0.0


def test_symmetric_pair_is_ln2():
    scores = np.array([0.4, 0.4])
    loss = infonce_loss(scores, [(0,)], [(1,)], tau=0.07)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_hand_computed_scalar_case():
    scores = np.array([0.9, 0.1])
    loss = infonce_loss(scores, [(0,)], [(1,)], tau=0.07)
    expected = -math.log(
        math.exp(0.9 / 0.07) / (math.exp(0.9 / 0.07) + math.exp(0.1 / 0.07))
    )
    assert loss == pytest.approx(expected, abs=1e-12)


def test_shift_invariance():
    """Adding a constant to every dot product leaves the loss unchanged.

    Shifting each score by c shifts every size-K dot product by K*c when all
    samples have equal size."""
    rng = np.random.default_rng(0)
    scores = rng.random(8)
    pos = [(0, 1), (2, 3)]
    neg = [(4, 5), (6, 7), (1, 4)]
    base = infonce_loss(scores, pos, neg, tau=0.1)
    shifted = infonce_loss(scores + 0.37, pos, neg, tau=0.1)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_order_invariance():
    rng = np.random.default_rng(1)
    scores = rng.random(10)
    pos = [(0, 1), (2, 3), (4,)]
    neg = [(5, 6), (7,), (8, 9)]
    a = infonce_loss(scores, pos, neg, tau=0.07)
    b = infonce_loss(scores, pos[::-1], neg[::-1], tau=0.07)
    assert a == pytest.approx(b, rel=1e-14)


def test_empty_positives_rejected():
    with pytest.raises(ValueError):
        infonce_loss(np.ones(3), [], [(0,)])


def test_nonpositive_temperature_rejected():
    with pytest.raises(ValueError):
        infonce_loss(np.ones(3), [(0,)], [(1,)], tau=0.0)


def test_score_gradient_matches_central_differences():
    """The loss also equals the plain InfoNCE value over indicator rows."""
    scores = np.array([0.6, 0.3, 0.2, 0.9])
    pos, neg = [(0,), (1, 3)], [(1,), (2,), (0, 2)]
    loss, g = infonce_loss_and_grad(scores, pos, neg, tau=0.5)
    assert loss == infonce_loss(scores, pos, neg, tau=0.5)
    assert loss == pytest.approx(infonce_value(scores, pos, neg, 0.5), rel=1e-14)
    h = 1e-7
    for i in range(4):
        x = scores.copy()
        x[i] += h
        fp = infonce_loss(x, pos, neg, tau=0.5)
        x[i] -= 2 * h
        fm = infonce_loss(x, pos, neg, tau=0.5)
        assert g[i] == pytest.approx((fp - fm) / (2 * h), abs=1e-6)


def test_empty_negatives_give_a_zero_gradient():
    loss, g = infonce_loss_and_grad(np.array([0.9, 0.2, 0.7]), [(0,), (1, 2)], [])
    assert loss == 0.0
    np.testing.assert_array_equal(g, np.zeros(3))


def test_large_dots_stay_finite():
    scores = np.array([800.0, -900.0, 750.0])
    loss = infonce_loss(scores, [(0,)], [(1,), (2,)], tau=0.07)
    assert math.isfinite(loss)
    assert loss >= 0.0
