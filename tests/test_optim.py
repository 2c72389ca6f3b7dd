import numpy as np
import pytest

from backdoorlab.gnn import AdamState, adam_step


def test_zero_gradient_without_decay_is_identity():
    theta = np.array([1.0, -2.0, 3.0])
    before = theta.copy()
    adam_step(theta, np.zeros(3), AdamState.init(theta), lr=1e-3, wd=0.0)
    np.testing.assert_array_equal(theta, before)


def test_first_step_magnitude_is_learning_rate():
    lr = 5e-4
    for g in (0.3, -2.0, 17.0):
        theta = np.array([1.0])
        adam_step(theta, np.array([g]), AdamState.init(theta), lr=lr, wd=0.0)
        step = theta[0] - 1.0
        assert abs(step) == pytest.approx(lr * abs(g) / (abs(g) + 1e-8), rel=1e-9)
        assert np.sign(step) == -np.sign(g)


def test_three_step_scalar_trajectory_matches_recurrence():
    """Replay the textbook recurrence by hand and demand 1e-12 agreement."""
    lr, wd, b1, b2, eps = 0.01, 0.02, 0.9, 0.999, 1e-8
    grads = [0.4, -1.3, 2.2]
    theta = 0.7
    m = v = 0.0
    expected = []
    for t, g in enumerate(grads, start=1):
        theta = theta * (1.0 - lr * wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        theta = theta - lr * mh / (np.sqrt(vh) + eps)
        expected.append(theta)

    w = np.array([0.7])
    state = AdamState.init(w)
    for t, g in enumerate(grads, start=1):
        adam_step(w, np.array([g]), state, lr=lr, wd=wd, beta1=b1, beta2=b2, eps=eps)
        assert state.t == t
        assert w[0] == pytest.approx(expected[t - 1], abs=1e-12)


def test_decay_is_decoupled_from_gradient():
    theta = np.array([2.0])
    adam_step(theta, np.zeros(1), AdamState.init(theta), lr=0.1, wd=0.5)
    assert theta[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_shape_mismatch_rejected():
    theta = np.ones(4)
    state = AdamState.init(theta)
    with pytest.raises(ValueError, match="shape"):
        adam_step(theta, np.ones(3), state)
    assert state.t == 0


def test_long_vector_matches_whole_array_formulas_bitwise():
    """The in-place update equals the whole-array formulas exactly."""
    lr, wd, b1, b2, eps = 5e-4, 0.01, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(3)
    theta = rng.normal(size=120_000)
    w = theta.copy()
    state = AdamState.init(w)
    m = v = np.zeros_like(theta)
    for t in range(1, 4):
        g = rng.normal(size=theta.shape)
        adam_step(w, g, state, lr=lr, wd=wd, beta1=b1, beta2=b2, eps=eps)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        theta = theta * (1.0 - lr * wd) - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        np.testing.assert_array_equal(w, theta)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)


def test_blocked_update_matches_whole_array_formulas_bitwise():
    """A vector of three 16,384-entry blocks plus a remainder, the size the
    update once ran block by block over, gives the same bits as the
    whole-array formulas."""
    lr, wd, b1, b2, eps = 1e-3, 0.05, 0.8, 0.99, 1e-6
    rng = np.random.default_rng(5)
    theta = rng.normal(size=3 * 16_384 + 1_000)
    w = theta.copy()
    state = AdamState.init(w)
    m = v = np.zeros_like(theta)
    for t in range(1, 4):
        g = rng.normal(size=theta.shape) * 10.0 ** rng.uniform(-6, 2, size=theta.shape)
        adam_step(w, g, state, lr=lr, wd=wd, beta1=b1, beta2=b2, eps=eps)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        theta = theta * (1.0 - lr * wd) - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert w.tobytes() == theta.tobytes()
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()
