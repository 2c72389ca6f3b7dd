import numpy as np
import pytest

from backdoorlab.gnn import AdamState, adam_step


def test_zero_gradient_without_decay_is_identity():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = AdamState.init(params)
    out, _ = adam_step(params, {"w": np.zeros(3)}, state, lr=1e-3, wd=0.0)
    np.testing.assert_array_equal(out["w"], params["w"])


def test_first_step_magnitude_is_learning_rate():
    lr = 5e-4
    for g in (0.3, -2.0, 17.0):
        params = {"w": np.array([1.0])}
        state = AdamState.init(params)
        out, _ = adam_step(params, {"w": np.array([g])}, state, lr=lr, wd=0.0)
        step = out["w"][0] - 1.0
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

    params = {"w": np.array([0.7])}
    state = AdamState.init(params)
    for t, g in enumerate(grads, start=1):
        params, state = adam_step(
            params, {"w": np.array([g])}, state, lr=lr, wd=wd, beta1=b1, beta2=b2, eps=eps
        )
        assert params["w"][0] == pytest.approx(expected[t - 1], abs=1e-12)


def test_decay_is_decoupled_from_gradient():
    params = {"w": np.array([2.0])}
    state = AdamState.init(params)
    out, _ = adam_step(params, {"w": np.zeros(1)}, state, lr=0.1, wd=0.5)
    assert out["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_inputs_left_untouched():
    params = {"w": np.array([1.0, 2.0])}
    before = params["w"].copy()
    state = AdamState.init(params)
    adam_step(params, {"w": np.ones(2)}, state, lr=0.1, wd=0.1)
    np.testing.assert_array_equal(params["w"], before)


def test_shape_mismatch_rejected():
    params = {"w": np.ones((2, 2))}
    state = AdamState.init(params)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, {"w": np.ones(3)}, state)


def test_step_counter_shared_across_params():
    params = {"a": np.ones(1), "b": np.ones(1)}
    state = AdamState.init(params)
    _, state = adam_step(params, {"a": np.ones(1), "b": np.ones(1)}, state)
    assert state.t == 1
    _, state = adam_step(params, {"a": np.ones(1), "b": np.ones(1)}, state)
    assert state.t == 2


def test_long_vector_matches_whole_array_formulas_bitwise():
    """The update runs block by block; across block edges it equals the
    whole-array formulas exactly."""
    lr, wd, b1, b2, eps = 5e-4, 0.01, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(3)
    theta = rng.normal(size=(3, 40_000))
    params = {"w": theta.copy()}
    state = AdamState.init(params)
    m = v = np.zeros_like(theta)
    for t in range(1, 4):
        g = rng.normal(size=theta.shape)
        params, state = adam_step(params, {"w": g}, state, lr=lr, wd=wd, beta1=b1, beta2=b2, eps=eps)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        theta = theta * (1.0 - lr * wd) - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        np.testing.assert_array_equal(params["w"], theta)
        np.testing.assert_array_equal(state.m["w"], m)
        np.testing.assert_array_equal(state.v["w"], v)
