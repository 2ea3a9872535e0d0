"""Adam optimizer: fixed points, bias-corrected limits, guards."""

import numpy as np
import pytest

from capsrel.autodiff import NonFiniteError, Tensor
from capsrel.optim import Adam


def make_param(values):
    p = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return {"w": p}, p


def test_zero_gradient_is_a_fixed_point():
    params, p = make_param([1.0, -2.0, 3.0])
    opt = Adam(params, lr=0.001)
    before = p.data.copy()
    for _ in range(5):
        p.grad = np.zeros(3)
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_missing_gradient_leaves_parameter_untouched():
    params, p = make_param([1.0])
    opt = Adam(params, lr=0.001)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_first_step_matches_hand_evaluation():
    # From m=v=0 with gradient g: m_hat=g, v_hat=g^2, delta=-lr*g/(|g|+eps)
    params, p = make_param([0.0, 0.0])
    g = np.array([0.5, -2.0])
    opt = Adam(params, lr=0.001)
    p.grad = g.copy()
    opt.step()
    expected = -0.001 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, atol=1e-15)


def test_constant_gradient_update_magnitude_approaches_lr():
    params, p = make_param([0.0])
    opt = Adam(params, lr=0.001)
    prev = p.data.copy()
    for _ in range(500):
        p.grad = np.array([0.37])
        prev = p.data.copy()
        opt.step()
    step = abs(p.data[0] - prev[0])
    assert abs(step - 0.001) < 1e-6


def test_step_counter_increments():
    params, p = make_param([1.0])
    opt = Adam(params, lr=0.001)
    for expected in (1, 2, 3):
        p.grad = np.array([0.1])
        opt.step()
        assert opt.step_count == expected


def test_nan_gradient_aborts_naming_parameter():
    params, p = make_param([1.0])
    opt = Adam(params, lr=0.001)
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteError, match="'w'"):
        opt.step()


def test_lr_zero_changes_nothing():
    params, p = make_param([1.0, 2.0])
    opt = Adam(params, lr=0.0)
    p.grad = np.array([5.0, -1.0])
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])

