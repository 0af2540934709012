"""Tests for the neural-network modules and optimisers."""

import numpy as np
import pytest

from repro.autodiff import Tensor, ops
from repro.autodiff.nn import MLP, Linear, Sequential, Sigmoid, Tanh
from repro.autodiff.optim import Adam


def test_linear_shapes():
    layer = Linear(3, 2)
    out = layer(np.ones((5, 3)))
    assert out.shape == (5, 2)


def test_linear_named_parameters():
    layer = Linear(3, 2)
    names = dict(layer.named_parameters())
    assert set(names) == {"weight", "bias"}
    assert names["weight"].shape == (2, 3)
    assert names["bias"].shape == (2,)


def test_linear_no_bias():
    layer = Linear(3, 2, bias=False)
    assert set(dict(layer.named_parameters())) == {"weight"}


def test_mlp_nested_parameter_names():
    mlp = MLP([4, 3, 2])
    names = set(dict(mlp.named_parameters()))
    assert names == {"l1.weight", "l1.bias", "l2.weight", "l2.bias"}


def test_mlp_forward_shape_and_activation():
    mlp = MLP([4, 3, 2], activation="relu")
    out = mlp(np.ones((7, 4)))
    assert out.shape == (7, 2)
    with pytest.raises(ValueError):
        MLP([2, 2, 2], activation="nope")(np.ones((1, 2)))


def test_sequential_chains_modules():
    model = Sequential(Linear(2, 3), Tanh(), Linear(3, 1), Sigmoid())
    out = model(np.ones((4, 2)))
    assert out.shape == (4, 1)
    assert np.all(out.data > 0) and np.all(out.data < 1)


def test_set_parameter_replaces_nested_value():
    mlp = MLP([2, 2, 2])
    new_weight = Tensor(np.zeros((2, 2)))
    mlp.set_parameter("l1.weight", new_weight)
    assert dict(mlp.named_parameters())["l1.weight"] is new_weight


def test_state_dict_roundtrip():
    mlp = MLP([2, 3, 1])
    state = mlp.state_dict()
    other = MLP([2, 3, 1], rng=np.random.default_rng(99))
    other.load_state_dict(state)
    np.testing.assert_allclose(other.state_dict()["l1.weight"], state["l1.weight"])


def test_gradients_reach_all_parameters():
    mlp = MLP([3, 4, 1])
    out = mlp(np.ones((5, 3))).sum()
    out.backward()
    for name, p in mlp.named_parameters():
        assert p.grad is not None, name


def test_zero_grad_clears_module_gradients():
    mlp = MLP([2, 2, 1])
    mlp(np.ones((1, 2))).sum().backward()
    mlp.zero_grad()
    assert all(p.grad is None for p in mlp.parameters())


def _quadratic_loss(params):
    target = np.array([1.0, -2.0])
    return ops.sum_(ops.square(ops.sub(params, target)))


def test_adam_converges_on_quadratic():
    x = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([x], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        _quadratic_loss(x).backward()
        opt.step()
    np.testing.assert_allclose(x.data, [1.0, -2.0], atol=1e-2)


def test_optimizer_requires_parameters():
    with pytest.raises(ValueError):
        Adam([])


def test_optimizer_add_param_deduplicates():
    x = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([x])
    opt.add_param(x)
    assert len(opt.params) == 1


def test_training_reduces_regression_loss():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    true_w = np.array([1.0, -2.0, 0.5])
    y = X @ true_w + 0.01 * rng.normal(size=40)
    model = Linear(3, 1, rng=rng)
    opt = Adam(model.parameters(), lr=0.05)
    first_loss, last_loss = None, None
    for step in range(300):
        opt.zero_grad()
        pred = model(X)
        loss = ops.mean(ops.square(ops.sub(ops.reshape(pred, (-1,)), y)))
        loss.backward()
        opt.step()
        if step == 0:
            first_loss = float(loss.data)
        last_loss = float(loss.data)
    assert last_loss < first_loss * 0.1
