import numpy as np
import pytest

from secureftl.nets import (
    autoencoder_pretrain,
    init_network,
    sigmoid,
)


def test_sigmoid_open_interval():
    x = np.array([-1e9, -36.0, 0.0, 36.0, 1e9])
    y = sigmoid(x)
    assert np.all(y > 0.0) and np.all(y < 1.0)
    assert y[2] == 0.5


def test_init_network_shapes():
    net = init_network([6, 8, 3], seed=0)
    assert [l.weights.shape for l in net.layers] == [(8, 6), (3, 8)]
    assert [l.bias.shape for l in net.layers] == [(8,), (3,)]


def test_init_network_deterministic():
    a = init_network([4, 5], seed=3)
    b = init_network([4, 5], seed=3)
    c = init_network([4, 5], seed=4)
    assert np.array_equal(a.layers[0].weights, b.layers[0].weights)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_forward_matches_trace():
    net = init_network([4, 6, 2], seed=1)
    x = np.random.default_rng(0).normal(size=(5, 4))
    out = net.forward(x)
    trace = net.forward_trace(x)
    assert out.shape == (5, 2)
    assert len(trace) == 3 and np.array_equal(trace[0], x)
    assert np.array_equal(out, trace[-1])


def _numeric_grads(net, x, upstream, eps=1e-6):
    grads = []
    for li, layer in enumerate(net.layers):
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(*layer.weights.shape):
            layer.weights[idx] += eps
            hi = float(np.sum(net.forward(x) * upstream))
            layer.weights[idx] -= 2 * eps
            lo = float(np.sum(net.forward(x) * upstream))
            layer.weights[idx] += eps
            gw[idx] = (hi - lo) / (2 * eps)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(*layer.bias.shape):
            layer.bias[idx] += eps
            hi = float(np.sum(net.forward(x) * upstream))
            layer.bias[idx] -= 2 * eps
            lo = float(np.sum(net.forward(x) * upstream))
            layer.bias[idx] += eps
            gb[idx] = (hi - lo) / (2 * eps)
        grads.append((gw, gb))
    return grads


def test_backward_matches_finite_differences():
    net = init_network([3, 5, 2], seed=2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    upstream = rng.normal(size=(4, 2))
    grads = net.backward(net.forward_trace(x), upstream)
    for grad, (nw, nb) in zip(grads, _numeric_grads(net, x, upstream)):
        assert np.allclose(grad.weights, nw, atol=1e-6)
        assert np.allclose(grad.bias, nb, atol=1e-6)


def test_backward_rejects_bad_upstream_shape():
    net = init_network([3, 4], seed=5)
    x = np.zeros((2, 3))
    with pytest.raises(ValueError):
        net.backward(net.forward_trace(x), np.zeros((2, 5)))


def test_apply_gradients_descends():
    net = init_network([3, 2], seed=6)
    x = np.random.default_rng(3).normal(size=(6, 3))
    target = np.zeros((6, 2))

    def loss():
        return float(np.mean((net.forward(x) - target) ** 2))

    before = loss()
    for _ in range(50):
        trace = net.forward_trace(x)
        err = 2 * (trace[-1] - target) / target.size
        net.apply_gradients(net.backward(trace, err), learning_rate=1.0)
    assert loss() < before


def test_squared_param_norm():
    net = init_network([2, 2], seed=7)
    expected = sum(float(np.sum(l.weights ** 2) + np.sum(l.bias ** 2))
                   for l in net.layers)
    assert net.squared_param_norm() == pytest.approx(expected)


def test_flat_roundtrip():
    net = init_network([4, 3, 2], seed=8)
    flat = net.get_flat()
    other = init_network([4, 3, 2], seed=9)
    other.set_flat(flat)
    assert np.array_equal(other.get_flat(), flat)
    for la, lb in zip(net.layers, other.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_copy_is_independent():
    net = init_network([3, 3], seed=10)
    dup = net.copy()
    dup.layers[0].weights += 1.0
    assert not np.array_equal(net.layers[0].weights, dup.layers[0].weights)


def test_pretrain_returns_new_net_and_reduces_loss():
    net = init_network([6, 4], seed=11)
    x = np.random.default_rng(4).normal(size=(40, 6))
    log: list[float] = []
    out = autoencoder_pretrain(net, x, epochs=30, learning_rate=0.1,
                               loss_log=log)
    assert out is not net
    assert np.array_equal(net.layers[0].weights,
                          init_network([6, 4], seed=11).layers[0].weights)
    assert log[-1] < log[0]


def test_pretrain_zero_epochs_is_copy():
    net = init_network([5, 3], seed=12)
    out = autoencoder_pretrain(net, np.zeros((4, 5)), epochs=0,
                               learning_rate=0.1)
    assert np.array_equal(out.layers[0].weights, net.layers[0].weights)
