"""Local feedforward models producing hidden representations.

Each party owns a stack of sigmoid layers mapping its raw features to a
d-dimensional hidden representation. Besides forward evaluation the module
exposes exact backpropagation from an arbitrary upstream gradient at the
representation and greedy autoencoder pretraining with a tied linear decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Sigmoid inputs are clamped so outputs stay strictly inside (0, 1) in
# float64; past +-36 the true value is within one ulp of the bound anyway.
_SIGMOID_CLAMP = 36.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)))


@dataclass
class LayerParams:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)

    def copy(self) -> "LayerParams":
        return LayerParams(self.weights.copy(), self.bias.copy())


class Network:
    """Fully connected sigmoid stack; last layer width is the hidden dim."""

    def __init__(self, layers: list[LayerParams]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for lower, upper in zip(layers, layers[1:]):
            if upper.weights.shape[1] != lower.weights.shape[0]:
                raise ValueError("layer shapes do not chain")
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def copy(self) -> "Network":
        return Network([layer.copy() for layer in self.layers])

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_trace(x)[-1]

    def forward_trace(self, x: np.ndarray) -> list[np.ndarray]:
        """All activations, input first: [x, a_1, ..., a_L]."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected (N, {self.input_dim}) input, got {x.shape}")
        trace = [x]
        for layer in self.layers:
            trace.append(sigmoid(trace[-1] @ layer.weights.T + layer.bias))
        return trace

    def backward(self, trace: list[np.ndarray], upstream: np.ndarray) -> list[LayerParams]:
        """Gradients of a loss w.r.t. every parameter, given dL/d(output).

        Returns one LayerParams of gradients per layer, aligned with
        self.layers. upstream must match the final activation's shape.
        """
        if upstream.shape != trace[-1].shape:
            raise ValueError(f"upstream shape {upstream.shape} != output {trace[-1].shape}")
        grads: list[LayerParams] = [None] * len(self.layers)
        delta = upstream
        for idx in range(len(self.layers) - 1, -1, -1):
            a_out, a_in = trace[idx + 1], trace[idx]
            dz = delta * a_out * (1.0 - a_out)
            grads[idx] = LayerParams(dz.T @ a_in, dz.sum(axis=0))
            if idx:
                delta = dz @ self.layers[idx].weights
        return grads

    def apply_gradients(self, grads: list[LayerParams], learning_rate: float):
        for layer, grad in zip(self.layers, grads):
            layer.weights -= learning_rate * grad.weights
            layer.bias -= learning_rate * grad.bias

    def squared_param_norm(self) -> float:
        return float(sum(np.sum(l.weights ** 2) + np.sum(l.bias ** 2) for l in self.layers))

    # Flat parameter views, used by finite-difference checks.
    def get_flat(self) -> np.ndarray:
        return np.concatenate([np.concatenate([l.weights.ravel(), l.bias]) for l in self.layers])

    def set_flat(self, flat: np.ndarray):
        pos = 0
        for layer in self.layers:
            w_size = layer.weights.size
            layer.weights[:] = flat[pos:pos + w_size].reshape(layer.weights.shape)
            pos += w_size
            layer.bias[:] = flat[pos:pos + layer.bias.size]
            pos += layer.bias.size
        if pos != flat.size:
            raise ValueError("flat vector size does not match parameter count")


def init_network(layer_dims, seed: int | np.random.Generator = 0) -> Network:
    """Glorot-uniform weights, zero biases, over consecutive dim pairs."""
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ValueError("need input and output dims")
    if any(d <= 0 for d in dims):
        raise ValueError("zero-width layer")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(LayerParams(rng.uniform(-limit, limit, (fan_out, fan_in)),
                                  np.zeros(fan_out)))
    return Network(layers)


def autoencoder_pretrain(net: Network, x: np.ndarray, epochs: int, learning_rate: float,
                         loss_log: list | None = None) -> Network:
    """Greedy layer-wise pretraining with a tied linear decoder.

    Each layer is trained to reconstruct its own input through x_hat =
    h @ W + c (decoder weights tied to the encoder, free decoder bias, which
    is discarded afterwards). Returns a new network; the input is unchanged.
    If loss_log is given, the per-epoch reconstruction MSE of every layer is
    appended to it in training order.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    out = net.copy()
    layer_input = np.asarray(x, dtype=float)
    for layer in out.layers:
        dec_bias = np.zeros(layer.weights.shape[1])
        for _ in range(epochs):
            hidden = sigmoid(layer_input @ layer.weights.T + layer.bias)
            recon = hidden @ layer.weights + dec_bias
            err = recon - layer_input
            if loss_log is not None:
                loss_log.append(float(np.mean(err ** 2)))
            scale = 2.0 / err.size
            d_recon = scale * err
            d_hidden = d_recon @ layer.weights.T
            dz = d_hidden * hidden * (1.0 - hidden)
            grad_w = hidden.T @ d_recon + dz.T @ layer_input
            layer.weights -= learning_rate * grad_w
            layer.bias -= learning_rate * dz.sum(axis=0)
            dec_bias -= learning_rate * d_recon.sum(axis=0)
        layer_input = sigmoid(layer_input @ layer.weights.T + layer.bias)
    return out


def fresh_network(layer_dims, seed: int, x: np.ndarray, pretrain_epochs: int) -> Network:
    """init_network, then autoencoder_pretrain on x at learning rate 0.1 when
    pretrain_epochs is nonzero: a party's net at the start of a run."""
    net = init_network(layer_dims, seed=seed)
    if pretrain_epochs:
        net = autoencoder_pretrain(net, x, epochs=pretrain_epochs, learning_rate=0.1)
    return net
