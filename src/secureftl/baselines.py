"""Self-learning baselines trained on the small labeled pool alone.

These are what the target party could do without any transfer: fit a
classifier on the co-occurrence samples it holds labels for and hope it
generalizes. Three flavors: logistic regression, a linear max-margin
classifier trained by hinge subgradient descent, and a stacked-autoencoder
classifier with the same architecture as the federated nets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Network, fresh_network, sigmoid
from .plain import threshold_labels


@dataclass
class LinearModel:
    """Affine decision function sign(x @ weights + bias)."""

    weights: np.ndarray
    bias: float

    def decision(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return threshold_labels(self.decision(x))


def _check_labels(labels: np.ndarray):
    if not len(labels):
        raise ValueError("the labeled pool is empty: there is nothing to train on")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must be -1 or +1")


def _logistic_slope(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    # d/dz log(1+exp(-y z)) = -y * sigmoid(-y z), per row of the mean loss
    return -y * sigmoid(-y * z) / len(y)


def _hinge_slope(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    # a subgradient of max(0, 1 - y z), per row of the mean loss
    return np.where(y * z < 1.0, -y, 0.0) / len(y)


def _fit_linear(x: np.ndarray, labels: np.ndarray, slope_of, epochs: int,
                learning_rate: float, l2: float, seed: int) -> LinearModel:
    """Full-batch descent on a mean loss with per-row slope slope_of(y, z)."""
    _check_labels(labels)
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal(x.shape[1])
    b = 0.0
    y = labels.astype(float)
    for _ in range(epochs):
        slope = slope_of(y, x @ w + b)
        w -= learning_rate * (x.T @ slope + l2 * w)
        b -= learning_rate * float(np.sum(slope))
    return LinearModel(w, b)


def train_logistic(x: np.ndarray, labels: np.ndarray, seed: int = 0) -> LinearModel:
    """300 full-batch gradient descent steps at rate 0.5 on the logistic loss
    plus 1e-3 times the L2 penalty."""
    return _fit_linear(x, labels, _logistic_slope, 300, 0.5, 1e-3, seed)


def train_linear_svm(x: np.ndarray, labels: np.ndarray, epochs: int = 300,
                     learning_rate: float = 0.5, l2: float = 1e-3,
                     seed: int = 0) -> LinearModel:
    """Hinge-loss linear classifier by subgradient descent.

    A stand-in for a kernel SVM solver: same decision family, no external
    dependency, good enough as a self-learning reference point.
    """
    return _fit_linear(x, labels, _hinge_slope, epochs, learning_rate, l2, seed)


@dataclass
class SaeClassifier:
    """Stacked-autoencoder representation with a logistic head on top."""

    net: Network
    head: LinearModel

    def decision(self, x: np.ndarray) -> np.ndarray:
        return self.head.decision(self.net.forward(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return threshold_labels(self.decision(x))


def train_sae_classifier(x: np.ndarray, labels: np.ndarray, layer_dims: list[int],
                         pretrain_epochs: int = 50, epochs: int = 300,
                         learning_rate: float = 0.5, l2: float = 1e-3,
                         seed: int = 0) -> SaeClassifier:
    """Greedy autoencoder pretraining, then joint logistic fine-tuning.

    layer_dims matches the federated nets ([input, hidden, ...]); the head
    gradient is backpropagated through the stack during fine-tuning.
    """
    _check_labels(labels)
    net = fresh_network(layer_dims, seed, x, pretrain_epochs)
    rng = np.random.default_rng(seed + 1)
    w = 0.01 * rng.standard_normal(net.hidden_dim)
    b = 0.0
    y = labels.astype(float)
    for _ in range(epochs):
        trace = net.forward_trace(x)
        u = trace[-1]
        slope = _logistic_slope(y, u @ w + b)
        grads = net.backward(trace, slope[:, None] * w[None, :])
        net.apply_gradients(grads, learning_rate)
        w -= learning_rate * (u.T @ slope + l2 * w)
        b -= learning_rate * float(np.sum(slope))
    return SaeClassifier(net, LinearModel(w, b))
