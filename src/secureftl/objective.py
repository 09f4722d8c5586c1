"""Plaintext transfer objective: prediction loss, alignment loss, gradients.

The source party holds labels and builds a label-weighted mean representation
(the prototype); the target's score for a sample is the inner product of the
prototype with the target-side representation. The logistic loss over these
scores is replaced by its degree-2 Taylor expansion so that the encrypted
protocol only ever needs additions and plaintext multiplications; the exact
logistic form is kept for comparison runs.

Everything here is pure numpy over plaintext arrays. It serves two roles:
the computation each party would run without privacy, and the oracle the
encrypted protocol is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nets import LayerParams, Network

if TYPE_CHECKING:
    from .plain import TrainingConfig

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class AlignmentSpec:
    """Decomposition l2(a, b) = own_a(a) + own_b(b) + kappa * a.b.

    Each party must be able to evaluate its share of the alignment loss on
    its own representation, with a single cross term of known constant
    weight; that is what makes the encrypted assembly possible.
    """

    kind: str
    kappa: float
    has_own_terms: bool

    def own_loss(self, u: np.ndarray) -> np.ndarray:
        if self.has_own_terms:
            return np.sum(u * u, axis=1)
        return np.zeros(len(u))

    def own_grad(self, u: np.ndarray) -> np.ndarray:
        if self.has_own_terms:
            return 2.0 * u
        return np.zeros_like(u)

    def row_loss(self, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
        return self.own_loss(u_a) + self.own_loss(u_b) + self.kappa * np.sum(u_a * u_b, axis=1)


def alignment_spec(kind: str) -> AlignmentSpec:
    if kind == "inner":
        # l2 = -a.b, minimized by co-linear representations.
        return AlignmentSpec("inner", -1.0, False)
    if kind == "distance":
        # l2 = |a - b|^2 = |a|^2 + |b|^2 - 2 a.b.
        return AlignmentSpec("distance", -2.0, True)
    raise ValueError(f"unknown alignment kind {kind!r}")


def label_prototype(u: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Label-weighted mean representation: (1/N) sum_i y_i u_i."""
    return labels @ u / len(labels)


def predict_phi(prototype: np.ndarray, u_rows: np.ndarray) -> np.ndarray:
    """Transfer score(s): inner product of the prototype with target rows."""
    return np.asarray(u_rows) @ np.asarray(prototype)


def threshold_labels(phi) -> np.ndarray:
    """Scores to labels; the tie at exactly zero classifies positive."""
    return np.where(np.asarray(phi, dtype=float) >= 0.0, 1, -1)


def taylor_loss1(y, phi):
    """Degree-2 expansion of the logistic loss around phi = 0.

    log(1 + exp(-y*phi)) ~ log 2 - y*phi/2 + (y*phi)^2/8. The linear
    coefficient is the exact derivative at zero, so loss and gradient stay
    consistent under the approximation.
    """
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return LOG2 - 0.5 * y * phi + 0.125 * (y * phi) ** 2


def taylor_dloss_dphi(y, phi):
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return -0.5 * y + 0.25 * y * y * phi


def logistic_loss1(y, phi):
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.logaddexp(0.0, -y * phi)


def logistic_dloss_dphi(y, phi):
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    margin = y * phi
    return -y / (1.0 + np.exp(np.clip(margin, -500, 500)))


def _loss_fns(loss_mode: str):
    if loss_mode == "taylor":
        return taylor_loss1, taylor_dloss_dphi
    return logistic_loss1, logistic_dloss_dphi


@dataclass(frozen=True)
class TransferTerms:
    """One evaluation of the federated objective and its per-row gradients."""

    loss: float
    prototype: np.ndarray
    du_source: np.ndarray        # (N_source, d): prediction-loss path through the prototype
    du_source_align: np.ndarray  # (N_ab, d): alignment gradient on source overlap rows
    du_target_pred: np.ndarray   # (N_c, d): prediction gradient on labeled target rows
    du_target_align: np.ndarray  # (N_ab, d): alignment gradient on target overlap rows


def transfer_terms(u_source: np.ndarray, labels_source: np.ndarray,
                   u_target_c: np.ndarray, labels_c: np.ndarray,
                   u_source_ab: np.ndarray, u_target_ab: np.ndarray,
                   source_param_norm: float, target_param_norm: float,
                   cfg: TrainingConfig) -> TransferTerms:
    """Evaluate the full objective and all representation-level gradients.

    The prediction loss runs over the labeled target rows (scored against the
    source prototype); the alignment loss over the co-occurring pairs; the
    regularizer over both parties' squared parameter norms. The gradient of
    the prediction loss reaches every source row through the prototype:
    d(prototype)/d(u_j) = (y_j / N) * I.
    """
    loss1, dloss1 = _loss_fns(cfg.loss_mode)
    spec = alignment_spec(cfg.alignment)
    n_source = len(u_source)

    prototype = label_prototype(u_source, labels_source)
    phi = predict_phi(prototype, u_target_c) if len(u_target_c) else np.zeros(0)
    pred_loss = float(np.sum(loss1(labels_c, phi))) if len(u_target_c) else 0.0
    dphi = dloss1(labels_c, phi) if len(u_target_c) else np.zeros(0)

    # S = sum_i dphi_i u_i^target: the common factor of every source row's
    # prediction gradient.
    pooled = dphi @ u_target_c if len(u_target_c) else np.zeros(u_source.shape[1])
    du_source = np.outer(labels_source, pooled) / n_source
    du_target_pred = np.outer(dphi, prototype)

    align_loss = float(np.sum(spec.row_loss(u_source_ab, u_target_ab))) if len(u_source_ab) else 0.0
    du_source_align = cfg.gamma * (spec.kappa * u_target_ab + spec.own_grad(u_source_ab))
    du_target_align = cfg.gamma * (spec.kappa * u_source_ab + spec.own_grad(u_target_ab))

    loss = (pred_loss + cfg.gamma * align_loss
            + 0.5 * cfg.weight_decay * (source_param_norm + target_param_norm))
    return TransferTerms(loss, prototype, du_source, du_source_align, du_target_pred,
                         du_target_align)


def _gather_terms(net_source: Network, x_source, labels_source,
                  net_target: Network, x_target,
                  c_rows_source, c_rows_target, ab_rows_source, ab_rows_target,
                  cfg: TrainingConfig):
    trace_source = net_source.forward_trace(x_source)
    trace_target = net_target.forward_trace(x_target)
    u_source, u_target = trace_source[-1], trace_target[-1]
    terms = transfer_terms(
        u_source, np.asarray(labels_source, dtype=float),
        u_target[c_rows_target], np.asarray(labels_source)[c_rows_source],
        u_source[ab_rows_source], u_target[ab_rows_target],
        net_source.squared_param_norm(), net_target.squared_param_norm(), cfg)
    return trace_source, trace_target, terms


def full_loss(net_source: Network, x_source, labels_source,
              net_target: Network, x_target,
              c_rows_source, c_rows_target, ab_rows_source, ab_rows_target,
              cfg: TrainingConfig) -> float:
    """Objective value: prediction + gamma*alignment + (decay/2)*param norms."""
    return _gather_terms(net_source, x_source, labels_source, net_target, x_target,
                         c_rows_source, c_rows_target, ab_rows_source, ab_rows_target,
                         cfg)[2].loss


def plaintext_gradients(net_source: Network, x_source, labels_source,
                        net_target: Network, x_target,
                        c_rows_source, c_rows_target, ab_rows_source, ab_rows_target,
                        cfg: TrainingConfig
                        ) -> tuple[list[LayerParams], list[LayerParams], TransferTerms]:
    """Exact parameter gradients of full_loss for both networks.

    Row-level gradients are scattered onto each party's forward batch and
    pushed through backpropagation; the weight-decay term adds decay*theta to
    every layer.
    """
    trace_source, trace_target, terms = _gather_terms(
        net_source, x_source, labels_source, net_target, x_target,
        c_rows_source, c_rows_target, ab_rows_source, ab_rows_target, cfg)

    du_source = terms.du_source.copy()
    du_source[ab_rows_source] += terms.du_source_align
    du_target = np.zeros_like(trace_target[-1])
    du_target[c_rows_target] += terms.du_target_pred
    du_target[ab_rows_target] += terms.du_target_align

    grads_source = net_source.backward(trace_source, du_source)
    grads_target = net_target.backward(trace_target, du_target)
    for net, grads in ((net_source, grads_source), (net_target, grads_target)):
        for layer, grad in zip(net.layers, grads):
            grad.weights += cfg.weight_decay * layer.weights
            grad.bias += cfg.weight_decay * layer.bias
    return grads_source, grads_target, terms
